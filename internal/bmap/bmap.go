// Package bmap is the block-pointer tree every layout in this repository
// hangs off a layout.Inode: NDirect direct pointers, one single-indirect
// block and one double-indirect block of little-endian u32 pointers. The
// three file systems differ in where inodes live, how blocks are chosen
// and in what order metadata reaches the disk — not in this tree, so it
// is written once. Everything a layout decides enters through Alloc; the
// code here never asks which file system is calling.
package bmap

import (
	"encoding/binary"
	"fmt"

	"cffs/internal/blockio"
	"cffs/internal/cache"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// Alloc is a layout's allocator and free path, supplied once at mount.
// A layout that never calls Map (lfs remaps every written block through
// its log) leaves Data and Meta nil.
type Alloc struct {
	// Data picks a block for file block lb of ino; prev is the physical
	// block mapped just before it (0 if none), for clustered placement.
	Data func(in *layout.Inode, ino vfs.Ino, lb int64, prev uint32) (int64, error)
	// Meta picks a block for one of ino's pointer blocks.
	Meta func(in *layout.Inode, ino vfs.Ino) (int64, error)
	// Free releases a block. run coalesces the discards of one Shrink.
	Free func(phys int64, run *blockio.DiscardRun) error
}

// Tree maps file blocks to physical blocks through a buffer cache. Like
// the file systems' mutating paths it is single-writer: Map, Shrink and
// Truncate run under the owning mount's exclusive lock.
type Tree struct {
	c *cache.Cache
	a Alloc

	// A pointer handed to a func value escapes to the heap, and the
	// callers' inodes and Shrink's discard run must not (the read and
	// free paths are budgeted at zero allocations). So Alloc's functions
	// see the tree's own copies: in is lent for the length of one call
	// and copied back, run is reset on entry to each Shrink.
	in  layout.Inode
	run blockio.DiscardRun
}

// New builds the tree for one mount.
func New(c *cache.Cache, a Alloc) *Tree { return &Tree{c: c, a: a} }

func (t *Tree) allocData(in *layout.Inode, ino vfs.Ino, lb int64, prev uint32) (int64, error) {
	t.in = *in
	phys, err := t.a.Data(&t.in, ino, lb, prev)
	*in = t.in
	return phys, err
}

func (t *Tree) allocMeta(in *layout.Inode, ino vfs.Ino) (int64, error) {
	t.in = *in
	phys, err := t.a.Meta(&t.in, ino)
	*in = t.in
	return phys, err
}

func ptr(p []byte, i int64) uint32 { return binary.LittleEndian.Uint32(p[i*4:]) }

func setPtr(p []byte, i int64, v uint32) { binary.LittleEndian.PutUint32(p[i*4:], v) }

// Resolve maps file block lb to a physical block; 0 means a hole. It is
// read-only: nothing is allocated and none of Alloc is called.
func (t *Tree) Resolve(in *layout.Inode, lb int64) (int64, error) {
	return t.walk(in, 0, lb, false)
}

// Map is Resolve that fills a hole: the block, and any pointer block on
// the way to it, is allocated and counted in in.NBlocks. The caller
// writes the inode back.
func (t *Tree) Map(in *layout.Inode, ino vfs.Ino, lb int64) (int64, error) {
	return t.walk(in, ino, lb, true)
}

func (t *Tree) walk(in *layout.Inode, ino vfs.Ino, lb int64, alloc bool) (int64, error) {
	if lb < 0 || lb >= layout.MaxFileBlocks {
		return 0, fmt.Errorf("bmap: file block %d: %w", lb, vfs.ErrInvalid)
	}
	if lb < layout.NDirect {
		if in.Direct[lb] != 0 || !alloc {
			return int64(in.Direct[lb]), nil
		}
		var prev uint32
		if lb > 0 {
			prev = in.Direct[lb-1]
		}
		phys, err := t.allocData(in, ino, lb, prev)
		if err != nil {
			return 0, err
		}
		in.Direct[lb] = uint32(phys)
		in.NBlocks++
		return phys, nil
	}

	rel := lb - layout.NDirect
	if rel < layout.PtrsPerBlock {
		return t.leaf(&in.Indir, in, ino, lb, rel, alloc)
	}

	rel -= layout.PtrsPerBlock
	if in.DIndir == 0 {
		if !alloc {
			return 0, nil
		}
		if err := t.newPtrBlock(&in.DIndir, in, ino); err != nil {
			return 0, err
		}
	}
	db, err := t.c.Read(int64(in.DIndir))
	if err != nil {
		return 0, err
	}
	defer db.Release()
	slot := rel / layout.PtrsPerBlock
	l2 := ptr(db.Data, slot)
	if l2 == 0 {
		if !alloc {
			return 0, nil
		}
		if err := t.newPtrBlock(&l2, in, ino); err != nil {
			return 0, err
		}
		setPtr(db.Data, slot, l2)
		t.c.MarkDirty(db)
	}
	return t.leaf(&l2, in, ino, lb, rel%layout.PtrsPerBlock, alloc)
}

// leaf resolves slot idx of the pointer block *at, creating the block
// first when alloc is set and there is none.
func (t *Tree) leaf(at *uint32, in *layout.Inode, ino vfs.Ino, lb, idx int64, alloc bool) (int64, error) {
	if *at == 0 {
		if !alloc {
			return 0, nil
		}
		if err := t.newPtrBlock(at, in, ino); err != nil {
			return 0, err
		}
	}
	ib, err := t.c.Read(int64(*at))
	if err != nil {
		return 0, err
	}
	defer ib.Release()
	if p := ptr(ib.Data, idx); p != 0 || !alloc {
		return int64(p), nil
	}
	var prev uint32
	if idx > 0 {
		prev = ptr(ib.Data, idx-1)
	}
	phys, err := t.allocData(in, ino, lb, prev)
	if err != nil {
		return 0, err
	}
	setPtr(ib.Data, idx, uint32(phys))
	t.c.MarkDirty(ib)
	in.NBlocks++
	return phys, nil
}

// newPtrBlock allocates a pointer block into *at and installs it in the
// cache all-zero, so it reads back empty without touching the disk.
func (t *Tree) newPtrBlock(at *uint32, in *layout.Inode, ino vfs.Ino) error {
	phys, err := t.allocMeta(in, ino)
	if err != nil {
		return err
	}
	b, err := t.c.Alloc(phys)
	if err != nil {
		return err
	}
	clear(b.Data)
	t.c.MarkDirty(b)
	b.Release()
	*at = uint32(phys)
	in.NBlocks++
	return nil
}

// SetMapping points file block lb at phys, at whatever level its pointer
// lives; 0 unmaps it. It allocates nothing: ok reports whether the
// pointer blocks on the way exist, and without them nothing is written.
func (t *Tree) SetMapping(in *layout.Inode, lb int64, phys uint32) (ok bool, err error) {
	if lb < layout.NDirect {
		in.Direct[lb] = phys
		return true, nil
	}
	rel := lb - layout.NDirect
	indir, slot := in.Indir, rel
	if rel >= layout.PtrsPerBlock {
		rel -= layout.PtrsPerBlock
		if in.DIndir == 0 {
			return false, nil
		}
		db, err := t.c.Read(int64(in.DIndir))
		if err != nil {
			return false, err
		}
		indir, slot = ptr(db.Data, rel/layout.PtrsPerBlock), rel%layout.PtrsPerBlock
		db.Release()
	}
	if indir == 0 {
		return false, nil
	}
	ib, err := t.c.Read(int64(indir))
	if err != nil {
		return false, err
	}
	setPtr(ib.Data, slot, phys)
	t.c.MarkDirty(ib)
	ib.Release()
	return true, nil
}

// ClearMapping unmaps file block lb, so a freed block can never be
// reached through a stale pointer. A missing pointer block means there
// is nothing to clear.
func (t *Tree) ClearMapping(in *layout.Inode, lb int64) error {
	_, err := t.SetMapping(in, lb, 0)
	return err
}

// Shrink frees every mapped block at or beyond file block keep, out of
// in.Size's current extent. Pointer blocks are released only once the
// kept range fits the direct pointers (unlink and truncate-to-zero);
// a partial cut keeps them, costing at most a few blocks of slack.
//
// Freed blocks are discarded one command per physically contiguous run,
// issued before anything can allocate again. An error return drops the
// pending run: a discard not sent costs the device, never the data.
func (t *Tree) Shrink(in *layout.Inode, keep int64) error {
	t.run = blockio.DiscardRun{}
	old := (in.Size + blockio.BlockSize - 1) / blockio.BlockSize
	for lb := keep; lb < old; lb++ {
		phys, err := t.Resolve(in, lb)
		if err != nil {
			return err
		}
		if phys == 0 {
			continue
		}
		if err := t.ClearMapping(in, lb); err != nil {
			return err
		}
		if err := t.a.Free(phys, &t.run); err != nil {
			return err
		}
		in.NBlocks--
	}
	if keep <= layout.NDirect {
		if err := t.freePtrBlocks(in); err != nil {
			return err
		}
	}
	return t.run.Flush(t.c.Device())
}

func (t *Tree) freePtrBlocks(in *layout.Inode) error {
	if in.Indir != 0 {
		if err := t.a.Free(int64(in.Indir), &t.run); err != nil {
			return err
		}
		in.Indir = 0
		in.NBlocks--
	}
	if in.DIndir == 0 {
		return nil
	}
	db, err := t.c.Read(int64(in.DIndir))
	if err != nil {
		return err
	}
	for s := int64(0); s < layout.PtrsPerBlock; s++ {
		if p := ptr(db.Data, s); p != 0 {
			if err := t.a.Free(int64(p), &t.run); err != nil {
				db.Release()
				return err
			}
			in.NBlocks--
		}
	}
	db.Release()
	if err := t.a.Free(int64(in.DIndir), &t.run); err != nil {
		return err
	}
	in.DIndir = 0
	in.NBlocks--
	return nil
}

// Truncate sets in.Size to newSize, freeing the blocks beyond it and
// zeroing, in place, the tail of the block the new end falls in, so a
// later extension reads zeros. The caller writes the inode back.
func (t *Tree) Truncate(in *layout.Inode, newSize int64) error {
	if newSize < 0 {
		return vfs.ErrInvalid
	}
	if err := t.Shrink(in, (newSize+blockio.BlockSize-1)/blockio.BlockSize); err != nil {
		return err
	}
	if newSize < in.Size && newSize%blockio.BlockSize != 0 {
		phys, err := t.Resolve(in, newSize/blockio.BlockSize)
		if err != nil {
			return err
		}
		if phys != 0 {
			b, err := t.c.Read(phys)
			if err != nil {
				return err
			}
			clear(b.Data[newSize%blockio.BlockSize:])
			t.c.MarkDirty(b)
			b.Release()
		}
	}
	in.Size = newSize
	return nil
}
