package ffs

import (
	"fmt"

	"cffs/internal/blockio"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// inodeLoc returns the inode-table block and slot holding ino.
func (fs *FS) inodeLoc(ino vfs.Ino) (int64, int, error) {
	if ino < 1 || int64(ino) > int64(fs.sb.NCG)*int64(fs.sb.InodesPerCG) {
		return 0, 0, fmt.Errorf("ffs: inode %d: %w", ino, vfs.ErrInvalid)
	}
	cg := fs.cgOfIno(ino)
	idx := int(ino-1) % fs.sb.InodesPerCG
	block := fs.sb.cgStart(cg) + 1 + int64(idx/layout.InodesPerBlock)
	return block, idx % layout.InodesPerBlock, nil
}

// getInode reads an inode from its table block.
func (fs *FS) getInode(ino vfs.Ino) (layout.Inode, error) {
	var in layout.Inode
	block, slot, err := fs.inodeLoc(ino)
	if err != nil {
		return in, err
	}
	b, err := fs.c.Read(block)
	if err != nil {
		return in, err
	}
	defer b.Release()
	in.Decode(b.Data[slot*layout.InodeSize:])
	return in, nil
}

// getLiveInode is getInode plus an existence check.
func (fs *FS) getLiveInode(ino vfs.Ino) (layout.Inode, error) {
	in, err := fs.getInode(ino)
	if err != nil {
		return in, err
	}
	if !in.Alive() {
		return in, fmt.Errorf("ffs: inode %d: %w", ino, vfs.ErrNotExist)
	}
	return in, nil
}

// putInode writes an inode back to its table block; sync forces the
// ordered write in ModeSync (creates, deletes, link-count changes).
func (fs *FS) putInode(ino vfs.Ino, in *layout.Inode, sync bool) error {
	block, slot, err := fs.inodeLoc(ino)
	if err != nil {
		return err
	}
	b, err := fs.c.Read(block)
	if err != nil {
		return err
	}
	defer b.Release()
	in.Encode(b.Data[slot*layout.InodeSize:])
	if sync {
		return fs.syncMeta(b)
	}
	fs.c.MarkDirty(b)
	return nil
}

// bmap maps a file block index to a physical block, allocating the
// block (and any needed indirect blocks) when alloc is set. It returns
// 0 for a hole when alloc is false.
func (fs *FS) bmap(in *layout.Inode, ino vfs.Ino, lb int64, alloc bool) (int64, error) {
	if lb < 0 || lb >= layout.MaxFileBlocks {
		return 0, fmt.Errorf("ffs: block %d of inode %d: %w", lb, ino, vfs.ErrInvalid)
	}
	cg := fs.cgOfIno(ino)

	// Preferred placement: right after the file's previous block.
	pref := func(prev uint32) int64 {
		if prev == 0 {
			return -1
		}
		return int64(prev) + 1
	}

	if lb < layout.NDirect {
		if in.Direct[lb] != 0 {
			return int64(in.Direct[lb]), nil
		}
		if !alloc {
			return 0, nil
		}
		var prev uint32
		if lb > 0 {
			prev = in.Direct[lb-1]
		}
		phys, err := fs.allocBlock(cg, pref(prev), ino)
		if err != nil {
			return 0, err
		}
		in.Direct[lb] = uint32(phys)
		in.NBlocks++
		return phys, nil
	}

	lb -= layout.NDirect
	if lb < layout.PtrsPerBlock {
		return fs.indirBlock(&in.Indir, in, ino, cg, lb, alloc)
	}

	lb -= layout.PtrsPerBlock
	// Double indirect: first level picks the indirect block.
	if in.DIndir == 0 {
		if !alloc {
			return 0, nil
		}
		phys, err := fs.allocBlock(cg, -1, ino)
		if err != nil {
			return 0, err
		}
		if err := fs.zeroBlock(phys); err != nil {
			return 0, err
		}
		in.DIndir = uint32(phys)
		in.NBlocks++
	}
	db, err := fs.c.Read(int64(in.DIndir))
	if err != nil {
		return 0, err
	}
	defer db.Release()
	slot := int(lb / layout.PtrsPerBlock)
	le := leBytes{db.Data}
	ptr := le.u32(slot * 4)
	if ptr == 0 {
		if !alloc {
			return 0, nil
		}
		phys, err := fs.allocBlock(cg, -1, ino)
		if err != nil {
			return 0, err
		}
		if err := fs.zeroBlock(phys); err != nil {
			return 0, err
		}
		le.pu32(slot*4, uint32(phys))
		fs.c.MarkDirty(db)
		in.NBlocks++
		ptr = uint32(phys)
	}
	return fs.indirBlock(&ptr, in, ino, cg, lb%layout.PtrsPerBlock, alloc)
}

// indirBlock resolves one level of indirection through *ptrSlot.
func (fs *FS) indirBlock(ptrSlot *uint32, in *layout.Inode, ino vfs.Ino, cg int, idx int64, alloc bool) (int64, error) {
	if *ptrSlot == 0 {
		if !alloc {
			return 0, nil
		}
		phys, err := fs.allocBlock(cg, -1, ino)
		if err != nil {
			return 0, err
		}
		if err := fs.zeroBlock(phys); err != nil {
			return 0, err
		}
		*ptrSlot = uint32(phys)
		in.NBlocks++
	}
	ib, err := fs.c.Read(int64(*ptrSlot))
	if err != nil {
		return 0, err
	}
	defer ib.Release()
	le := leBytes{ib.Data}
	ptr := le.u32(int(idx) * 4)
	if ptr != 0 {
		return int64(ptr), nil
	}
	if !alloc {
		return 0, nil
	}
	var prev uint32
	if idx > 0 {
		prev = le.u32(int(idx-1) * 4)
	}
	prefPhys := int64(-1)
	if prev != 0 {
		prefPhys = int64(prev) + 1
	}
	phys, err := fs.allocBlock(cg, prefPhys, ino)
	if err != nil {
		return 0, err
	}
	le.pu32(int(idx)*4, uint32(phys))
	fs.c.MarkDirty(ib)
	in.NBlocks++
	return phys, nil
}

// zeroBlock installs an all-zero cached block for a fresh metadata block
// (indirect blocks must read back as zeros without touching the disk).
func (fs *FS) zeroBlock(phys int64) error {
	b, err := fs.c.Alloc(phys)
	if err != nil {
		return err
	}
	for i := range b.Data {
		b.Data[i] = 0
	}
	fs.c.MarkDirty(b)
	b.Release()
	return nil
}

// truncate frees all blocks at or beyond newSize and updates the inode
// (caller writes it back). Shrinking within a block zeroes the tail so
// later extension reads zeros, as POSIX requires.
func (fs *FS) truncate(in *layout.Inode, ino vfs.Ino, newSize int64) error {
	if newSize < 0 {
		return vfs.ErrInvalid
	}
	oldBlocks := (in.Size + blockio.BlockSize - 1) / blockio.BlockSize
	keep := (newSize + blockio.BlockSize - 1) / blockio.BlockSize

	// One discard per physically contiguous run, flushed before anything
	// can allocate; an error return drops the pending run, which costs
	// the device and never the data.
	var run blockio.DiscardRun
	for lb := keep; lb < oldBlocks; lb++ {
		phys, err := fs.bmap(in, ino, lb, false)
		if err != nil {
			return err
		}
		if phys == 0 {
			continue
		}
		if err := fs.clearMapping(in, lb); err != nil {
			return err
		}
		if err := fs.freeBlock(phys, &run); err != nil {
			return err
		}
		in.NBlocks--
	}
	if err := fs.freeEmptyIndirs(in, ino, keep, &run); err != nil {
		return err
	}
	if err := run.Flush(fs.dev); err != nil {
		return err
	}
	if newSize < in.Size && newSize%blockio.BlockSize != 0 {
		// Zero the tail of the boundary block.
		lb := newSize / blockio.BlockSize
		phys, err := fs.bmap(in, ino, lb, false)
		if err != nil {
			return err
		}
		if phys != 0 {
			b, err := fs.c.Read(phys)
			if err != nil {
				return err
			}
			for i := newSize % blockio.BlockSize; i < blockio.BlockSize; i++ {
				b.Data[i] = 0
			}
			fs.c.MarkDirty(b)
			b.Release()
		}
	}
	in.Size = newSize
	in.Mtime = fs.clk.Now()
	return nil
}

// clearMapping zeroes the pointer for file block lb at whatever level it
// lives, so a freed block can never be reached through a stale pointer.
func (fs *FS) clearMapping(in *layout.Inode, lb int64) error {
	if lb < layout.NDirect {
		in.Direct[lb] = 0
		return nil
	}
	lb -= layout.NDirect
	var indir uint32
	var slot int64
	if lb < layout.PtrsPerBlock {
		indir, slot = in.Indir, lb
	} else {
		lb -= layout.PtrsPerBlock
		if in.DIndir == 0 {
			return nil
		}
		db, err := fs.c.Read(int64(in.DIndir))
		if err != nil {
			return err
		}
		indir = leBytes{db.Data}.u32(int(lb/layout.PtrsPerBlock) * 4)
		db.Release()
		slot = lb % layout.PtrsPerBlock
	}
	if indir == 0 {
		return nil
	}
	ib, err := fs.c.Read(int64(indir))
	if err != nil {
		return err
	}
	leBytes{ib.Data}.pu32(int(slot)*4, 0)
	fs.c.MarkDirty(ib)
	ib.Release()
	return nil
}

// freeEmptyIndirs releases indirect blocks whose every pointer now lies
// beyond the kept range. For simplicity it only handles the all-freed
// case (keep within the direct range), which is what unlink and
// truncate-to-zero need; partial indirect truncation keeps the indirect
// blocks, costing at most a few blocks of slack.
func (fs *FS) freeEmptyIndirs(in *layout.Inode, ino vfs.Ino, keep int64, run *blockio.DiscardRun) error {
	if keep > layout.NDirect {
		return nil
	}
	if in.Indir != 0 {
		if err := fs.freeBlock(int64(in.Indir), run); err != nil {
			return err
		}
		in.Indir = 0
		in.NBlocks--
	}
	if in.DIndir != 0 {
		db, err := fs.c.Read(int64(in.DIndir))
		if err != nil {
			return err
		}
		le := leBytes{db.Data}
		for s := 0; s < layout.PtrsPerBlock; s++ {
			if p := le.u32(s * 4); p != 0 {
				if err := fs.freeBlock(int64(p), run); err != nil {
					db.Release()
					return err
				}
				in.NBlocks--
			}
		}
		db.Release()
		if err := fs.freeBlock(int64(in.DIndir), run); err != nil {
			return err
		}
		in.DIndir = 0
		in.NBlocks--
	}
	return nil
}
