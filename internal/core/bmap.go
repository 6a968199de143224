package core

import (
	"fmt"

	"cffs/internal/blockio"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// Block mapping: direct pointers plus single and double indirect blocks,
// identical in shape to the baseline. What differs is allocation policy:
// the first GroupBlocks blocks of a small regular file go to the naming
// directory's group (when grouping is on); everything else uses
// conventional clustered placement, so large-file behaviour is unchanged
// — a property the paper is explicit about and the largefile experiment
// checks.

// homeAG is the allocation group the conventional allocator prefers,
// following FFS policy [McKusick84]: a directory lives in the group its
// (rotor-assigned) inode landed in, and everything it names — entry
// blocks, inodes, small-file data — stays in that group. Locality, but
// not adjacency: the distinction the paper's argument rests on.
func (fs *FS) homeAG(in *layout.Inode, ino vfs.Ino) int {
	if in.Type == vfs.TypeDir {
		if in.Direct[0] != 0 {
			if ag := fs.agOf(int64(in.Direct[0])); ag >= 0 {
				return ag
			}
		}
		// A new directory's data joins its own inode's group.
		if !isEmbedded(ino) {
			if phys, _, err := fs.extLoc(extIdx(ino)); err == nil {
				if ag := fs.agOf(phys); ag >= 0 {
					return ag
				}
			}
		}
		return int(mix64(uint64(ino)) % uint64(fs.sb.NAG))
	}
	if in.Parent != 0 {
		if pin, err := fs.getInode(vfs.Ino(in.Parent)); err == nil && pin.Alive() && pin.Direct[0] != 0 {
			if ag := fs.agOf(int64(pin.Direct[0])); ag >= 0 {
				return ag
			}
		}
		return int(mix64(uint64(in.Parent)) % uint64(fs.sb.NAG))
	}
	return int(mix64(uint64(ino)) % uint64(fs.sb.NAG))
}

// pickDirAG assigns allocation groups to new directories round-robin,
// like the FFS policy of placing each new directory in a different
// cylinder group from its parent.
func (fs *FS) pickDirAG() int {
	ag := fs.dirRotor
	fs.dirRotor = (fs.dirRotor + 1) % fs.sb.NAG
	return ag
}

// allocFileBlock picks a block for file block lb of ino. Small regular
// files group under their naming directory; directory blocks group
// under the directory itself — the same owner id — so a directory's
// entry blocks (with their embedded inodes) and its small files' data
// blocks share group extents. That co-location is the synergy the paper
// points out between the two techniques: one group read returns names,
// inodes, and data.
func (fs *FS) allocFileBlock(in *layout.Inode, ino vfs.Ino, lb int64, prev uint32) (int64, error) {
	owner := in.Parent
	if in.Type == vfs.TypeDir && !isEmbedded(ino) {
		owner = uint32(ino)
	}
	if fs.opts.Grouping && lb < GroupBlocks && owner != 0 {
		phys, gid, err := fs.allocGrouped(owner, in.Group, ino, fs.homeAG(in, ino))
		if err != nil {
			return 0, err
		}
		if phys == 0 {
			return 0, fmt.Errorf("cffs: grouped allocation returned no block for inode %#x", uint64(ino))
		}
		if gid != 0 {
			in.Group = gid
		}
		return phys, nil
	}
	if prev != 0 {
		return fs.allocNear(int64(prev) + 1)
	}
	return fs.allocScattered(fs.homeAG(in, ino), ino)
}

// bmap maps file block lb to a physical block, allocating on demand
// when alloc is set; 0 means a hole.
func (fs *FS) bmap(in *layout.Inode, ino vfs.Ino, lb int64, alloc bool) (int64, error) {
	if lb < 0 || lb >= layout.MaxFileBlocks {
		return 0, fmt.Errorf("cffs: block %d of inode %#x: %w", lb, uint64(ino), vfs.ErrInvalid)
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
		phys, err := fs.allocFileBlock(in, ino, lb, prev)
		if err != nil {
			return 0, err
		}
		in.Direct[lb] = uint32(phys)
		in.NBlocks++
		return phys, nil
	}

	rel := lb - layout.NDirect
	if rel < layout.PtrsPerBlock {
		return fs.indirBlock(&in.Indir, in, ino, lb, rel, alloc)
	}

	rel -= layout.PtrsPerBlock
	if in.DIndir == 0 {
		if !alloc {
			return 0, nil
		}
		phys, err := fs.allocScattered(fs.homeAG(in, ino), ino)
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
	slot := int(rel / layout.PtrsPerBlock)
	le := leBytes{db.Data}
	ptr := le.u32(slot * 4)
	if ptr == 0 {
		if !alloc {
			return 0, nil
		}
		phys, err := fs.allocScattered(fs.homeAG(in, ino), ino)
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
	return fs.indirBlock(&ptr, in, ino, lb, rel%layout.PtrsPerBlock, alloc)
}

// indirBlock resolves one level of indirection through *ptrSlot.
func (fs *FS) indirBlock(ptrSlot *uint32, in *layout.Inode, ino vfs.Ino, lb, idx int64, alloc bool) (int64, error) {
	if *ptrSlot == 0 {
		if !alloc {
			return 0, nil
		}
		phys, err := fs.allocScattered(fs.homeAG(in, ino), ino)
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
	phys, err := fs.allocFileBlock(in, ino, lb, prev)
	if err != nil {
		return 0, err
	}
	le.pu32(int(idx)*4, uint32(phys))
	fs.c.MarkDirty(ib)
	in.NBlocks++
	return phys, nil
}

// zeroBlock installs an all-zero cached block for fresh metadata.
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

// truncate frees blocks at or beyond newSize and updates the inode in
// place (caller writes it back).
func (fs *FS) truncate(in *layout.Inode, ino vfs.Ino, newSize int64) error {
	if newSize < 0 {
		return vfs.ErrInvalid
	}
	if isInline(in) {
		if newSize > layout.InlineSize {
			if err := fs.spillInline(in, ino); err != nil {
				return err
			}
		} else {
			// Still inline: zero the dropped tail so a later regrow
			// reads zeros, then adjust the size.
			for i := newSize; i < int64(len(in.Inline)); i++ {
				in.Inline[i] = 0
			}
			in.Size = newSize
			in.Mtime = fs.clk.Now()
			return nil
		}
	}
	oldBlocks := (in.Size + blockio.BlockSize - 1) / blockio.BlockSize
	keep := (newSize + blockio.BlockSize - 1) / blockio.BlockSize

	// One discard per physically contiguous run of freed blocks, issued
	// before anything below can allocate. An error return drops the
	// pending run: a discard not sent costs the device, never the data.
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
	if err := fs.freeEmptyIndirs(in, keep, &run); err != nil {
		return err
	}
	if err := run.Flush(fs.dev); err != nil {
		return err
	}
	if keep == 0 {
		in.Group = 0
	}
	if newSize < in.Size && newSize%blockio.BlockSize != 0 {
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

// clearMapping zeroes the pointer for file block lb at whatever level.
func (fs *FS) clearMapping(in *layout.Inode, lb int64) error {
	if lb < layout.NDirect {
		in.Direct[lb] = 0
		return nil
	}
	rel := lb - layout.NDirect
	var indir uint32
	var slot int64
	if rel < layout.PtrsPerBlock {
		indir, slot = in.Indir, rel
	} else {
		rel -= layout.PtrsPerBlock
		if in.DIndir == 0 {
			return nil
		}
		db, err := fs.c.Read(int64(in.DIndir))
		if err != nil {
			return err
		}
		indir = leBytes{db.Data}.u32(int(rel/layout.PtrsPerBlock) * 4)
		db.Release()
		slot = rel % layout.PtrsPerBlock
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

// freeEmptyIndirs releases indirect blocks once the kept range fits the
// direct pointers (the unlink/truncate-to-zero case).
func (fs *FS) freeEmptyIndirs(in *layout.Inode, keep int64, run *blockio.DiscardRun) error {
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
