package core

import (
	"encoding/binary"
	"fmt"

	"cffs/internal/blockio"
	"cffs/internal/cache"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// Inode identification. An Ino encodes where the inode physically lives,
// removing the physical level of indirection while keeping the logical
// one (the paper's Section 3):
//
//   - external inodes (directories, multi-link files, and — with
//     embedding disabled — everything): Ino = slot index in the inode
//     file + 1;
//   - embedded inodes: the top bit set, then the directory data block's
//     physical number and the 256-byte entry slot within it:
//     Ino = embedFlag | block<<4 | slot.

const embedFlag = uint64(1) << 63

// extInosPerBlock inodes per inode-file block.
const extInosPerBlock = blockio.BlockSize / layout.InodeSize

// maxExtInodes is the inode-map capacity.
const maxExtInodes = mapBlocks * layout.PtrsPerBlock * extInosPerBlock

func embedIno(block int64, slot int) vfs.Ino {
	return vfs.Ino(embedFlag | uint64(block)<<4 | uint64(slot))
}

func isEmbedded(ino vfs.Ino) bool { return uint64(ino)&embedFlag != 0 }

func embedLoc(ino vfs.Ino) (block int64, slot int) {
	v := uint64(ino) &^ embedFlag
	return int64(v >> 4), int(v & 15)
}

func extIdx(ino vfs.Ino) int { return int(ino) - 1 }

// extLoc resolves an external inode index to its inode-file block,
// reading the inode map. It returns the physical block and the slot.
func (fs *FS) extLoc(idx int) (int64, int, error) {
	if idx < 0 || idx >= fs.sb.ExtBlocks*extInosPerBlock {
		return 0, 0, fmt.Errorf("cffs: external inode %d out of range: %w", idx, vfs.ErrNotExist)
	}
	fileBlk := idx / extInosPerBlock
	mapBlk := int64(1 + fileBlk/layout.PtrsPerBlock)
	mb, err := fs.c.Read(mapBlk)
	if err != nil {
		return 0, 0, err
	}
	phys := binary.LittleEndian.Uint32(mb.Data[(fileBlk%layout.PtrsPerBlock)*4:])
	mb.Release()
	if phys == 0 {
		return 0, 0, fmt.Errorf("cffs: inode-file block %d unmapped: %w", fileBlk, vfs.ErrNotExist)
	}
	return int64(phys), idx % extInosPerBlock, nil
}

// allocExtInode claims a free external inode slot, growing the inode
// file when needed. The inode file grows but never shrinks, and its
// blocks never move, like the paper's externalized inode structure.
//
// Placement follows FFS policy: a slot in an inode-file block that lives
// in prefAG is preferred (inodes near the directory that names them),
// then any free slot, then a freshly allocated block in prefAG. Without
// this, all external inodes would cluster at the front of the disk and
// the conventional configuration would see unrealistically cheap
// metadata scans.
func (fs *FS) allocExtInode(prefAG int) (int, error) {
	if idx := fs.findExtSlot(prefAG); idx >= 0 {
		return idx, nil
	}
	// No slot near the directory: grow a new inode-file block there (the
	// FFS-like choice — an inode block per neighborhood) before settling
	// for a distant slot.
	if fs.sb.ExtBlocks >= mapBlocks*layout.PtrsPerBlock {
		if idx := fs.findExtSlot(-1); idx >= 0 {
			return idx, nil
		}
		return 0, fmt.Errorf("cffs: %w: inode map full", vfs.ErrNoSpace)
	}
	phys, err := fs.allocScattered(prefAG, vfs.Ino(fs.sb.ExtBlocks+7))
	if err != nil {
		return 0, err
	}
	b, err := fs.c.Alloc(phys)
	if err != nil {
		return 0, err
	}
	for i := range b.Data {
		b.Data[i] = 0
	}
	// Ordered growth under synchronous metadata: the zeroed inode block
	// and the map pointer reaching it must be durable before any inode
	// written into the block, or a crash strands that inode.
	if fs.opts.Mode == ModeSync {
		if err := fs.c.WriteSync(b); err != nil {
			b.Release()
			return 0, err
		}
	} else {
		fs.c.MarkDirty(b)
	}
	b.Release()
	fileBlk := fs.sb.ExtBlocks
	mapBlk := int64(1 + fileBlk/layout.PtrsPerBlock)
	mb, err := fs.c.Read(mapBlk)
	if err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint32(mb.Data[(fileBlk%layout.PtrsPerBlock)*4:], uint32(phys))
	if err := fs.syncMeta(mb); err != nil {
		mb.Release()
		return 0, err
	}
	mb.Release()
	fs.sb.ExtBlocks++
	fs.sbDirty = true
	if fs.opts.Mode == ModeSync {
		// The superblock's inode-file length is part of the reachability
		// chain; complete the ordered growth.
		sbBuf, err := fs.c.Read(0)
		if err != nil {
			return 0, err
		}
		fs.sb.encode(sbBuf.Data)
		fs.sbDirty = false
		if err := fs.c.WriteSync(sbBuf); err != nil {
			sbBuf.Release()
			return 0, err
		}
		sbBuf.Release()
	}
	fs.extBlkPhys = append(fs.extBlkPhys, phys)
	for len(fs.extFree)*64 < fs.sb.ExtBlocks*extInosPerBlock {
		fs.extFree = append(fs.extFree, 0)
	}
	idx := fileBlk * extInosPerBlock
	fs.extFree[idx/64] |= 1 << (idx % 64)
	return idx, nil
}

// findExtSlot returns a free slot in an inode-file block residing in ag
// (or in any block when ag < 0), claiming it; -1 if none.
func (fs *FS) findExtSlot(ag int) int {
	for fb := 0; fb < fs.sb.ExtBlocks; fb++ {
		if ag >= 0 && fs.agOf(fs.extBlkPhys[fb]) != ag {
			continue
		}
		base := fb * extInosPerBlock
		for s := 0; s < extInosPerBlock; s++ {
			idx := base + s
			if fs.extFree[idx/64]&(1<<(idx%64)) == 0 {
				fs.extFree[idx/64] |= 1 << (idx % 64)
				return idx
			}
		}
	}
	return -1
}

// freeExtInode releases a slot in the in-memory map (the on-disk inode
// is zeroed by the caller, which is what mount rescans).
func (fs *FS) freeExtInode(idx int) {
	fs.extFree[idx/64] &^= 1 << (idx % 64)
}

// scanExtInodes rebuilds the in-memory free map and the inode-file
// block locations from the inode file.
func (fs *FS) scanExtInodes() error {
	n := fs.sb.ExtBlocks * extInosPerBlock
	fs.extFree = make([]uint64, (n+63)/64)
	fs.extBlkPhys = fs.extBlkPhys[:0]
	for idx := 0; idx < n; idx += extInosPerBlock {
		phys, _, err := fs.extLoc(idx)
		if err != nil {
			return err
		}
		fs.extBlkPhys = append(fs.extBlkPhys, phys)
		b, err := fs.c.Read(phys)
		if err != nil {
			return err
		}
		for s := 0; s < extInosPerBlock; s++ {
			var in layout.Inode
			in.Decode(b.Data[s*layout.InodeSize:])
			if in.Alive() {
				fs.extFree[(idx+s)/64] |= 1 << ((idx + s) % 64)
			}
		}
		b.Release()
	}
	return nil
}

// inodeBuf returns the pinned buffer and byte offset holding ino's
// on-disk bytes, verifying an embedded ino still names a live entry.
func (fs *FS) inodeBuf(ino vfs.Ino) (*cache.Buf, int, error) {
	if ino == 0 {
		return nil, 0, vfs.ErrInvalid
	}
	if isEmbedded(ino) {
		block, slot := embedLoc(ino)
		if block <= 0 || block >= fs.sb.NBlocks || slot >= slotsPerBlock {
			return nil, 0, fmt.Errorf("cffs: embedded ino %#x: %w", uint64(ino), vfs.ErrInvalid)
		}
		b, err := fs.c.Read(block)
		if err != nil {
			return nil, 0, err
		}
		off := slot * slotSize
		if !slotEmbedded(b.Data, off) {
			b.Release()
			return nil, 0, fmt.Errorf("cffs: stale embedded ino %#x: %w", uint64(ino), vfs.ErrNotExist)
		}
		fs.mEmbHits.Inc()
		return b, off + slotInodeOff, nil
	}
	phys, slot, err := fs.extLoc(extIdx(ino))
	if err != nil {
		return nil, 0, err
	}
	b, err := fs.c.Read(phys)
	if err != nil {
		return nil, 0, err
	}
	fs.mExtReads.Inc()
	return b, slot * layout.InodeSize, nil
}

// getInode reads an inode.
func (fs *FS) getInode(ino vfs.Ino) (layout.Inode, error) {
	var in layout.Inode
	b, off, err := fs.inodeBuf(ino)
	if err != nil {
		return in, err
	}
	in.Decode(b.Data[off:])
	b.Release()
	return in, nil
}

// getLiveInode is getInode plus an existence check.
func (fs *FS) getLiveInode(ino vfs.Ino) (layout.Inode, error) {
	in, err := fs.getInode(ino)
	if err != nil {
		return in, err
	}
	if !in.Alive() {
		return in, fmt.Errorf("cffs: inode %#x: %w", uint64(ino), vfs.ErrNotExist)
	}
	return in, nil
}

// putInode writes an inode back; sync forces the ordered write in
// ModeSync. For an embedded inode this dirties (or synchronously
// rewrites) the directory block itself — the name and inode always
// travel together.
func (fs *FS) putInode(ino vfs.Ino, in *layout.Inode, sync bool) error {
	b, off, err := fs.inodeBuf(ino)
	if err != nil {
		return err
	}
	in.Encode(b.Data[off:])
	if sync {
		err = fs.syncMeta(b)
	} else {
		fs.c.MarkDirty(b)
	}
	b.Release()
	return err
}
