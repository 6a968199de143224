package lfs

import (
	"encoding/binary"
	"fmt"

	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// The log: segment allocation, liveness accounting, and the cleaner.

// segOf returns the segment index of a log block address.
func (fs *FS) segOf(addr int64) int {
	return int((addr - fs.segStart) / SegBlocks)
}

// account records addr as live and owned.
func (fs *FS) account(addr int64, ow owner) {
	if _, ok := fs.owners[addr]; !ok {
		fs.usage[fs.segOf(addr)]++
	}
	fs.owners[addr] = ow
}

// dead releases a log block (its segment's live count drops; the block
// becomes reclaimable when the segment is cleaned or recycled).
func (fs *FS) dead(addr int64) {
	if addr == 0 {
		return
	}
	if _, ok := fs.owners[addr]; ok {
		fs.unaccount(addr)
	}
	fs.c.Invalidate(addr)
}

// unaccount removes a live block from the reverse map and its segment's
// count, noting a segment that just emptied for the next checkpoint.
func (fs *FS) unaccount(addr int64) {
	delete(fs.owners, addr)
	seg := fs.segOf(addr)
	fs.usage[seg]--
	if fs.usage[seg] == 0 {
		fs.emptied[seg] = true
	}
}

// discardEmptied tells the device that the segments emptied since the
// last checkpoint hold nothing, one command per segment. Sync calls it
// right after the checkpoint write, and no earlier: until then the
// durable checkpoint still reaches the blocks that died in memory, and a
// crash rolls back to it. After it, nothing durable references an empty
// segment, which is the state in which the log may write over it — so
// it is the state in which it may be discarded. A segment the log has
// refilled in the meantime is no longer empty and is dropped from the
// set; the log head itself waits for a later checkpoint.
func (fs *FS) discardEmptied() error {
	for seg, was := range fs.emptied {
		if !was || seg == fs.curSeg {
			continue
		}
		fs.emptied[seg] = false
		if fs.usage[seg] != 0 {
			continue
		}
		if err := fs.dev.DiscardBlocks(fs.segStart+int64(seg)*SegBlocks, SegBlocks); err != nil {
			return err
		}
	}
	return nil
}

// freeSegments counts completely dead segments (excluding the one being
// filled).
func (fs *FS) freeSegments() int {
	n := 0
	for s, u := range fs.usage {
		if u == 0 && s != fs.curSeg {
			n++
		}
	}
	return n
}

// allocLog claims the next log block for ow, advancing segments and
// cleaning as needed.
func (fs *FS) allocLog(ow owner) (int64, error) {
	if fs.curOff >= SegBlocks {
		if err := fs.advanceSegment(); err != nil {
			return 0, err
		}
	}
	addr := fs.segStart + int64(fs.curSeg)*SegBlocks + int64(fs.curOff)
	fs.curOff++
	fs.account(addr, ow)
	return addr, nil
}

// advanceSegment moves the log head to a free segment, running the
// cleaner when the reserve runs low.
func (fs *FS) advanceSegment() error {
	if !fs.cleaning && fs.freeSegments() <= cleanReserve {
		if err := fs.clean(); err != nil {
			return err
		}
	}
	for k := 1; k <= fs.nsegs; k++ {
		s := (fs.curSeg + k) % fs.nsegs
		if fs.usage[s] == 0 {
			fs.curSeg = s
			fs.curOff = 0
			return nil
		}
	}
	return fmt.Errorf("lfs: %w: log full", vfs.ErrNoSpace)
}

// clean copies live blocks out of the lowest-utilization segments until
// a comfortable number of segments is free — the greedy policy of the
// original LFS paper.
func (fs *FS) clean() error {
	fs.cleaning = true
	defer func() { fs.cleaning = false }()

	for rounds := 0; fs.freeSegments() < 2*cleanReserve && rounds < fs.nsegs; rounds++ {
		victim := -1
		best := SegBlocks + 1
		for s, u := range fs.usage {
			if s == fs.curSeg || u == 0 {
				continue
			}
			if u < best {
				best = u
				victim = s
			}
		}
		if victim < 0 {
			break // nothing cleanable
		}
		if err := fs.cleanSegment(victim); err != nil {
			return err
		}
	}
	if fs.freeSegments() == 0 {
		return fmt.Errorf("lfs: %w: cleaner could not free a segment", vfs.ErrNoSpace)
	}
	return nil
}

// cleanSegment relocates every live block of a segment to the log head.
func (fs *FS) cleanSegment(seg int) error {
	start := fs.segStart + int64(seg)*SegBlocks
	for off := int64(0); off < SegBlocks; off++ {
		addr := start + off
		ow, live := fs.owners[addr]
		if !live {
			continue
		}
		if err := fs.relocate(addr, ow); err != nil {
			return err
		}
	}
	return nil
}

// relocate copies one live block to the log head and repoints whatever
// references it.
func (fs *FS) relocate(addr int64, ow owner) error {
	src, err := fs.c.Read(addr)
	if err != nil {
		return err
	}
	data := make([]byte, len(src.Data))
	copy(data, src.Data)
	src.Release()

	// Claim the new home. Remove the old accounting first so allocLog
	// can never hand the victim's own block back.
	fs.unaccount(addr)
	fs.c.Invalidate(addr)
	dst, err := fs.allocLog(ow)
	if err != nil {
		return err
	}
	b, err := fs.c.Alloc(dst)
	if err != nil {
		return err
	}
	copy(b.Data, data)
	fs.c.MarkDirty(b)
	b.Release()

	return fs.repoint(ow, addr, dst)
}

// repoint updates the reference to a moved block.
func (fs *FS) repoint(ow owner, old, dst int64) error {
	switch ow.kind {
	case ownData:
		in, err := fs.getInode(ow.ino)
		if err != nil {
			return err
		}
		if err := fs.setMapping(in, ow.idx, uint32(dst)); err != nil {
			return err
		}
		fs.dirty[ow.ino] = true
	case ownIndir1:
		in, err := fs.getInode(ow.ino)
		if err != nil {
			return err
		}
		in.Indir = uint32(dst)
		fs.dirty[ow.ino] = true
	case ownDIndir:
		in, err := fs.getInode(ow.ino)
		if err != nil {
			return err
		}
		in.DIndir = uint32(dst)
		fs.dirty[ow.ino] = true
	case ownIndir2:
		in, err := fs.getInode(ow.ino)
		if err != nil {
			return err
		}
		db, err := fs.c.Read(int64(in.DIndir))
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(db.Data[int(ow.idx)*4:], uint32(dst))
		fs.c.MarkDirty(db)
		db.Release()
	case ownInodeBlock:
		// Inode blocks are repointed via the imap: every inode whose
		// home was the old block moves to the new one (slot preserved).
		for idx, e := range fs.imap {
			if e == 0 {
				continue
			}
			a, slot := imapAddr(e)
			if a == old {
				fs.imap[idx] = imapEntry(dst, slot)
				fs.markImapDirty(idx)
			}
		}
		fs.inoRefs[dst] = fs.inoRefs[old]
		delete(fs.inoRefs, old)
	case ownImapBlock:
		fs.imapHome[ow.idx] = uint32(dst)
		// The checkpoint is rewritten at the next Sync.
	default:
		return fmt.Errorf("lfs: relocate of unknown owner kind %d", ow.kind)
	}
	return nil
}

// setMapping points file block lb of an inode at a new log address. The
// pointer blocks on the way must exist: the writer has just ensured
// them, and the cleaner moves only blocks the tree already reaches.
func (fs *FS) setMapping(in *layout.Inode, lb int64, addr uint32) error {
	ok, err := fs.tree.SetMapping(in, lb, addr)
	if err == nil && !ok {
		err = fmt.Errorf("lfs: file block %d mapped through a missing pointer block", lb)
	}
	return err
}
