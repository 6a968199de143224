package core

import (
	"fmt"

	"cffs/internal/blockio"
	"cffs/internal/cache"
	"cffs/internal/fsck"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// Check is the offline consistency checker for C-FFS images. The
// algorithm is fsck.Run's; this file supplies what the C-FFS format
// makes different. An embedded inode has no location of its own, so it
// is reached — and, when damaged, cleared — only through the directory
// slot that holds it: the recovery strategy the paper describes. Beyond
// the engine's shared checks this layout adds group descriptors (used
// bits only on referenced blocks, no owner without blocks: groupState),
// directory indexes (an exact bijection with the slots they index,
// dropped when wrong or made stale by a repair, rebuilt once allocation
// is sound: the hooks) and the unclean flag, cleared once the image
// verifies end to end.
func Check(dev *blockio.Device, repair bool) (*fsck.Report, error) {
	// Indexing is disabled on the checker's own mount, and on-disk
	// indexes are distrusted regardless of the clean flag: fsck's own
	// directory operations (addEntry) must not follow or build index
	// structures while the allocation state is still suspect.
	fs, err := Mount(dev, Options{DirIndexBlocks: -1})
	if err != nil {
		return nil, err
	}
	fs.wasClean = false
	ck := &checker{fs: fs, rebuild: make(map[vfs.Ino]bool)}
	return fsck.Run(&fsck.Layout{
		FS: "cffs", Cache: fs.c, Root: RootIno,
		Blocks: fs.sb.NBlocks, Groups: fs.sb.NAG, GroupStart: fs.sb.agStart(0),
		GroupBlocks: fs.sb.AGBlocks, BitmapOff: agBmapOff,
		ClaimFixed:   ck.claimFixed,
		GetInode:     fs.getInode,
		PutInode:     func(ino vfs.Ino, in *layout.Inode) error { return fs.putInode(ino, in, false) },
		ClearMapping: fs.tree.ClearMapping,
		Entries:      ck.entries, PutEntry: putEntry, AddEntry: ck.addEntry,
		Inodes: ck.inodes, ZeroInode: ck.zeroInode,
		GroupState: ck.groupState,
		Walked:     ck.checkIndexes, Applied: ck.dropIndexes,
		Rebuilt: ck.rebuildIndexes, Verified: ck.markVerified,
	}, repair)
}

// checker carries the C-FFS side of a check: the methods behind the
// fsck.Layout above, and the index state its hooks pass between the
// engine's phases.
type checker struct {
	fs        *FS
	idxChecks []idxCheck       // indexes the current walk queued for verification
	rebuild   map[vfs.Ino]bool // indexes dropped by any pass, to rebuild at the end
}

// idxCheck is one directory index awaiting verification: the slot
// population the walk saw (loc → name hash), to be matched against the
// index structure after every file's blocks are claimed — real data
// must win any collision with a corrupt index pointer.
type idxCheck struct {
	dir   vfs.Ino
	root  int64
	slots map[uint32]uint32
}

func (ck *checker) claimFixed(w *fsck.Walk) error {
	fs := ck.fs
	w.Claim(0, "superblock")
	for b := int64(1); b <= mapBlocks; b++ {
		w.Claim(b, "inode map")
	}
	for ag := 0; ag < fs.sb.NAG; ag++ {
		w.Claim(fs.sb.agStart(ag), fmt.Sprintf("ag %d header", ag))
	}
	for fb := 0; fb < fs.sb.ExtBlocks; fb++ {
		phys, _, err := fs.extLoc(fb * extInosPerBlock)
		if err != nil {
			return err
		}
		w.Claim(phys, fmt.Sprintf("inode-file block %d", fb))
	}
	return nil
}

// entries decodes a directory's used slots. For an indexed directory it
// also queues the slot population for checkIndexes.
func (ck *checker) entries(in *layout.Inode, dir vfs.Ino, fn func(fsck.Entry)) error {
	root := int64(in.DirIndexRootPtr())
	locs := make(map[uint32]uint32)
	_, err := ck.fs.forEachSlot(in, dir, func(_ *cache.Buf, e slotEntry, used bool) bool {
		if !used {
			return false
		}
		if root != 0 && e.block < 1<<28 {
			locs[idxLoc(e.block, e.slot)] = layout.DirNameHash(e.name)
		}
		fn(fsck.Entry{Name: string(e.name), Ino: e.ino(), Type: e.ftype, Embedded: e.embedded,
			Loc: fsck.Loc{Block: e.block, Off: e.slot * slotSize, Len: slotSize}})
		return false
	})
	if err == nil && root != 0 {
		ck.idxChecks = append(ck.idxChecks, idxCheck{dir: dir, root: root, slots: locs})
	}
	return err
}

// putEntry overwrites one slot: an external-reference entry, or zeros.
func putEntry(block []byte, l fsck.Loc, name string, target vfs.Ino) {
	if target == 0 {
		clearSlot(block, l.Off)
	} else {
		writeSlotExternal(block, l.Off, name, target, vfs.TypeDir)
	}
}

// addEntry writes a directory reference into a free slot.
func (ck *checker) addEntry(in *layout.Inode, dir vfs.Ino, name string, target vfs.Ino) error {
	fs := ck.fs
	b, free, err := fs.dirFindFree(in, dir)
	if err != nil {
		return err
	}
	defer b.Release()
	if err := fs.putInode(dir, in, false); err != nil {
		return err
	}
	writeSlotExternal(b.Data, free.slot*slotSize, name, target, vfs.TypeDir)
	fs.c.MarkDirty(b)
	return nil
}

// inodes enumerates the inode file. Liveness is the in-memory map the
// mount built by scanning that file, so the check reads nothing twice.
func (ck *checker) inodes(fn func(ino vfs.Ino, alive bool)) {
	for idx := 0; idx < ck.fs.sb.ExtBlocks*extInosPerBlock; idx++ {
		fn(vfs.Ino(idx+1), ck.fs.extFree[idx/64]&(1<<(idx%64)) != 0)
	}
}

func (ck *checker) zeroInode(ino vfs.Ino) error {
	ck.fs.freeExtInode(extIdx(ino))
	return ck.fs.putInode(ino, &layout.Inode{}, false)
}

// groupState checks — or with rewrite set rebuilds — the group
// descriptors of one allocation group: used bits only on referenced
// blocks, no owner without blocks and no blocks without owner.
func (ck *checker) groupState(ag int, hdr *cache.Buf, w *fsck.Walk, rewrite bool) int {
	fs, n := ck.fs, 0
	for k := 0; k < fs.sb.groupsPerAG(); k++ {
		d := readDesc(hdr, k)
		start := fs.sb.groupBase(ag) + int64(k)*GroupBlocks
		fixed := d
		for i := 0; i < GroupBlocks; i++ {
			if d.Used&(1<<i) != 0 && w.Owner(start+int64(i)) == "" {
				fixed.Used &^= 1 << i
				if !rewrite && d.Owner != 0 {
					w.Problemf("ag %d group %d: grouped block %d unreferenced", ag, k, start+int64(i))
				}
			}
		}
		if fixed.Used == 0 {
			fixed.Owner = 0
		}
		switch {
		case rewrite && fixed != d:
			writeDesc(hdr, k, fixed)
			n++
		case rewrite:
		case d.Owner == 0 && d.Used != 0:
			w.Problemf("ag %d group %d: used bits without owner", ag, k)
		case d.Owner != 0 && d.Used == 0:
			w.Problemf("ag %d group %d: empty group still owned", ag, k)
		}
	}
	return n
}

// checkIndexes (the Walked hook) verifies every directory index the walk
// queued. It runs after the namespace walk so all file and metadata
// claims are in: an index block that collides with real data loses,
// invalidating the index rather than the file. A valid index's blocks
// are claimed so the bitmap cross-check sees them; an invalid one's are
// left unclaimed for the allocation rewrite to reclaim, and its
// directory is flagged for drop-and-rebuild.
func (ck *checker) checkIndexes(w *fsck.Walk) {
	for _, ic := range ck.idxChecks {
		path := w.DirPath(ic.dir)
		blocks, err := ck.verifyIndex(w, ic)
		if err != nil {
			w.FlagDir(ic.dir, "%s: directory index: %v", path, err)
		}
		for _, p := range blocks {
			w.Claim(p, path+" (dir index)")
		}
	}
	ck.idxChecks = nil
}

// verifyIndex returns the index's blocks (root first), or what is wrong
// with it: the root must decode, every bucket pointer be in range and
// unclaimed, and the entries form an exact bijection — every index entry
// names a live slot with the right hash in the right bucket, every live
// slot appears exactly once, and the stored entry count matches.
func (ck *checker) verifyIndex(w *fsck.Walk, ic idxCheck) ([]int64, error) {
	fs := ck.fs
	blocks := []int64{ic.root}
	free := func(what string, p int64) error {
		switch {
		case !fs.idxValidPhys(p):
			return fmt.Errorf("%s block %d out of range", what, p)
		case w.Owner(p) != "":
			return fmt.Errorf("%s block %d belongs to %s", what, p, w.Owner(p))
		}
		return nil
	}
	if err := free("root", ic.root); err != nil {
		return nil, err
	}
	rb, err := fs.c.Read(ic.root)
	if err != nil {
		return nil, fmt.Errorf("unreadable root block %d: %v", ic.root, err)
	}
	defer rb.Release()
	root, ok := layout.DecodeDirIndexRoot(rb.Data)
	if !ok {
		return nil, fmt.Errorf("root block %d has no valid header", ic.root)
	}
	for k := 0; k < int(root.NBuckets); k++ {
		p := int64(layout.DirIndexBucketPtr(rb.Data, k))
		if err := free(fmt.Sprintf("bucket %d", k), p); err != nil {
			return nil, err
		}
		for _, q := range blocks {
			if p == q {
				return nil, fmt.Errorf("bucket %d block %d appears twice in the index", k, p)
			}
		}
		blocks = append(blocks, p)
	}
	seen := make(map[uint32]bool)
	for k, p := range blocks[1:] {
		bb, err := fs.c.Read(p)
		if err != nil {
			return nil, fmt.Errorf("unreadable bucket %d (block %d): %v", k, p, err)
		}
		err = verifyBucket(bb.Data, ic.slots, k, root.NBuckets, seen)
		bb.Release()
		if err != nil {
			return nil, err
		}
	}
	if len(seen) != len(ic.slots) {
		return nil, fmt.Errorf("%d slots live, %d indexed", len(ic.slots), len(seen))
	}
	if uint32(len(seen)) != root.NEntries {
		return nil, fmt.Errorf("entry count %d, found %d", root.NEntries, len(seen))
	}
	return blocks, nil
}

// verifyBucket checks the entries of bucket k of n against the live
// slots, adding each to seen.
func verifyBucket(bucket []byte, slots map[uint32]uint32, k int, n uint32, seen map[uint32]bool) error {
	for j := 0; j < layout.DirIndexBucketEntries; j++ {
		h, loc := layout.DirIndexEntry(bucket, j)
		if loc == 0 {
			continue
		}
		blk, slot := idxLocBlock(loc), idxLocSlot(loc)
		switch want, live := slots[loc]; {
		case !live:
			return fmt.Errorf("entry for slot %d/%d names no live slot", blk, slot)
		case seen[loc]:
			return fmt.Errorf("slot %d/%d indexed twice", blk, slot)
		case want != h:
			return fmt.Errorf("slot %d/%d hashed %#x, index says %#x", blk, slot, want, h)
		case uint32(k) != h%n:
			return fmt.Errorf("slot %d/%d filed under bucket %d, hash says %d", blk, slot, k, h%n)
		}
		seen[loc] = true
	}
	return nil
}

// dropIndexes (the Applied hook) drops every index that failed
// verification and every index over a directory whose slots the plan
// just repaired (the repair made it stale). Only the root pointer is
// cut — the orphaned blocks fall out of the claim set and the allocation
// rewrite reclaims them.
func (ck *checker) dropIndexes(dirs map[vfs.Ino]bool) (int, error) {
	fs, n := ck.fs, 0
	for d := range dirs {
		in, err := fs.getInode(d)
		if err != nil || in.Type != vfs.TypeDir || in.DirIndexRootPtr() == 0 {
			continue
		}
		in.SetDirIndexRootPtr(0)
		if err := fs.putInode(d, &in, false); err != nil {
			return n, err
		}
		ck.rebuild[d] = true
		n++
	}
	return n, nil
}

// rebuildIndexes (the Rebuilt hook) rebuilds the dropped indexes, only
// now: building earlier would allocate from bitmaps the walk had not yet
// proven (or repaired), risking live blocks. Directories that no longer
// clear the size threshold stay linear — the runtime rebuilds them if
// they grow again.
func (ck *checker) rebuildIndexes() (int, error) {
	fs, n := ck.fs, 0
	for d := range ck.rebuild {
		in, err := fs.getInode(d)
		if err != nil || in.Type != vfs.TypeDir || in.DirIndexRootPtr() != 0 {
			continue
		}
		if in.Size/blockio.BlockSize <= dirIndexMinBlocks {
			continue
		}
		if err := fs.idxBuild(&in, d, 0); err != nil {
			return n, err
		}
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return n, fs.c.Sync()
}

// markVerified (the Verified hook): the image now verifies end to end,
// indexes included, so the unclean marker can come off — the next mount
// may trust what fsck just proved.
func (ck *checker) markVerified() (int, error) {
	fs := ck.fs
	if !fs.sb.Dirty {
		return 0, nil
	}
	fs.dirtyMarked = true
	return 1, fs.markClean()
}
