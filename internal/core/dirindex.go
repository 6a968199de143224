package core

import (
	"cffs/internal/blockio"
	"cffs/internal/cache"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// Directory hash index (see internal/layout/dirindex.go for the block
// format). The slot array stays authoritative; the index is a redundant
// acceleration structure so dirLookup, dirFindFree, and dirIsEmpty on
// big directories become O(1) probes instead of forEachSlot scans.
//
// Invariants and trust:
//
//   - Index blocks are written lazily (MarkDirty, never ordered), even
//     in ModeSync. Correctness never depends on them being durable.
//   - The superblock carries an "unclean" flag, set by the first
//     mutation of a mount and cleared by Close (and by a successful
//     fsck repair). An index found on disk is trusted only when the
//     previous mount ended cleanly; otherwise reads fall back to the
//     linear scan and the first mutation of that directory rebuilds the
//     index from its slots before maintaining it.
//   - fsck verifies every index against the slot array (exact
//     bijection) and repairs by dropping the root pointer and
//     rebuilding — the structure is redundant, so repair is always
//     possible.
//
// Index blocks live outside the directory's bmap tree (truncate must
// not see them), allocated group-adjacent via the scattered allocator
// with the directory's home AG as preference, so the grouping story of
// the paper is preserved: a directory's names, embedded inodes, and
// index stay physically close.

// dirIndexMinBlocks is the default directory size, in blocks, above
// which an index is built (Options.DirIndexBlocks overrides). The
// floor matters: a directory this small is normally cache-resident, so
// its linear scan costs no disk requests at all, while the index adds
// cold root/bucket probes and maintenance writes — pure overhead. At
// eight blocks (128 slots) the linear scan starts to rival a cold
// 3-probe index chain even when resident, and beyond it the index
// wins outright.
const dirIndexMinBlocks = 8

// idxLoc packs a slot position the way index entries store it.
func idxLoc(block int64, slot int) uint32 { return uint32(block)<<4 | uint32(slot) }

func idxLocBlock(loc uint32) int64 { return int64(loc >> 4) }
func idxLocSlot(loc uint32) int    { return int(loc & (slotsPerBlock - 1)) }

// dirIndexThreshold is the configured block-count threshold; <0 means
// indexing is disabled.
func (fs *FS) dirIndexThreshold() int {
	switch {
	case fs.opts.DirIndexBlocks > 0:
		return fs.opts.DirIndexBlocks
	case fs.opts.DirIndexBlocks == 0:
		return dirIndexMinBlocks
	default:
		return -1
	}
}

// idxTrusted reports whether dir's on-disk index may be believed: the
// previous mount ended cleanly, or this mount already rebuilt it.
// Safe under fs.mu held shared.
func (fs *FS) idxTrusted(dir vfs.Ino) bool {
	if fs.wasClean {
		return true
	}
	fs.idxMu.Lock()
	_, ok := fs.idxFresh[dir]
	fs.idxMu.Unlock()
	return ok
}

func (fs *FS) idxMarkFresh(dir vfs.Ino) {
	if fs.wasClean {
		return
	}
	fs.idxMu.Lock()
	if fs.idxFresh == nil {
		fs.idxFresh = make(map[vfs.Ino]struct{})
	}
	fs.idxFresh[dir] = struct{}{}
	fs.idxMu.Unlock()
}

func (fs *FS) idxForget(dir vfs.Ino) {
	if fs.wasClean {
		return
	}
	fs.idxMu.Lock()
	delete(fs.idxFresh, dir)
	fs.idxMu.Unlock()
}

// idxValidPhys bounds-checks a physical block number read from an index
// structure before it is dereferenced.
func (fs *FS) idxValidPhys(phys int64) bool {
	return phys > int64(mapBlocks) && phys < fs.sb.NBlocks
}

// idxLookup probes dir's index for name. usable=false means the index
// was structurally implausible and the caller must fall back to the
// linear scan (and must not report the name missing). On found, the
// returned buffer holds the slot block, pinned.
func (fs *FS) idxLookup(in *layout.Inode, dir vfs.Ino, name string) (b *cache.Buf, e slotEntry, found, usable bool, err error) {
	rootPhys := int64(in.DirIndexRootPtr())
	if !fs.idxValidPhys(rootPhys) {
		return nil, slotEntry{}, false, false, nil
	}
	rb, err := fs.c.Read(rootPhys)
	if err != nil {
		return nil, slotEntry{}, false, false, err
	}
	root, ok := layout.DecodeDirIndexRoot(rb.Data)
	if !ok {
		rb.Release()
		return nil, slotEntry{}, false, false, nil
	}
	h := layout.DirNameHash(name)
	bkPhys := int64(layout.DirIndexBucketPtr(rb.Data, int(h%root.NBuckets)))
	rb.Release()
	if !fs.idxValidPhys(bkPhys) {
		return nil, slotEntry{}, false, false, nil
	}
	bb, err := fs.c.Read(bkPhys)
	if err != nil {
		return nil, slotEntry{}, false, false, err
	}
	fs.mIdxProbes.Inc()
	for k := 0; k < layout.DirIndexBucketEntries; k++ {
		eh, loc := layout.DirIndexEntry(bb.Data, k)
		if loc == 0 || eh != h {
			continue
		}
		phys := idxLocBlock(loc)
		if !fs.idxValidPhys(phys) {
			bb.Release()
			return nil, slotEntry{}, false, false, nil
		}
		sb, err := fs.readDirBlock(phys)
		if err != nil {
			bb.Release()
			return nil, slotEntry{}, false, false, err
		}
		off := idxLocSlot(loc) * slotSize
		if slotUsed(sb.Data, off) {
			se := readSlot(sb.Data, off, phys, idxLocSlot(loc))
			if string(se.name) == name {
				bb.Release()
				return sb, se, true, true, nil
			}
		}
		sb.Release()
	}
	bb.Release()
	return nil, slotEntry{}, false, true, nil
}

// idxEmpty answers dirIsEmpty from the index. ok=false means fall back
// to the scan.
func (fs *FS) idxEmpty(in *layout.Inode) (empty, ok bool, err error) {
	rootPhys := int64(in.DirIndexRootPtr())
	if !fs.idxValidPhys(rootPhys) {
		return false, false, nil
	}
	rb, err := fs.c.Read(rootPhys)
	if err != nil {
		return false, false, err
	}
	root, decOK := layout.DecodeDirIndexRoot(rb.Data)
	rb.Release()
	if !decOK {
		return false, false, nil
	}
	return root.NEntries <= 2, true, nil
}

// idxFindFree locates a free slot using the index: when the directory
// is slot-full it says so without any scan (grow=true), otherwise it
// next-fits from the root's free hint. ok=false means the index was
// unusable and the caller scans linearly.
func (fs *FS) idxFindFree(in *layout.Inode, dir vfs.Ino) (b *cache.Buf, e slotEntry, grow, ok bool, err error) {
	rootPhys := int64(in.DirIndexRootPtr())
	if !fs.idxValidPhys(rootPhys) {
		return nil, slotEntry{}, false, false, nil
	}
	rb, err := fs.c.Read(rootPhys)
	if err != nil {
		return nil, slotEntry{}, false, false, err
	}
	root, decOK := layout.DecodeDirIndexRoot(rb.Data)
	if !decOK {
		rb.Release()
		return nil, slotEntry{}, false, false, nil
	}
	nblocks := in.Size / blockio.BlockSize
	if int64(root.NEntries) >= nblocks*slotsPerBlock {
		rb.Release()
		return nil, slotEntry{}, true, true, nil
	}
	// Next-fit: start at the hinted logical block, wrap around.
	startLB := int64(0)
	if root.FreeHint != 0 {
		if lb, okLB := fs.idxHintLB(in, dir, root.FreeHint, nblocks); okLB {
			startLB = lb
		}
	}
	rb.Release()
	for i := int64(0); i < nblocks; i++ {
		lb := (startLB + i) % nblocks
		phys, err := fs.tree.Resolve(in, lb)
		if err != nil {
			return nil, slotEntry{}, false, false, err
		}
		if phys == 0 {
			return nil, slotEntry{}, false, false, nil
		}
		sb, err := fs.readDirBlock(phys)
		if err != nil {
			return nil, slotEntry{}, false, false, err
		}
		for s := 0; s < slotsPerBlock; s++ {
			if !slotUsed(sb.Data, s*slotSize) {
				return sb, slotEntry{block: phys, slot: s}, false, true, nil
			}
		}
		sb.Release()
	}
	// The entry count promised a free slot but none was found: the
	// index is inconsistent. Fall back to the linear path.
	return nil, slotEntry{}, false, false, nil
}

// idxHintLB maps a free-hint loc back to a logical block of the
// directory, so the next-fit scan can start there.
func (fs *FS) idxHintLB(in *layout.Inode, dir vfs.Ino, hint uint32, nblocks int64) (int64, bool) {
	want := idxLocBlock(hint)
	for lb := int64(0); lb < nblocks; lb++ {
		phys, err := fs.tree.Resolve(in, lb)
		if err != nil || phys == 0 {
			return 0, false
		}
		if phys == want {
			return lb, true
		}
	}
	return 0, false
}

// idxSetHint records loc as a likely-free slot in the root (best
// effort, delayed write).
func (fs *FS) idxSetHint(in *layout.Inode, loc uint32) {
	rootPhys := int64(in.DirIndexRootPtr())
	if !fs.idxValidPhys(rootPhys) {
		return
	}
	rb, err := fs.c.Read(rootPhys)
	if err != nil {
		return
	}
	if root, ok := layout.DecodeDirIndexRoot(rb.Data); ok {
		root.FreeHint = loc
		root.Encode(rb.Data)
		fs.c.MarkDirty(rb)
	}
	rb.Release()
}

// idxInsert records a just-written slot in dir's index. On an untrusted
// index it rebuilds instead (the slot array already contains the new
// entry). A full bucket triggers a rebuild with more buckets; at the
// bucket ceiling the index is dropped and the directory goes linear.
// The write lock is held.
func (fs *FS) idxInsert(in *layout.Inode, dir vfs.Ino, name string, loc uint32) error {
	rootPhys := int64(in.DirIndexRootPtr())
	if rootPhys == 0 {
		return nil
	}
	if !fs.idxTrusted(dir) {
		return fs.idxRebuild(in, dir, 0)
	}
	if !fs.idxValidPhys(rootPhys) {
		return fs.idxRebuild(in, dir, 0)
	}
	rb, err := fs.c.Read(rootPhys)
	if err != nil {
		return err
	}
	root, ok := layout.DecodeDirIndexRoot(rb.Data)
	if !ok {
		rb.Release()
		return fs.idxRebuild(in, dir, 0)
	}
	h := layout.DirNameHash(name)
	bkPhys := int64(layout.DirIndexBucketPtr(rb.Data, int(h%root.NBuckets)))
	if !fs.idxValidPhys(bkPhys) {
		rb.Release()
		return fs.idxRebuild(in, dir, 0)
	}
	bb, err := fs.c.Read(bkPhys)
	if err != nil {
		rb.Release()
		return err
	}
	for k := 0; k < layout.DirIndexBucketEntries; k++ {
		if _, eloc := layout.DirIndexEntry(bb.Data, k); eloc == 0 {
			layout.SetDirIndexEntry(bb.Data, k, h, loc)
			fs.c.MarkDirty(bb)
			bb.Release()
			root.NEntries++
			root.Encode(rb.Data)
			fs.c.MarkDirty(rb)
			rb.Release()
			return nil
		}
	}
	bb.Release()
	rb.Release()
	// Bucket overflow: rebuild wider, or drop at the ceiling.
	if int(root.NBuckets)*2 > layout.DirIndexMaxBuckets {
		return fs.idxDrop(in, dir, true)
	}
	return fs.idxRebuild(in, dir, int(root.NBuckets)*2)
}

// idxRemove drops a just-cleared slot from dir's index. On an untrusted
// index it rebuilds from the (already updated) slot array instead. The
// write lock is held.
func (fs *FS) idxRemove(in *layout.Inode, dir vfs.Ino, name string, loc uint32) error {
	rootPhys := int64(in.DirIndexRootPtr())
	if rootPhys == 0 {
		return nil
	}
	if !fs.idxTrusted(dir) {
		return fs.idxRebuild(in, dir, 0)
	}
	if !fs.idxValidPhys(rootPhys) {
		return fs.idxRebuild(in, dir, 0)
	}
	rb, err := fs.c.Read(rootPhys)
	if err != nil {
		return err
	}
	root, ok := layout.DecodeDirIndexRoot(rb.Data)
	if !ok {
		rb.Release()
		return fs.idxRebuild(in, dir, 0)
	}
	h := layout.DirNameHash(name)
	bkPhys := int64(layout.DirIndexBucketPtr(rb.Data, int(h%root.NBuckets)))
	if !fs.idxValidPhys(bkPhys) {
		rb.Release()
		return fs.idxRebuild(in, dir, 0)
	}
	bb, err := fs.c.Read(bkPhys)
	if err != nil {
		rb.Release()
		return err
	}
	for k := 0; k < layout.DirIndexBucketEntries; k++ {
		if eh, eloc := layout.DirIndexEntry(bb.Data, k); eloc == loc && eh == h {
			layout.SetDirIndexEntry(bb.Data, k, 0, 0)
			fs.c.MarkDirty(bb)
			bb.Release()
			root.NEntries--
			root.FreeHint = loc
			root.Encode(rb.Data)
			fs.c.MarkDirty(rb)
			rb.Release()
			return nil
		}
	}
	bb.Release()
	rb.Release()
	// The entry should have been there: the index lost sync. Rebuild.
	return fs.idxRebuild(in, dir, 0)
}

// idxMaybeBuild builds an index for a directory that just crossed the
// size threshold (or, after an unclean mount, re-earns trust on its
// first mutation). Best effort: allocation failure leaves the
// directory linear. The write lock is held.
func (fs *FS) idxMaybeBuild(in *layout.Inode, dir vfs.Ino) error {
	thr := fs.dirIndexThreshold()
	if thr < 0 || in.DirIndexRootPtr() != 0 {
		return nil
	}
	if in.Size/blockio.BlockSize <= int64(thr) {
		return nil
	}
	return fs.idxRebuild(in, dir, 0)
}

// idxRebuild (re)builds dir's index from its slot array: allocate fresh
// blocks, fill them, swing the inode's root pointer. When the old index
// was trusted its blocks are freed; an untrusted old index's pointers
// cannot be believed, so its blocks are left for fsck to reclaim.
// minBuckets widens the table beyond the size-derived default (bucket
// overflow escalation). The write lock is held.
func (fs *FS) idxRebuild(in *layout.Inode, dir vfs.Ino, minBuckets int) error {
	if fs.dirIndexThreshold() < 0 {
		return nil
	}
	return fs.idxBuild(in, dir, minBuckets)
}

// idxBuild is idxRebuild without the enable guard. fsck repairs through
// it: the checker mounts with indexing disabled (so nothing builds
// indexes mid-walk from possibly-stale allocation state) and rebuilds
// explicitly after the allocation rewrite.
func (fs *FS) idxBuild(in *layout.Inode, dir vfs.Ino, minBuckets int) error {
	if in.DirIndexRootPtr() != 0 {
		if err := fs.idxDrop(in, dir, fs.idxTrusted(dir)); err != nil {
			return err
		}
	}
	nslots := in.Size / slotSize
	nbuckets := 2
	for int64(nbuckets)*layout.DirIndexBucketEntries/4 < nslots {
		nbuckets *= 2
	}
	if nbuckets < minBuckets {
		nbuckets = minBuckets
	}
	if nbuckets > layout.DirIndexMaxBuckets {
		nbuckets = layout.DirIndexMaxBuckets
	}

	// Gather (hash, loc) for every live slot.
	type pair struct{ h, loc uint32 }
	buckets := make([][]pair, nbuckets)
	var bad bool
	_, err := fs.forEachSlot(in, dir, func(_ *cache.Buf, e slotEntry, used bool) bool {
		if !used {
			return false
		}
		if e.block >= 1<<28 {
			bad = true // loc cannot encode the block; stay linear
			return true
		}
		h := layout.DirNameHash(e.name)
		k := int(h % uint32(nbuckets))
		buckets[k] = append(buckets[k], pair{h, idxLoc(e.block, e.slot)})
		return false
	})
	if err != nil || bad {
		return err
	}
	for k := range buckets {
		if len(buckets[k]) > layout.DirIndexBucketEntries {
			return nil // pathological skew; stay linear
		}
	}

	// Allocate and fill. Allocation failure (e.g. a full disk) is not an
	// error — the directory simply stays linear.
	prefAG := fs.homeAG(in, dir)
	rootPhys, err := fs.allocScattered(prefAG, dir)
	if err != nil {
		return nil
	}
	allocated := []int64{rootPhys}
	abort := func() {
		for _, p := range allocated {
			fs.freeBlock(p, nil)
		}
	}
	rb, err := fs.c.Alloc(rootPhys)
	if err != nil {
		abort()
		return err
	}
	for i := range rb.Data {
		rb.Data[i] = 0
	}
	var nentries uint32
	for k := 0; k < nbuckets; k++ {
		bkPhys, err := fs.allocScattered(prefAG, dir)
		if err != nil {
			rb.Release()
			abort()
			return nil
		}
		allocated = append(allocated, bkPhys)
		bb, err := fs.c.Alloc(bkPhys)
		if err != nil {
			rb.Release()
			abort()
			return err
		}
		for i := range bb.Data {
			bb.Data[i] = 0
		}
		for j, p := range buckets[k] {
			layout.SetDirIndexEntry(bb.Data, j, p.h, p.loc)
			nentries++
		}
		fs.c.MarkDirty(bb)
		bb.Release()
		layout.SetDirIndexBucketPtr(rb.Data, k, uint32(bkPhys))
	}
	layout.DirIndexRoot{NBuckets: uint32(nbuckets), NEntries: nentries}.Encode(rb.Data)
	fs.c.MarkDirty(rb)
	rb.Release()

	in.SetDirIndexRootPtr(uint32(rootPhys))
	if err := fs.putInode(dir, in, false); err != nil {
		return err
	}
	fs.idxMarkFresh(dir)
	fs.mIdxRebuilds.Inc()
	return nil
}

// idxDrop detaches and (when the index is trusted, so its pointers are
// believable) frees dir's index blocks. Untrusted blocks are leaked to
// fsck, which reclaims anything unreferenced. The write lock is held.
func (fs *FS) idxDrop(in *layout.Inode, dir vfs.Ino, trusted bool) error {
	rootPhys := int64(in.DirIndexRootPtr())
	if rootPhys == 0 {
		return nil
	}
	in.SetDirIndexRootPtr(0)
	fs.idxForget(dir)
	if err := fs.putInode(dir, in, false); err != nil {
		return err
	}
	if !trusted || !fs.idxValidPhys(rootPhys) {
		return nil
	}
	rb, err := fs.c.Read(rootPhys)
	if err != nil {
		return err
	}
	root, ok := layout.DecodeDirIndexRoot(rb.Data)
	var bucketPhys []int64
	if ok {
		for k := 0; k < int(root.NBuckets); k++ {
			if p := int64(layout.DirIndexBucketPtr(rb.Data, k)); fs.idxValidPhys(p) {
				bucketPhys = append(bucketPhys, p)
			}
		}
	}
	rb.Release()
	for _, p := range bucketPhys {
		if err := fs.freeBlock(p, nil); err != nil {
			return err
		}
	}
	return fs.freeBlock(rootPhys, nil)
}
