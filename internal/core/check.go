package core

import (
	"fmt"

	"cffs/internal/blockio"
	"cffs/internal/cache"
	"cffs/internal/fsck"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// Check is the offline consistency checker for C-FFS images. It finds
// every inode by walking the directory hierarchy from the root — the
// recovery strategy the paper describes for embedded inodes — and
// rebuilds the allocation state, comparing it against what is on disk:
//
//   - every block claimed by exactly one owner (file, directory,
//     indirect block, or metadata);
//   - block bitmaps match reachability (no lost or double-used blocks);
//   - group descriptors consistent: used bits only on allocated blocks,
//     owners that are live directories or emptied-out leftovers;
//   - link counts match the number of names found;
//   - "." and ".." entries well-formed;
//   - external inodes all reachable (no orphans).
//
// With repair set, Check is a recovery path, not just a detector. The
// walk collects a structural fix for each problem it can attribute to a
// specific object — dangling or duplicate entries are cleared, orphaned
// external inodes are zeroed, bad block pointers are cut, link and
// block counts rewritten, "."/".." regenerated — and the fixes are
// applied and the walk repeated until the namespace is stable. The
// allocation state (bitmaps, group descriptors) is then rebuilt from
// the repaired namespace, and one final verification walk runs; any
// problem that survives it is reported as unrepairable.
func Check(dev *blockio.Device, repair bool) (*fsck.Report, error) {
	// Indexing is disabled on the checker's own mount, and on-disk
	// indexes are distrusted regardless of the clean flag: fsck's own
	// directory operations (fixDot) must not follow or build index
	// structures while the allocation state is still suspect. Index
	// verification and rebuild are explicit phases below.
	fs, err := Mount(dev, Options{DirIndexBlocks: -1})
	if err != nil {
		return nil, err
	}
	fs.wasClean = false
	r := &fsck.Report{FS: "cffs"}
	sh, err := runWalk(fs, r)
	if err != nil {
		return nil, err
	}
	if !repair || r.Clean() {
		r.UsedBlocks = len(sh.used)
		return r, nil
	}

	// Structural passes: each fix can expose the next problem (clearing
	// a dangling entry orphans its inode), so repair iterates until a
	// walk collects no further fixes. Directory indexes dropped along
	// the way are remembered for rebuild once allocation is sound.
	cur := sh
	rebuild := make(map[vfs.Ino]bool)
	for pass := 0; pass < 4 && cur.fx.any(); pass++ {
		n, err := cur.applyFixes()
		if err != nil {
			return nil, err
		}
		for d := range cur.idxCleared {
			rebuild[d] = true
		}
		r.RepairsMade += n
		r2 := &fsck.Report{}
		if cur, err = runWalk(fs, r2); err != nil {
			return nil, err
		}
	}

	// Allocation rebuild from the repaired namespace.
	n, err := cur.rewriteAlloc()
	if err != nil {
		return nil, err
	}
	r.RepairsMade += n

	// Index rebuild, only now: building earlier would allocate from
	// bitmaps the walk had not yet proven (or repaired), risking live
	// blocks. Directories that no longer clear the size threshold stay
	// linear — the runtime rebuilds them if they grow again.
	nri := 0
	for d := range rebuild {
		in, err := fs.getInode(d)
		if err != nil || in.Type != vfs.TypeDir || in.DirIndexRootPtr() != 0 {
			continue
		}
		if in.Size/blockio.BlockSize <= dirIndexMinBlocks {
			continue
		}
		if err := fs.idxBuild(&in, d, 0); err != nil {
			return nil, err
		}
		nri++
	}
	if nri > 0 {
		r.RepairsMade += nri
		if err := fs.c.Sync(); err != nil {
			return nil, err
		}
	}

	// Verification: whatever a fresh walk still reports is beyond this
	// checker's repair power.
	rv := &fsck.Report{}
	v, err := runWalk(fs, rv)
	if err != nil {
		return nil, err
	}
	r.Unrepairable = rv.Problems
	r.UsedBlocks = len(v.used)

	// The image now verifies end to end (indexes included), so the
	// unclean marker can come off: the next mount may trust what fsck
	// just proved.
	if len(r.Unrepairable) == 0 && fs.sb.Dirty {
		fs.dirtyMarked = true
		if err := fs.markClean(); err != nil {
			return nil, err
		}
		r.RepairsMade++
	}
	return r, nil
}

// runWalk claims the metadata blocks, walks the namespace from the
// root, and cross-checks the allocation state, filling r and returning
// the walk state (used set + collected fixes).
func runWalk(fs *FS, r *fsck.Report) (*checkState, error) {
	sh := newCheckState(fs, r)
	sh.claim(0, "superblock")
	for b := int64(1); b <= mapBlocks; b++ {
		sh.claim(b, "inode map")
	}
	for ag := 0; ag < fs.sb.NAG; ag++ {
		sh.claim(fs.sb.agStart(ag), fmt.Sprintf("ag %d header", ag))
	}
	for fb := 0; fb < fs.sb.ExtBlocks; fb++ {
		phys, _, err := fs.extLoc(fb * extInosPerBlock)
		if err != nil {
			return nil, err
		}
		sh.claim(phys, fmt.Sprintf("inode-file block %d", fb))
	}
	if err := sh.walkDir(RootIno, RootIno, "/"); err != nil {
		return nil, err
	}
	sh.checkIndexes()
	sh.finish()
	return sh, nil
}

// checkIndexes verifies every directory index the walk queued. It runs
// after the namespace walk so all file and metadata claims are in: an
// index block that collides with real data loses, invalidating the
// index rather than the file. A valid index's blocks are claimed so the
// bitmap cross-check sees them; an invalid one's are left unclaimed for
// the allocation rewrite to reclaim.
func (s *checkState) checkIndexes() {
	for _, ic := range s.idxChecks {
		s.checkIndex(ic)
	}
}

// checkIndex verifies one index against the slot population its walk
// collected: a decodable root, bucket pointers in range, and an exact
// bijection — every index entry names a live slot with the right hash,
// every live slot appears exactly once, and the stored entry count
// matches. Any failure schedules the index for drop-and-rebuild.
func (s *checkState) checkIndex(ic idxCheck) {
	fs := s.fs
	bad := func(format string, args ...any) {
		s.problem("%s: directory index: "+format, append([]any{ic.path}, args...)...)
		s.fx.clearIdx[ic.dir] = true
	}
	if !fs.idxValidPhys(ic.root) {
		bad("root block %d out of range", ic.root)
		return
	}
	if s.has(ic.root) {
		bad("root block %d belongs to %s", ic.root, s.used[ic.root])
		return
	}
	rb, err := fs.c.Read(ic.root)
	if err != nil {
		bad("unreadable root block %d: %v", ic.root, err)
		return
	}
	root, ok := layout.DecodeDirIndexRoot(rb.Data)
	if !ok {
		rb.Release()
		bad("root block %d has no valid header", ic.root)
		return
	}
	blocks := map[int64]bool{ic.root: true}
	var bucketPhys []int64
	for k := 0; k < int(root.NBuckets); k++ {
		p := int64(layout.DirIndexBucketPtr(rb.Data, k))
		if !fs.idxValidPhys(p) {
			rb.Release()
			bad("bucket %d points at block %d, out of range", k, p)
			return
		}
		if s.has(p) {
			rb.Release()
			bad("bucket %d block %d belongs to %s", k, p, s.used[p])
			return
		}
		if blocks[p] {
			rb.Release()
			bad("bucket %d block %d appears twice in the index", k, p)
			return
		}
		blocks[p] = true
		bucketPhys = append(bucketPhys, p)
	}
	rb.Release()
	seen := make(map[uint32]bool)
	count := uint32(0)
	for k, p := range bucketPhys {
		bb, err := fs.c.Read(p)
		if err != nil {
			bad("unreadable bucket %d (block %d): %v", k, p, err)
			return
		}
		for j := 0; j < layout.DirIndexBucketEntries; j++ {
			h, loc := layout.DirIndexEntry(bb.Data, j)
			if loc == 0 {
				continue
			}
			want, live := ic.slots[loc]
			switch {
			case !live:
				bb.Release()
				bad("entry for slot %d/%d names no live slot", idxLocBlock(loc), idxLocSlot(loc))
				return
			case seen[loc]:
				bb.Release()
				bad("slot %d/%d indexed twice", idxLocBlock(loc), idxLocSlot(loc))
				return
			case want != h:
				bb.Release()
				bad("slot %d/%d hashed %#x, index says %#x", idxLocBlock(loc), idxLocSlot(loc), want, h)
				return
			case uint32(k) != h%root.NBuckets:
				bb.Release()
				bad("slot %d/%d filed under bucket %d, hash says %d",
					idxLocBlock(loc), idxLocSlot(loc), k, h%root.NBuckets)
				return
			}
			seen[loc] = true
			count++
		}
		bb.Release()
	}
	if int(count) != len(ic.slots) {
		bad("%d slots live, %d indexed", len(ic.slots), count)
		return
	}
	if count != root.NEntries {
		bad("entry count %d, found %d", root.NEntries, count)
		return
	}
	for p := range blocks {
		s.claim(p, ic.path+" (dir index)")
	}
}

// slotRef names one directory slot on disk, and the directory owning it
// (whose index, if any, goes stale when the slot is cleared).
type slotRef struct {
	dir   vfs.Ino
	block int64
	slot  int
}

// Pointer-clear kinds: which pointer of an inode a fix cuts.
const (
	ptrData   = iota // the pointer resolving logical block lb
	ptrIndir         // the inode's single-indirect pointer
	ptrDIndir        // the inode's double-indirect pointer
	ptrL2            // entry lb of the double-indirect block
)

// ptrRef names one block pointer reachable from an inode.
type ptrRef struct {
	ino  vfs.Ino
	kind int
	lb   int64
}

// dotFix regenerates a "." or ".." entry of a directory.
type dotFix struct {
	dir    vfs.Ino
	name   string
	target vfs.Ino
}

// fixes is the structural repair plan one walk collects.
type fixes struct {
	clearSlots []slotRef          // remove dangling/duplicate/corrupt entries
	dots       []dotFix           // regenerate "." / ".."
	nlink      map[vfs.Ino]uint16 // rewrite link counts from names found
	nblocks    map[vfs.Ino]uint32 // rewrite block counts from blocks found
	clearPtrs  []ptrRef           // cut bad or doubly-claimed block pointers
	zeroExt    []int              // zero orphaned external inodes (by index)
	clearIdx   map[vfs.Ino]bool   // drop directory indexes that failed verification
}

func newFixes() *fixes {
	return &fixes{
		nlink:    make(map[vfs.Ino]uint16),
		nblocks:  make(map[vfs.Ino]uint32),
		clearIdx: make(map[vfs.Ino]bool),
	}
}

func (f *fixes) any() bool {
	return len(f.clearSlots)+len(f.dots)+len(f.nlink)+len(f.nblocks)+
		len(f.clearPtrs)+len(f.zeroExt)+len(f.clearIdx) > 0
}

// idxCheck is one directory index awaiting verification: the slot
// population the walk saw (loc → name hash), to be matched against the
// index structure after every file's blocks are claimed — real data
// must win any collision with a corrupt index pointer.
type idxCheck struct {
	dir   vfs.Ino
	path  string
	root  int64
	slots map[uint32]uint32
}

// checkState carries the walk.
type checkState struct {
	fs         *FS
	r          *fsck.Report
	fx         *fixes
	used       map[int64]string // block -> first owner description
	extSeen    map[int]int      // external idx -> names found
	extLink    map[int]int      // external idx -> on-disk nlink
	visited    map[int]bool     // directories walked (by external idx)
	idxChecks  []idxCheck       // indexes to verify once the walk is done
	idxCleared map[vfs.Ino]bool // indexes dropped by applyFixes (rebuild later)
}

func newCheckState(fs *FS, r *fsck.Report) *checkState {
	return &checkState{
		fs:      fs,
		r:       r,
		fx:      newFixes(),
		used:    make(map[int64]string),
		extSeen: make(map[int]int),
		extLink: make(map[int]int),
		visited: make(map[int]bool),
	}
}

func (s *checkState) problem(format string, args ...any) {
	s.r.Problems = append(s.r.Problems, fmt.Sprintf(format, args...))
}

// claim records a block owner; it reports whether the claim was first.
func (s *checkState) claim(block int64, owner string) bool {
	if prev, ok := s.used[block]; ok {
		s.problem("block %d claimed by both %s and %s", block, prev, owner)
		return false
	}
	s.used[block] = owner
	return true
}

func (s *checkState) has(block int64) bool {
	_, ok := s.used[block]
	return ok
}

// walkDir checks one directory and recurses into subdirectories. The
// caller (walkChild) has validated the inode for every directory except
// the root, whose failures are unrepairable by construction.
func (s *checkState) walkDir(dir, parent vfs.Ino, path string) error {
	idx := extIdx(dir)
	s.visited[idx] = true
	s.r.Dirs++

	in, err := s.fs.getInode(dir)
	if err != nil {
		s.problem("%s: unreadable inode: %v", path, err)
		return nil
	}
	if in.Type != vfs.TypeDir {
		s.problem("%s: not a directory (type %v)", path, in.Type)
		return nil
	}
	s.extLink[idx] = int(in.Nlink)
	s.claimFileBlocks(&in, dir, path)

	var dotOK, dotdotOK bool
	var subs []slotEntry
	locs := make(map[uint32]uint32)
	_, err = s.fs.forEachSlot(&in, dir, func(_ *cache.Buf, e slotEntry, used bool) bool {
		if !used {
			return false
		}
		if e.block < 1<<28 {
			locs[idxLoc(e.block, e.slot)] = layout.DirNameHash(e.name)
		}
		switch string(e.name) {
		case ".":
			dotOK = !e.embedded && e.ref == uint32(dir)
		case "..":
			dotdotOK = !e.embedded && e.ref == uint32(parent)
		default:
			if e.ftype == vfs.TypeDir && !e.embedded {
				// Recursed into after the scan, once the block is
				// unpinned: the name must be a copy by then.
				sub := e
				sub.name = append([]byte(nil), e.name...)
				subs = append(subs, sub)
			}
			s.checkEntry(dir, e, path)
		}
		return false
	})
	if err != nil {
		s.problem("%s: walk failed: %v", path, err)
		return nil
	}
	if root := int64(in.DirIndexRootPtr()); root != 0 {
		s.idxChecks = append(s.idxChecks, idxCheck{dir: dir, path: path, root: root, slots: locs})
	}
	if !dotOK {
		s.problem("%s: bad or missing \".\"", path)
		s.fx.dots = append(s.fx.dots, dotFix{dir: dir, name: ".", target: dir})
	}
	if !dotdotOK {
		s.problem("%s: bad or missing \"..\"", path)
		s.fx.dots = append(s.fx.dots, dotFix{dir: dir, name: "..", target: parent})
	}
	// Recurse after the slot scan so buffers are not pinned during it.
	nsub := 0
	for _, e := range subs {
		ok, err := s.walkChild(e, dir, path)
		if err != nil {
			return err
		}
		if ok {
			nsub++
		}
	}
	if int(in.Nlink) != 2+nsub {
		s.problem("%s: nlink %d, expected %d", path, in.Nlink, 2+nsub)
		s.fx.nlink[dir] = uint16(2 + nsub)
	}
	return nil
}

// walkChild validates one subdirectory entry and recurses into it. It
// reports whether the entry counts as a live subdirectory (for the
// parent's link count); a false return means the entry was scheduled
// for removal.
func (s *checkState) walkChild(e slotEntry, parent vfs.Ino, path string) (bool, error) {
	name := path + string(e.name)
	ino := e.ino()
	idx := extIdx(ino)
	if s.visited[idx] {
		s.problem("%s: second name for directory inode %d", name, idx)
		s.fx.clearSlots = append(s.fx.clearSlots, slotRef{parent, e.block, e.slot})
		return false, nil
	}
	in, err := s.fs.getInode(ino)
	if err != nil || !in.Alive() {
		s.problem("%s: dangling directory entry (inode %d)", name, idx)
		s.fx.clearSlots = append(s.fx.clearSlots, slotRef{parent, e.block, e.slot})
		return false, nil
	}
	if in.Type != vfs.TypeDir {
		s.problem("%s: entry says directory, inode %d says type %v", name, idx, in.Type)
		s.fx.clearSlots = append(s.fx.clearSlots, slotRef{parent, e.block, e.slot})
		return false, nil
	}
	return true, s.walkDir(ino, parent, name+"/")
}

// checkEntry validates one live non-dot entry (for directories, only
// the reference count here — the recursion is walkChild's).
func (s *checkState) checkEntry(dir vfs.Ino, e slotEntry, path string) {
	name := path + string(e.name)
	if e.embedded {
		ino := e.ino()
		in, err := s.fs.getInode(ino)
		if err != nil || !in.Alive() {
			s.problem("%s: unreadable embedded inode", name)
			s.fx.clearSlots = append(s.fx.clearSlots, slotRef{dir, e.block, e.slot})
			return
		}
		if in.Type != vfs.TypeReg {
			s.problem("%s: embedded inode of type %v", name, in.Type)
			s.fx.clearSlots = append(s.fx.clearSlots, slotRef{dir, e.block, e.slot})
			return
		}
		if in.Nlink != 1 {
			s.problem("%s: embedded inode with nlink %d", name, in.Nlink)
			s.fx.nlink[ino] = 1
		}
		s.r.Files++
		s.claimFileBlocks(&in, ino, name)
		return
	}
	idx := int(e.ref) - 1
	s.extSeen[idx]++
	if e.ftype == vfs.TypeDir {
		return // walked by walkChild
	}
	if s.extSeen[idx] > 1 {
		return // blocks already claimed via the first name
	}
	in, err := s.fs.getInode(vfs.Ino(e.ref))
	if err != nil || !in.Alive() {
		s.problem("%s: dangling external inode %d", name, e.ref)
		s.fx.clearSlots = append(s.fx.clearSlots, slotRef{dir, e.block, e.slot})
		s.extSeen[idx]-- // removal: the name no longer counts toward nlink
		return
	}
	s.extLink[idx] = int(in.Nlink)
	s.r.Files++
	s.claimFileBlocks(&in, vfs.Ino(e.ref), name)
}

// claimFileBlocks claims every block reachable from an inode. A block
// that is out of range or already claimed gets its pointer scheduled
// for clearing — first claimant wins, as in classic fsck — and only
// surviving claims count toward the inode's block count.
func (s *checkState) claimFileBlocks(in *layout.Inode, ino vfs.Ino, name string) {
	nblocks := (in.Size + blockio.BlockSize - 1) / blockio.BlockSize
	counted := uint32(0)
	for lb := int64(0); lb < nblocks; lb++ {
		phys, err := s.fs.bmap(in, ino, lb, false)
		if err != nil {
			s.problem("%s: bmap(%d): %v", name, lb, err)
			s.fx.clearPtrs = append(s.fx.clearPtrs, ptrRef{ino: ino, kind: ptrData, lb: lb})
			continue
		}
		if phys == 0 {
			continue
		}
		if phys <= 0 || phys >= s.fs.sb.NBlocks {
			s.problem("%s: block %d of %d is outside the volume", name, phys, lb)
			s.fx.clearPtrs = append(s.fx.clearPtrs, ptrRef{ino: ino, kind: ptrData, lb: lb})
			continue
		}
		if s.claim(phys, name) {
			counted++
		} else {
			s.fx.clearPtrs = append(s.fx.clearPtrs, ptrRef{ino: ino, kind: ptrData, lb: lb})
		}
	}
	if in.Indir != 0 {
		if int64(in.Indir) >= s.fs.sb.NBlocks || !s.claim(int64(in.Indir), name+" (indirect)") {
			if int64(in.Indir) >= s.fs.sb.NBlocks {
				s.problem("%s: indirect block %d is outside the volume", name, in.Indir)
			}
			s.fx.clearPtrs = append(s.fx.clearPtrs, ptrRef{ino: ino, kind: ptrIndir})
		} else {
			counted++
		}
	}
	if in.DIndir != 0 {
		if int64(in.DIndir) >= s.fs.sb.NBlocks || !s.claim(int64(in.DIndir), name+" (double indirect)") {
			if int64(in.DIndir) >= s.fs.sb.NBlocks {
				s.problem("%s: double-indirect block %d is outside the volume", name, in.DIndir)
			}
			s.fx.clearPtrs = append(s.fx.clearPtrs, ptrRef{ino: ino, kind: ptrDIndir})
		} else {
			counted++
			db, err := s.fs.c.Read(int64(in.DIndir))
			if err == nil {
				le := leBytes{db.Data}
				for k := 0; k < layout.PtrsPerBlock; k++ {
					p := le.u32(k * 4)
					if p == 0 {
						continue
					}
					if int64(p) >= s.fs.sb.NBlocks || !s.claim(int64(p), name+" (indirect level 2)") {
						s.fx.clearPtrs = append(s.fx.clearPtrs, ptrRef{ino: ino, kind: ptrL2, lb: int64(k)})
					} else {
						counted++
					}
				}
				db.Release()
			}
		}
	}
	if counted != in.NBlocks {
		s.problem("%s: NBlocks %d, found %d", name, in.NBlocks, counted)
		s.fx.nblocks[ino] = counted
	}
}

// finish compares the rebuilt state against the on-disk bitmaps, group
// descriptors, and external inode liveness.
func (s *checkState) finish() {
	fs, r := s.fs, s.r
	// External inode liveness vs names found.
	for idx := 0; idx < fs.sb.ExtBlocks*extInosPerBlock; idx++ {
		live := fs.extFree[idx/64]&(1<<(idx%64)) != 0
		seen := s.extSeen[idx] > 0 || s.visited[idx]
		switch {
		case live && !seen:
			r.Problems = append(r.Problems, fmt.Sprintf("orphan external inode %d", idx))
			s.fx.zeroExt = append(s.fx.zeroExt, idx)
		case !live && seen:
			// The dangling entries themselves were scheduled for
			// clearing where they were found.
			r.Problems = append(r.Problems, fmt.Sprintf("referenced external inode %d is dead", idx))
		}
		if seen && !s.visited[idx] {
			if want, got := s.extSeen[idx], s.extLink[idx]; want != got {
				r.Problems = append(r.Problems,
					fmt.Sprintf("external inode %d: nlink %d, found %d names", idx, got, want))
				s.fx.nlink[vfs.Ino(idx+1)] = uint16(want)
			}
		}
	}
	// Bitmaps and group descriptors.
	for ag := 0; ag < fs.sb.NAG; ag++ {
		hdr, err := fs.c.Read(fs.sb.agStart(ag))
		if err != nil {
			r.Problems = append(r.Problems, fmt.Sprintf("ag %d: unreadable header: %v", ag, err))
			continue
		}
		bm := fs.blockBitmap(hdr)
		for i := 0; i < fs.sb.AGBlocks; i++ {
			phys := fs.sb.agStart(ag) + int64(i)
			if phys >= fs.sb.NBlocks {
				break
			}
			inUse := s.has(phys)
			marked := bm.IsSet(i)
			if inUse && !marked {
				r.Problems = append(r.Problems, fmt.Sprintf("block %d in use but free in bitmap", phys))
			}
			if !inUse && marked {
				r.Problems = append(r.Problems, fmt.Sprintf("block %d lost (marked but unreferenced)", phys))
			}
		}
		for k := 0; k < fs.sb.groupsPerAG(); k++ {
			d := readDesc(hdr, k)
			if d.Owner == 0 && d.Used != 0 {
				r.Problems = append(r.Problems, fmt.Sprintf("ag %d group %d: used bits without owner", ag, k))
				continue
			}
			if d.Owner != 0 && d.Used == 0 {
				r.Problems = append(r.Problems, fmt.Sprintf("ag %d group %d: empty group still owned", ag, k))
			}
			start := fs.sb.groupBase(ag) + int64(k)*GroupBlocks
			for i := 0; i < GroupBlocks; i++ {
				if d.Used&(1<<i) != 0 && !s.has(start+int64(i)) {
					r.Problems = append(r.Problems,
						fmt.Sprintf("ag %d group %d: grouped block %d unreferenced", ag, k, start+int64(i)))
				}
			}
		}
		hdr.Release()
	}
}

// applyFixes executes the structural repair plan the walk collected and
// syncs the image. It returns the number of repairs applied.
func (s *checkState) applyFixes() (int, error) {
	fs, n := s.fs, 0
	for _, sr := range s.fx.clearSlots {
		b, err := fs.c.Read(sr.block)
		if err != nil {
			return n, err
		}
		clearSlot(b.Data, sr.slot*slotSize)
		fs.c.MarkDirty(b)
		b.Release()
		n++
	}
	for _, df := range s.fx.dots {
		ok, err := s.fixDot(df)
		if err != nil {
			return n, err
		}
		if ok {
			n++
		}
	}
	for _, pr := range s.fx.clearPtrs {
		ok, err := s.clearPtr(pr)
		if err != nil {
			return n, err
		}
		if ok {
			n++
		}
	}
	for ino, v := range s.fx.nlink {
		in, err := fs.getInode(ino)
		if err != nil {
			continue // the holder may have been cleared above
		}
		in.Nlink = v
		if err := fs.putInode(ino, &in, false); err != nil {
			return n, err
		}
		n++
	}
	for ino, v := range s.fx.nblocks {
		in, err := fs.getInode(ino)
		if err != nil {
			continue
		}
		in.NBlocks = v
		if err := fs.putInode(ino, &in, false); err != nil {
			return n, err
		}
		n++
	}
	for _, idx := range s.fx.zeroExt {
		phys, slot, err := fs.extLoc(idx)
		if err != nil {
			continue
		}
		b, err := fs.c.Read(phys)
		if err != nil {
			return n, err
		}
		for i := 0; i < layout.InodeSize; i++ {
			b.Data[slot*layout.InodeSize+i] = 0
		}
		fs.c.MarkDirty(b)
		b.Release()
		fs.freeExtInode(idx)
		n++
	}
	// Index drops: every index that failed verification, plus every
	// index over a directory whose slots were just repaired (the repair
	// made it stale). Only the root pointer is cut — the orphaned
	// blocks fall out of the used set and the allocation rewrite
	// reclaims them. Check rebuilds these after that rewrite.
	idxDirty := make(map[vfs.Ino]bool)
	for d := range s.fx.clearIdx {
		idxDirty[d] = true
	}
	for _, sr := range s.fx.clearSlots {
		idxDirty[sr.dir] = true
	}
	for _, df := range s.fx.dots {
		idxDirty[df.dir] = true
	}
	s.idxCleared = make(map[vfs.Ino]bool)
	for d := range idxDirty {
		in, err := fs.getInode(d)
		if err != nil || in.Type != vfs.TypeDir || in.DirIndexRootPtr() == 0 {
			continue
		}
		in.SetDirIndexRootPtr(0)
		if err := fs.putInode(d, &in, false); err != nil {
			return n, err
		}
		s.idxCleared[d] = true
		n++
	}
	return n, fs.c.Sync()
}

// fixDot regenerates a "." or ".." entry: rewritten in place when a
// slot with that name exists, otherwise written into a free slot.
func (s *checkState) fixDot(df dotFix) (bool, error) {
	fs := s.fs
	in, err := fs.getInode(df.dir)
	if err != nil || in.Type != vfs.TypeDir {
		return false, nil
	}
	var off int
	b, err := fs.forEachSlot(&in, df.dir, func(_ *cache.Buf, e slotEntry, used bool) bool {
		if used && string(e.name) == df.name {
			off = e.slot * slotSize
			return true
		}
		return false
	})
	if err != nil {
		return false, nil
	}
	if b == nil {
		var free slotEntry
		b, free, err = fs.dirFindFree(&in, df.dir)
		if err != nil {
			return false, err
		}
		off = free.slot * slotSize
		if err := fs.putInode(df.dir, &in, false); err != nil {
			b.Release()
			return false, err
		}
	}
	writeSlotExternal(b.Data, off, df.name, df.target, vfs.TypeDir)
	fs.c.MarkDirty(b)
	b.Release()
	return true, nil
}

// clearPtr cuts one block pointer of an inode. The freed block's bitmap
// state is corrected later by the allocation rebuild.
func (s *checkState) clearPtr(pr ptrRef) (bool, error) {
	fs := s.fs
	in, err := fs.getInode(pr.ino)
	if err != nil {
		return false, nil
	}
	switch pr.kind {
	case ptrIndir:
		in.Indir = 0
		return true, fs.putInode(pr.ino, &in, false)
	case ptrDIndir:
		in.DIndir = 0
		return true, fs.putInode(pr.ino, &in, false)
	case ptrL2:
		if in.DIndir == 0 {
			return false, nil
		}
		return s.zeroPtrInBlock(int64(in.DIndir), int(pr.lb))
	}
	// ptrData: resolve which pointer holds logical block pr.lb.
	lb := pr.lb
	if lb < layout.NDirect {
		in.Direct[lb] = 0
		return true, fs.putInode(pr.ino, &in, false)
	}
	rel := lb - layout.NDirect
	if rel < layout.PtrsPerBlock {
		if in.Indir == 0 {
			return false, nil
		}
		return s.zeroPtrInBlock(int64(in.Indir), int(rel))
	}
	rel -= layout.PtrsPerBlock
	if in.DIndir == 0 {
		return false, nil
	}
	db, err := fs.c.Read(int64(in.DIndir))
	if err != nil {
		return false, nil
	}
	l2 := leBytes{db.Data}.u32(int(rel/layout.PtrsPerBlock) * 4)
	db.Release()
	if l2 == 0 {
		return false, nil
	}
	return s.zeroPtrInBlock(int64(l2), int(rel%layout.PtrsPerBlock))
}

// zeroPtrInBlock zeroes the kth u32 of a pointer block.
func (s *checkState) zeroPtrInBlock(block int64, k int) (bool, error) {
	b, err := s.fs.c.Read(block)
	if err != nil {
		return false, nil
	}
	leBytes{b.Data}.pu32(k*4, 0)
	s.fs.c.MarkDirty(b)
	b.Release()
	return true, nil
}

// rewriteAlloc rebuilds bitmaps and group descriptors from the walk's
// used set and syncs the image. It returns the number of corrections.
func (s *checkState) rewriteAlloc() (int, error) {
	fs, n := s.fs, 0
	for ag := 0; ag < fs.sb.NAG; ag++ {
		hdr, err := fs.c.Read(fs.sb.agStart(ag))
		if err != nil {
			return n, err
		}
		bm := fs.blockBitmap(hdr)
		for i := 0; i < fs.sb.AGBlocks; i++ {
			phys := fs.sb.agStart(ag) + int64(i)
			if phys >= fs.sb.NBlocks {
				break
			}
			if s.has(phys) != bm.IsSet(i) {
				if s.has(phys) {
					bm.Set(i)
				} else {
					bm.Clear(i)
				}
				n++
			}
		}
		// Drop group state not backed by referenced blocks.
		for k := 0; k < fs.sb.groupsPerAG(); k++ {
			d := readDesc(hdr, k)
			start := fs.sb.groupBase(ag) + int64(k)*GroupBlocks
			fixed := d
			for i := 0; i < GroupBlocks; i++ {
				if d.Used&(1<<i) != 0 && !s.has(start+int64(i)) {
					fixed.Used &^= 1 << i
				}
			}
			if fixed.Used == 0 {
				fixed.Owner = 0
			}
			if fixed != d {
				writeDesc(hdr, k, fixed)
				n++
			}
		}
		fs.c.MarkDirty(hdr)
		hdr.Release()
	}
	return n, fs.c.Sync()
}
