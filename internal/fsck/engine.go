package fsck

import (
	"encoding/binary"
	"fmt"
	"sort"

	"cffs/internal/blockio"
	"cffs/internal/cache"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// maxPasses bounds the apply-and-rewalk loop. Each fix can expose the
// next problem (clearing a dangling entry orphans its inode), but every
// pass strictly shrinks the namespace, so a plan still non-empty after
// this many passes is damage the verification walk reports, not a
// reason to keep going.
const maxPasses = 4

// Loc names one directory entry on disk, in whatever units the layout's
// PutEntry wants back.
type Loc struct {
	Block    int64
	Off, Len int
}

// Entry is one live directory entry as a layout's directory format
// decodes it. Name is a copy: the engine keeps subdirectory entries
// past the scan that produced them.
type Entry struct {
	Name     string
	Ino      vfs.Ino
	Type     vfs.FileType
	Embedded bool // the inode lives inside the entry, not at a location of its own
	Loc      Loc
}

// Layout is one on-disk format as the engine sees it: everything that
// differs between C-FFS and FFS, each of which builds exactly one. The
// inode, the pointer tree and the buffer cache are shared concrete types
// and are used directly.
type Layout struct {
	FS    string // name for the report
	Cache *cache.Cache
	Root  vfs.Ino

	// Geometry. Both file systems cut the volume into equal allocation
	// groups whose first block is a header holding the group's block
	// bitmap, bit i standing for block header+i.
	Blocks      int64 // volume size
	Groups      int
	GroupStart  int64 // header block of group 0
	GroupBlocks int   // blocks per group, header included
	BitmapOff   int   // byte offset of the block bitmap in a header

	// ClaimFixed claims (w.Claim) every block whose location the format
	// fixes or a map names: superblock, group headers, inode tables.
	ClaimFixed func(w *Walk) error

	GetInode func(ino vfs.Ino) (layout.Inode, error)
	PutInode func(ino vfs.Ino, in *layout.Inode) error
	// ClearMapping zeroes the pointer that maps logical block lb of in;
	// a direct pointer is cleared in in, for the caller to write back.
	ClearMapping func(in *layout.Inode, lb int64) error

	// Entries calls fn for every live entry of a directory, "." and ".."
	// included, in on-disk order. fn runs with the directory block
	// pinned and may read other blocks but not walk directories.
	Entries func(in *layout.Inode, dir vfs.Ino, fn func(Entry)) error
	// PutEntry encodes, over the entry at l in a directory block's
	// bytes, a directory reference name -> target — or, with target 0,
	// a free entry. AddEntry inserts such a reference where there is
	// room, growing the directory if it must.
	PutEntry func(block []byte, l Loc, name string, target vfs.Ino)
	AddEntry func(in *layout.Inode, dir vfs.Ino, name string, target vfs.Ino) error

	// Inodes enumerates, in number order, every inode that has a
	// location of its own (embedded inodes are found only through their
	// entry), and ZeroInode frees one.
	Inodes    func(fn func(ino vfs.Ino, alive bool))
	ZeroInode func(ino vfs.Ino) error

	// GroupState is allocState's layout half: it reports — or with
	// rewrite set silently corrects, returning the count — whatever
	// allocation state only this layout keeps in group g's header
	// (C-FFS group descriptors, FFS inode bitmaps).
	GroupState func(g int, hdr *cache.Buf, w *Walk, rewrite bool) int

	// Hooks for a layout with redundant structures of its own, fired
	// where the package comment says; FFS leaves them nil. Walked sees
	// every claim the namespace made, so a redundant structure that
	// collides with real data loses; Applied gets the directories whose
	// entries the plan changed or that Walked flagged; Rebuilt is the
	// first point at which it is safe to allocate. The last three
	// return their repair counts.
	Walked   func(w *Walk)
	Applied  func(dirs map[vfs.Ino]bool) (int, error)
	Rebuilt  func() (int, error)
	Verified func() (int, error)
}

// Run checks the image behind l and, with repair set, repairs it, in the
// phases the package comment describes. The early return is safe because
// a fix cannot be planned without a problem line (see Walk.fix).
func Run(l *Layout, repair bool) (*Report, error) {
	r := &Report{FS: l.FS}
	w, err := walk(l, r)
	if err != nil {
		return nil, err
	}
	if !repair || r.Clean() {
		r.UsedBlocks = len(w.used)
		return r, nil
	}
	add := func(n int, err error) error {
		r.RepairsMade += n
		return err
	}
	for pass := 0; pass < maxPasses && len(w.plan) > 0; pass++ {
		if err = add(w.applyFixes()); err != nil {
			return nil, err
		}
		if w, err = walk(l, &Report{}); err != nil {
			return nil, err
		}
	}
	if err = add(w.allocState(true)); err == nil && l.Rebuilt != nil {
		err = add(l.Rebuilt())
	}
	if err != nil {
		return nil, err
	}
	rv := &Report{}
	v, err := walk(l, rv)
	if err != nil {
		return nil, err
	}
	r.Unrepairable = rv.Problems
	r.UsedBlocks = len(v.used)
	if len(r.Unrepairable) == 0 && l.Verified != nil {
		err = add(l.Verified())
	}
	return r, err
}

// The kinds of fix, in the order applyFixes executes them: entries go
// first so that a later inode edit aimed at a cleared embedded inode
// finds it gone and is skipped, and pointer cuts inside an indirect
// block precede the inode edit that may cut the block itself.
const (
	fixEntry  = iota // clear the dangling, duplicate or mistyped entry at loc
	fixDot           // make entry name of directory ino reference target
	fixCut           // cut the pointer mapping block lb of ino (l2: entry lb of its double-indirect block)
	fixInode         // rewrite fields of inode ino: counts, an impossible size, a tree-block pointer
	fixOrphan        // zero the unreferenced live inode ino
	fixDir           // directory ino's layout-private structure: the Applied hook's job
)

// fix is one structural repair; a walk's plan is a list of them.
type fix struct {
	kind   int
	ino    vfs.Ino
	loc    Loc     // fixEntry; fixDot: the wrong entry, zero when it is missing
	name   string  // fixDot
	target vfs.Ino // fixDot
	lb     int64   // fixCut
	l2     bool    // fixCut
	edit   func(in *layout.Inode)
}

// Walk is the state of one pass over the image: the claim set, the
// names found per inode, and the repair plan.
type Walk struct {
	l    *Layout
	r    *Report
	plan []fix
	used map[int64]string   // block -> first claimant (never "": unclaimed reads as "")
	seen map[vfs.Ino]int    // names found per separately located inode
	link map[vfs.Ino]int    // on-disk link count of each such file
	dirs map[vfs.Ino]string // directories walked -> path
}

// walk is phase 1: the namespace walk from the root, then the cross-check
// of what it found against the separately located inodes and the
// allocation state.
func walk(l *Layout, r *Report) (*Walk, error) {
	w := &Walk{l: l, r: r, used: make(map[int64]string), seen: make(map[vfs.Ino]int),
		link: make(map[vfs.Ino]int), dirs: make(map[vfs.Ino]string)}
	if err := l.ClaimFixed(w); err != nil {
		return nil, err
	}
	w.walkDir(l.Root, l.Root, "/")
	if l.Walked != nil {
		l.Walked(w)
	}
	l.Inodes(func(ino vfs.Ino, alive bool) {
		referenced := w.Referenced(ino)
		switch {
		case alive && !referenced:
			w.fix(fix{kind: fixOrphan, ino: ino}, "orphan inode %d", ino)
		case !alive && referenced:
			// The dangling entries themselves were scheduled for clearing
			// where they were found.
			w.Problemf("referenced inode %d is dead", ino)
		}
		if want, got := w.seen[ino], w.link[ino]; want > 0 && w.dirs[ino] == "" && want != got {
			w.fix(fix{kind: fixInode, ino: ino, edit: func(in *layout.Inode) { in.Nlink = uint16(want) }},
				"inode %d: nlink %d, found %d names", ino, got, want)
		}
	})
	w.allocState(false)
	return w, nil
}

// fix is the only way into the plan, and it takes the problem line for
// the repair it schedules: a non-empty plan therefore implies a
// non-clean report, and no caller can queue a repair that a clean
// verdict would then skip.
func (w *Walk) fix(f fix, format string, args ...any) {
	w.Problemf(format, args...)
	w.plan = append(w.plan, f)
}

// Problemf records a problem no fix is attributed to: it is repaired by
// the allocation rewrite, by another problem's fix, or not at all.
func (w *Walk) Problemf(format string, args ...any) {
	w.r.Problems = append(w.r.Problems, fmt.Sprintf(format, args...))
}

// FlagDir records a problem with a directory's layout-private structure
// and hands the directory to the Applied hook.
func (w *Walk) FlagDir(dir vfs.Ino, format string, args ...any) {
	w.fix(fix{kind: fixDir, ino: dir}, format, args...)
}

// Owner returns the first claimant of a block, "" if it was not reached.
func (w *Walk) Owner(block int64) string { return w.used[block] }

// Claim records owner as the claimant of a block that has no pointer to
// cut (fixed metadata, a verified index); a collision is a problem line.
func (w *Walk) Claim(block int64, owner string) {
	if prev, first := w.claim(block, owner); !first {
		w.Problemf("block %d claimed by both %s and %s", block, prev, owner)
	}
}

// Referenced reports whether the walk found a name for, or walked, ino.
func (w *Walk) Referenced(ino vfs.Ino) bool { return w.seen[ino] > 0 || w.dirs[ino] != "" }

// DirPath returns the path under which a directory was walked.
func (w *Walk) DirPath(dir vfs.Ino) string { return w.dirs[dir] }

// claim is first-claimant-wins, as in classic fsck: the loser's pointer
// is what gets cut.
func (w *Walk) claim(block int64, owner string) (prev string, first bool) {
	if prev, ok := w.used[block]; ok {
		return prev, false
	}
	w.used[block] = owner
	return "", true
}

// walkDir checks one directory and recurses into its subdirectories.
// The caller has validated the inode of every directory but the root,
// whose failures nothing can repair.
func (w *Walk) walkDir(dir, parent vfs.Ino, path string) {
	w.dirs[dir] = path
	w.r.Dirs++
	in, err := w.l.GetInode(dir)
	if err != nil || in.Type != vfs.TypeDir {
		w.Problemf("%s: not a readable directory inode (type %v, error %v)", path, in.Type, err)
		return
	}
	w.claimFileBlocks(&in, dir, path)

	dots := [2]fix{ // what "." and ".." should say; loc is filled in if they exist
		{kind: fixDot, ino: dir, name: ".", target: dir},
		{kind: fixDot, ino: dir, name: "..", target: parent},
	}
	var dotOK [2]bool
	var subs []Entry // recursed into after the scan, once its block is unpinned
	err = w.l.Entries(&in, dir, func(e Entry) {
		for i := range dots {
			if e.Name == dots[i].name {
				dots[i].loc, dotOK[i] = e.Loc, !e.Embedded && e.Ino == dots[i].target
				return
			}
		}
		if e.Type == vfs.TypeDir && !e.Embedded {
			subs = append(subs, e)
		}
		w.checkEntry(dir, e, path+e.Name)
	})
	if err != nil {
		w.Problemf("%s: walk failed: %v", path, err)
		return
	}
	for i := range dots {
		if !dotOK[i] {
			w.fix(dots[i], "%s: bad or missing %q", path, dots[i].name)
		}
	}
	nsub := 0
	for _, e := range subs {
		if w.walkChild(e, dir, path+e.Name) {
			nsub++
		}
	}
	if int(in.Nlink) != 2+nsub {
		w.fix(fix{kind: fixInode, ino: dir, edit: func(in *layout.Inode) { in.Nlink = uint16(2 + nsub) }},
			"%s: nlink %d, expected %d", path, in.Nlink, 2+nsub)
	}
}

// walkChild validates one subdirectory entry and recurses into it. It
// reports whether the entry counts toward the parent's link count; false
// means the entry was scheduled for removal.
func (w *Walk) walkChild(e Entry, parent vfs.Ino, name string) bool {
	drop := fix{kind: fixEntry, ino: parent, loc: e.Loc}
	if w.dirs[e.Ino] != "" {
		w.fix(drop, "%s: second name for directory inode %d", name, e.Ino)
		return false
	}
	in, err := w.l.GetInode(e.Ino)
	switch {
	case err != nil || !in.Alive():
		w.fix(drop, "%s: dangling directory entry (inode %d)", name, e.Ino)
	case in.Type != vfs.TypeDir:
		w.fix(drop, "%s: entry says directory, inode %d says type %v", name, e.Ino, in.Type)
	default:
		w.walkDir(e.Ino, parent, name+"/")
		return true
	}
	return false
}

// checkEntry validates one live non-dot entry. For a subdirectory it
// only counts the name; walkChild does the rest after the scan.
func (w *Walk) checkEntry(dir vfs.Ino, e Entry, name string) {
	if !e.Embedded {
		w.seen[e.Ino]++
		if e.Type == vfs.TypeDir || w.seen[e.Ino] > 1 {
			return // blocks are claimed through the first name
		}
	}
	drop := fix{kind: fixEntry, ino: dir, loc: e.Loc}
	in, err := w.l.GetInode(e.Ino)
	switch {
	case err != nil || !in.Alive():
		w.fix(drop, "%s: dangling entry (inode %#x)", name, uint64(e.Ino))
		if !e.Embedded {
			w.seen[e.Ino]-- // removed: the name no longer counts toward nlink
		}
		return
	case e.Embedded && in.Type != vfs.TypeReg:
		w.fix(drop, "%s: embedded inode of type %v", name, in.Type)
		return
	case e.Embedded && in.Nlink != 1:
		w.fix(fix{kind: fixInode, ino: e.Ino, edit: func(in *layout.Inode) { in.Nlink = 1 }},
			"%s: embedded inode with nlink %d", name, in.Nlink)
	}
	if !e.Embedded {
		w.link[e.Ino] = int(in.Nlink)
	}
	w.r.Files++
	w.claimFileBlocks(&in, e.Ino, name)
}

// eachPtr calls fn for the first n pointers of a pointer block. A block
// number outside the volume is skipped in silence: the claim of that
// pointer, at the end of claimFileBlocks, reports and cuts it.
func (w *Walk) eachPtr(block uint32, name string, n int64, fn func(k int64, p uint32)) {
	if int64(block) >= w.l.Blocks {
		return
	}
	b, err := w.l.Cache.Read(int64(block))
	if err != nil {
		w.Problemf("%s: unreadable pointer block %d: %v", name, block, err)
		return
	}
	defer b.Release()
	for k := int64(0); k < n; k++ {
		fn(k, binary.LittleEndian.Uint32(b.Data[k*4:]))
	}
}

// eachData calls fn with the pointer of every logical block below
// nblocks that the pointer tree has a slot for. It visits the pointers
// that exist — twelve direct, one indirect block, one double-indirect
// block and the level-2 blocks it names — so its cost is bounded by the
// image whatever nblocks says, and it touches pointer blocks in the
// order a block-by-block mapping would.
func (w *Walk) eachData(in *layout.Inode, name string, nblocks int64, fn func(lb int64, p uint32)) {
	const nd, ppb = layout.NDirect, layout.PtrsPerBlock
	for lb := int64(0); lb < min(nblocks, nd); lb++ {
		fn(lb, in.Direct[lb])
	}
	if rel := nblocks - nd; rel > 0 && in.Indir != 0 {
		w.eachPtr(in.Indir, name, min(rel, ppb), func(k int64, p uint32) { fn(nd+k, p) })
	}
	if rel := nblocks - nd - ppb; rel > 0 && in.DIndir != 0 {
		w.eachPtr(in.DIndir, name, (rel+ppb-1)/ppb, func(s int64, l2 uint32) {
			if l2 != 0 {
				w.eachPtr(l2, name, min(rel-s*ppb, ppb), func(k int64, p uint32) { fn(nd+ppb+s*ppb+k, p) })
			}
		})
	}
}

// claimFileBlocks claims every block an inode reaches: the data blocks
// below its size, then its indirect, double-indirect and level-2 blocks
// wherever they are. A pointer out of range or already claimed is cut,
// and only surviving claims count toward the inode's block count.
func (w *Walk) claimFileBlocks(in *layout.Inode, ino vfs.Ino, name string) {
	if in.Size < 0 || in.Size > layout.MaxFileBlocks*blockio.BlockSize {
		// Clamp to the end of the last mapped block: exact for a
		// directory, rounded up to a block for a file. The alternative,
		// clearing the entry, would throw away blocks that are intact.
		end := int64(0)
		w.eachData(in, name, layout.MaxFileBlocks, func(lb int64, p uint32) {
			if p != 0 {
				end = (lb + 1) * blockio.BlockSize
			}
		})
		w.fix(fix{kind: fixInode, ino: ino, edit: func(in *layout.Inode) { in.Size = end }},
			"%s: impossible size %d, clamping to %d", name, in.Size, end)
		in.Size = end
	}
	counted := uint32(0)
	take := func(p uint32, owner string, cut fix) bool {
		cut.ino = ino
		switch {
		case p == 0:
			return false
		case int64(p) >= w.l.Blocks:
			w.fix(cut, "%s: block %d is outside the volume", owner, p)
			return false
		}
		if prev, first := w.claim(int64(p), owner); !first {
			w.fix(cut, "block %d claimed by both %s and %s", p, prev, owner)
			return false
		}
		counted++
		return true
	}
	nblocks := (in.Size + blockio.BlockSize - 1) / blockio.BlockSize
	w.eachData(in, name, nblocks, func(lb int64, p uint32) { take(p, name, fix{kind: fixCut, lb: lb}) })
	take(in.Indir, name+" (indirect)", fix{kind: fixInode, edit: func(in *layout.Inode) { in.Indir = 0 }})
	if take(in.DIndir, name+" (double indirect)", fix{kind: fixInode, edit: func(in *layout.Inode) { in.DIndir = 0 }}) {
		w.eachPtr(in.DIndir, name, layout.PtrsPerBlock, func(k int64, p uint32) {
			take(p, name+" (indirect level 2)", fix{kind: fixCut, lb: k, l2: true})
		})
	}
	if counted != in.NBlocks {
		w.fix(fix{kind: fixInode, ino: ino, edit: func(in *layout.Inode) { in.NBlocks = counted }},
			"%s: NBlocks %d, found %d", name, in.NBlocks, counted)
	}
}

// allocState compares every group's block bitmap, and through
// GroupState the layout's own group state, with the walk's claim set.
// With rewrite set it corrects instead of reporting — the allocation
// rebuild, run once the namespace is stable — syncs the image and
// returns the number of corrections.
func (w *Walk) allocState(rewrite bool) (int, error) {
	n := 0
	for g := 0; g < w.l.Groups; g++ {
		hdr, err := w.l.Cache.Read(w.l.GroupStart + int64(g)*int64(w.l.GroupBlocks))
		if err != nil {
			if rewrite {
				return n, err
			}
			w.Problemf("group %d: unreadable header: %v", g, err)
			continue
		}
		bm := layout.NewBitmap(hdr.Data[w.l.BitmapOff:], w.l.GroupBlocks)
		for i := 0; i < bm.Len() && hdr.Block+int64(i) < w.l.Blocks; i++ {
			phys := hdr.Block + int64(i)
			switch inUse := w.used[phys] != ""; {
			case inUse == bm.IsSet(i):
			case rewrite && inUse:
				bm.Set(i)
				n++
			case rewrite:
				bm.Clear(i)
				n++
			case inUse:
				w.Problemf("block %d in use but free in bitmap", phys)
			default:
				w.Problemf("block %d lost (marked but unreferenced)", phys)
			}
		}
		if n += w.l.GroupState(g, hdr, w, rewrite); rewrite {
			w.l.Cache.MarkDirty(hdr)
		}
		hdr.Release()
	}
	if !rewrite {
		return 0, nil
	}
	return n, w.l.Cache.Sync()
}

// applyFixes executes the plan kind by kind and syncs the image,
// returning the number of repairs.
func (w *Walk) applyFixes() (int, error) {
	sort.SliceStable(w.plan, func(i, j int) bool { return w.plan[i].kind < w.plan[j].kind })
	n, dirs := 0, make(map[vfs.Ino]bool)
	for _, f := range w.plan {
		ok, err := false, error(nil)
		switch f.kind {
		case fixEntry:
			dirs[f.ino] = true
			ok, err = true, w.editBlock(f.loc.Block, func(p []byte) { w.l.PutEntry(p, f.loc, "", 0) })
		case fixDot:
			dirs[f.ino] = true
			if f.loc != (Loc{}) {
				ok, err = true, w.editBlock(f.loc.Block, func(p []byte) { w.l.PutEntry(p, f.loc, f.name, f.target) })
			} else if in, e := w.l.GetInode(f.ino); e == nil && in.Type == vfs.TypeDir {
				ok, err = true, w.l.AddEntry(&in, f.ino, f.name, f.target)
			}
		case fixCut:
			ok, err = w.clearPtr(f)
		case fixInode:
			// An inode that can no longer be read — its holder was cleared
			// by an earlier fix of this plan — is skipped, not an error.
			if in, e := w.l.GetInode(f.ino); e == nil {
				f.edit(&in)
				ok, err = true, w.l.PutInode(f.ino, &in)
			}
		case fixOrphan:
			ok, err = true, w.l.ZeroInode(f.ino)
		case fixDir:
			dirs[f.ino] = true
		}
		if err != nil {
			return n, err
		}
		if ok {
			n++
		}
	}
	if w.l.Applied != nil {
		m, err := w.l.Applied(dirs)
		if n += m; err != nil {
			return n, err
		}
	}
	return n, w.l.Cache.Sync()
}

// editBlock rewrites part of one block through the cache.
func (w *Walk) editBlock(block int64, edit func(p []byte)) error {
	b, err := w.l.Cache.Read(block)
	if err != nil {
		return err
	}
	edit(b.Data)
	w.l.Cache.MarkDirty(b)
	b.Release()
	return nil
}

// clearPtr cuts one data or level-2 pointer of an inode. The freed
// block's bitmap state is corrected later by the allocation rewrite.
func (w *Walk) clearPtr(f fix) (bool, error) {
	in, err := w.l.GetInode(f.ino)
	if err != nil {
		return false, nil
	}
	if f.l2 {
		return in.DIndir != 0 && w.zeroPtrInBlock(int64(in.DIndir), int(f.lb)), nil
	}
	if err := w.l.ClearMapping(&in, f.lb); err != nil {
		return false, err
	}
	if f.lb < layout.NDirect {
		// Only a direct pointer lives in the inode; writing it back for
		// an indirect one would dirty a block the repair did not change.
		return true, w.l.PutInode(f.ino, &in)
	}
	return true, nil
}

// zeroPtrInBlock zeroes the kth pointer of a pointer block, reporting
// whether the block could be read.
func (w *Walk) zeroPtrInBlock(block int64, k int) bool {
	return w.editBlock(block, func(p []byte) { binary.LittleEndian.PutUint32(p[k*4:], 0) }) == nil
}
