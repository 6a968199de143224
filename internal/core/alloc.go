package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"cffs/internal/blockio"
	"cffs/internal/cache"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// Block allocation.
//
// The disk is divided into allocation groups (the FFS cylinder-group
// analogue). Each group's header block holds a block bitmap and a table
// of *group descriptors* — one per aligned 16-block extent of the data
// area — recording which directory owns the extent and which of its
// blocks hold grouped small-file data. Claiming, filling, and dissolving
// these extents is the allocator half of explicit grouping.

// groupDesc is a decoded group descriptor.
type groupDesc struct {
	Owner uint32 // external ino of the owning directory; 0 = unclaimed
	Used  uint16 // bitmap of grouped blocks within the extent
}

func (g groupDesc) full() bool { return g.Used == 1<<GroupBlocks-1 }

// blockBitmap views an AG header's block bitmap.
func (fs *FS) blockBitmap(hdr *cache.Buf) layout.Bitmap {
	return layout.NewBitmap(hdr.Data[agBmapOff:], fs.sb.AGBlocks)
}

func readDesc(hdr *cache.Buf, k int) groupDesc {
	le := binary.LittleEndian
	return groupDesc{Owner: le.Uint32(hdr.Data[agDescOff+k*8:]), Used: le.Uint16(hdr.Data[agDescOff+k*8+4:])}
}

func writeDesc(hdr *cache.Buf, k int, d groupDesc) {
	le := binary.LittleEndian
	le.PutUint32(hdr.Data[agDescOff+k*8:], d.Owner)
	le.PutUint16(hdr.Data[agDescOff+k*8+4:], d.Used)
}

// agOf returns the allocation group containing a physical block, or -1
// for the reserved region (superblock + inode map).
func (fs *FS) agOf(phys int64) int {
	off := phys - int64(1+mapBlocks)
	if off < 0 {
		return -1
	}
	ag := int(off / int64(fs.sb.AGBlocks))
	if ag >= fs.sb.NAG {
		return -1
	}
	return ag
}

// locateGroup maps a physical block to its group extent: the AG, the
// descriptor index, and the extent's first block. ok is false for
// blocks outside any group extent (headers, tail slack, reserved area).
func (fs *FS) locateGroup(phys int64) (ag, k int, start int64, ok bool) {
	ag = fs.agOf(phys)
	if ag < 0 {
		return 0, 0, 0, false
	}
	off := phys - fs.sb.groupBase(ag)
	if off < 0 {
		return 0, 0, 0, false
	}
	k = int(off / GroupBlocks)
	if k >= fs.sb.groupsPerAG() {
		return 0, 0, 0, false
	}
	return ag, k, fs.sb.groupBase(ag) + int64(k)*GroupBlocks, true
}

// groupID packs (ag, k) into the inode Group field (+1 so 0 means none).
func (fs *FS) groupID(ag, k int) uint32 { return uint32(ag*fs.sb.groupsPerAG()+k) + 1 }

// groupByID unpacks a Group field value.
func (fs *FS) groupByID(id uint32) (ag, k int, ok bool) {
	if id == 0 {
		return 0, 0, false
	}
	v := int(id - 1)
	ag, k = v/fs.sb.groupsPerAG(), v%fs.sb.groupsPerAG()
	if ag >= fs.sb.NAG {
		return 0, 0, false
	}
	return ag, k, true
}

// allocScattered claims one free block using conventional placement:
// hashed start within the preferred AG's data area (unrelated files land
// apart — locality without adjacency), scanning other AGs on pressure.
func (fs *FS) allocScattered(prefAG int, ino vfs.Ino) (int64, error) {
	return fs.allocFrom(prefAG, func(hdr *cache.Buf, ag int) int {
		bm := fs.blockBitmap(hdr)
		span := fs.sb.AGBlocks - 1
		from := 1 + int(mix64(uint64(ino))%uint64(span))
		return bm.FindClear(from)
	})
}

// allocNear claims the block at pref if free, else the nearest free
// block after it (file-internal clustering for large files). A
// preference past the end of the last allocation group (the previous
// block was the group's final one) falls back to a scan of that group.
func (fs *FS) allocNear(pref int64) (int64, error) {
	ag := fs.agOf(pref)
	if ag < 0 {
		ag = fs.sb.NAG - 1
		pref = -1
	}
	return fs.allocFrom(ag, func(hdr *cache.Buf, cur int) int {
		bm := fs.blockBitmap(hdr)
		from := 1
		if cur == ag {
			from = int(pref - fs.sb.agStart(ag))
			if from < 1 || from >= fs.sb.AGBlocks {
				from = 1
			}
		}
		return bm.FindClear(from)
	})
}

// allocFrom scans AGs starting at prefAG, applying pick to each header
// until it yields a block index.
func (fs *FS) allocFrom(prefAG int, pick func(hdr *cache.Buf, ag int) int) (int64, error) {
	for i := 0; i < fs.sb.NAG; i++ {
		ag := (prefAG + i) % fs.sb.NAG
		hdr, err := fs.c.Read(fs.sb.agStart(ag))
		if err != nil {
			return 0, err
		}
		idx := pick(hdr, ag)
		if idx <= 0 { // index 0 is the header itself
			hdr.Release()
			continue
		}
		bm := fs.blockBitmap(hdr)
		bm.Set(idx)
		fs.c.MarkDirty(hdr)
		hdr.Release()
		return fs.sb.agStart(ag) + int64(idx), nil
	}
	return 0, fmt.Errorf("cffs: %w", vfs.ErrNoSpace)
}

// allocGrouped claims a block for a small file inside a group owned by
// directory owner, preferring the file's own current group, then the
// directory's, then any group of the directory with space, then a fresh
// extent near prefAG. It returns the block and the group id it came
// from; on a fully grouped-out disk it falls back to scattered
// placement with group id 0.
func (fs *FS) allocGrouped(owner uint32, fileGroup uint32, ino vfs.Ino, prefAG int) (int64, uint32, error) {
	// 1. The file's current group.
	if phys, id, err := fs.tryGroup(fileGroup, owner); err != nil || phys != 0 {
		return phys, id, err
	}
	// 2. The owning directory's current group hint.
	din, err := fs.getInode(vfs.Ino(owner))
	if err == nil && din.Alive() {
		if phys, id, err := fs.tryGroup(din.Group, owner); err != nil || phys != 0 {
			return phys, id, err
		}
	}
	// 3. Any group owned by the directory with a free slot, in the AG of
	// the directory's hint (cheap scan of one header's descriptors). A
	// candidate can still come up empty — conventional allocations may
	// squat on its unclaimed slots — so keep scanning on failure.
	if ag, _, ok := fs.groupByID(din.Group); ok {
		prefAG = ag
	}
	hdr, err := fs.c.Read(fs.sb.agStart(prefAG))
	if err != nil {
		return 0, 0, err
	}
	for k := 0; k < fs.sb.groupsPerAG(); k++ {
		if d := readDesc(hdr, k); d.Owner != owner || d.full() {
			continue
		}
		// A failed claim only marks its own descriptor full, so claiming
		// mid-scan cannot change what the rest of the scan sees.
		phys, id, err := fs.claimInGroup(prefAG, k, owner)
		if err != nil || phys != 0 {
			hdr.Release()
			return phys, id, err
		}
	}
	hdr.Release()
	// 4. A fresh extent near the directory.
	for i := 0; i < fs.sb.NAG; i++ {
		ag := (prefAG + i) % fs.sb.NAG
		hdr, err := fs.c.Read(fs.sb.agStart(ag))
		if err != nil {
			return 0, 0, err
		}
		bm := fs.blockBitmap(hdr)
		baseOff := int(fs.sb.groupBase(ag) - fs.sb.agStart(ag))
		idx := fs.findExtent(bm, baseOff)
		if idx < 0 {
			hdr.Release()
			continue
		}
		k := (idx - baseOff) / GroupBlocks
		writeDesc(hdr, k, groupDesc{Owner: owner})
		fs.c.MarkDirty(hdr)
		hdr.Release()
		phys, id, err := fs.claimInGroup(ag, k, owner)
		if err != nil || phys != 0 {
			return phys, id, err
		}
	}
	// 5. No groupable space anywhere: scattered fallback.
	phys, err := fs.allocScattered(prefAG, ino)
	return phys, 0, err
}

// findExtent locates the first fully free group extent in a bitmap.
// baseOff is the AG-relative index of the first aligned extent (extent k
// covers bits [baseOff+k*16, baseOff+(k+1)*16)).
func (fs *FS) findExtent(bm layout.Bitmap, baseOff int) int {
	for k := 0; k < fs.sb.groupsPerAG(); k++ {
		base := baseOff + k*GroupBlocks
		free := true
		for i := 0; i < GroupBlocks; i++ {
			if bm.IsSet(base + i) {
				free = false
				break
			}
		}
		if free {
			return base
		}
	}
	return -1
}

// tryGroup allocates from group id if it is owned by owner and has
// space. A zero return with nil error means "try elsewhere".
func (fs *FS) tryGroup(id, owner uint32) (int64, uint32, error) {
	ag, k, ok := fs.groupByID(id)
	if !ok {
		return 0, 0, nil
	}
	hdr, err := fs.c.Read(fs.sb.agStart(ag))
	if err != nil {
		return 0, 0, err
	}
	d := readDesc(hdr, k)
	hdr.Release()
	if d.Owner != owner || d.full() {
		return 0, 0, nil
	}
	return fs.claimInGroup(ag, k, owner)
}

// claimInGroup takes the lowest free slot of extent (ag, k): sequential
// fills give physically adjacent files, the property the whole design
// is after.
func (fs *FS) claimInGroup(ag, k int, owner uint32) (int64, uint32, error) {
	hdr, err := fs.c.Read(fs.sb.agStart(ag))
	if err != nil {
		return 0, 0, err
	}
	defer hdr.Release()
	d := readDesc(hdr, k)
	if d.Owner != owner {
		return 0, 0, fmt.Errorf("cffs: group (%d,%d) owner changed under allocation", ag, k)
	}
	bm := fs.blockBitmap(hdr)
	base := int(fs.sb.groupBase(ag)-fs.sb.agStart(ag)) + k*GroupBlocks
	for i := 0; i < GroupBlocks; i++ {
		if d.Used&(1<<i) == 0 && !bm.IsSet(base+i) {
			d.Used |= 1 << i
			bm.Set(base + i)
			writeDesc(hdr, k, d)
			fs.c.MarkDirty(hdr)
			return fs.sb.agStart(ag) + int64(base+i), fs.groupID(ag, k), nil
		}
	}
	// All free slots were taken by scattered allocations squatting in
	// the extent; report no space in this group.
	d.Used = 1<<GroupBlocks - 1
	writeDesc(hdr, k, d)
	fs.c.MarkDirty(hdr)
	return 0, 0, nil
}

// freeBlock releases a block, maintaining the group descriptor when the
// block was grouped, drops any cached copy, and discards the block —
// at once, or through run when the caller is freeing many and flushes
// the run before it returns.
//
// Every block that leaves a file leaves through here, and a caller may
// only be here once its own write ordering lets the block be allocated
// again and overwritten: in ModeSync the ordered write that killed the
// last reference has already been issued; ModeDelayed orders nothing.
// That is exactly the condition under which the device may be told the
// contents are gone, so the discard needs no rule of its own. It must
// not be held back past this operation, though: the next allocation can
// hand the block out, and its new contents may reach the device (a
// WriteSync) before a deferred discard would.
func (fs *FS) freeBlock(phys int64, run *blockio.DiscardRun) error {
	ag := fs.agOf(phys)
	if ag < 0 {
		return fmt.Errorf("cffs: free of reserved block %d", phys)
	}
	hdr, err := fs.c.Read(fs.sb.agStart(ag))
	if err != nil {
		return err
	}
	defer hdr.Release()
	bm := fs.blockBitmap(hdr)
	idx := int(phys - fs.sb.agStart(ag))
	if idx == 0 {
		return fmt.Errorf("cffs: free of AG header %d", phys)
	}
	if !bm.IsSet(idx) {
		return fmt.Errorf("cffs: double free of block %d", phys)
	}
	bm.Clear(idx)
	if _, k, start, ok := fs.locateGroup(phys); ok {
		d := readDesc(hdr, k)
		bit := uint16(1) << (phys - start)
		if d.Owner != 0 && d.Used&bit != 0 {
			d.Used &^= bit
			if d.Used == 0 {
				d.Owner = 0 // group dissolved
			}
			writeDesc(hdr, k, d)
		}
	}
	fs.c.MarkDirty(hdr)
	fs.c.Invalidate(phys)
	if run == nil {
		return fs.dev.DiscardBlocks(phys, 1)
	}
	return run.Add(fs.dev, phys)
}

// usedSpan returns the extent-relative span [lo, lo+n) from the first to
// the last grouped block of a descriptor's Used bitmap (non-zero).
func usedSpan(used uint16) (lo, n int) {
	lo = bits.TrailingZeros16(used)
	return lo, bits.Len16(used) - lo
}

// group is one lookup of the descriptor covering a block: where the
// extent is, its id, and the physical span [start, start+count) of its
// grouped blocks — what a group read fetches.
type group struct {
	ag, k int
	id    uint32
	start int64
	count int
}

// groupOf looks up the group a block belongs to. ok is false when phys
// is not part of a claimed group.
func (fs *FS) groupOf(phys int64) (g group, ok bool) {
	ag, k, start, ok := fs.locateGroup(phys)
	if !ok {
		return group{}, false
	}
	hdr, err := fs.c.Read(fs.sb.agStart(ag))
	if err != nil {
		return group{}, false
	}
	d := readDesc(hdr, k)
	hdr.Release()
	// Only blocks that are actually part of the group participate in
	// group reads; conventional allocations squatting inside the extent
	// (e.g. the tail of a large file) are not the group's responsibility.
	if d.Owner == 0 || d.Used&(1<<(phys-start)) == 0 {
		return group{}, false
	}
	lo, n := usedSpan(d.Used)
	return group{ag: ag, k: k, id: fs.groupID(ag, k), start: start + int64(lo), count: n}, true
}

// nextOwnedSpans returns the grouped spans of up to fan further extents
// owned by the same directory as extent (ag, k), scanning forward
// through the same AG header. Extents whose span is already (or still)
// resident are skipped — the readahead targets the cold sequel of a
// directory scan, not re-fetches.
//
// When the same-owner scan leaves the fan unfilled, the readahead
// continues into the following AGs: first their headers (one block
// each), then — once a header is resident from an earlier batch — the
// leading grouped extents it describes, whoever owns them. Namespace-
// order scans (tar, build trees, the small-file benchmark) walk
// directories in exactly that AG order, so each directory's batch warms
// the next directory's header and groups, and on a striped volume the
// continuation keeps every spindle streaming instead of starting each
// directory with a cold serial header read.
func (fs *FS) nextOwnedSpans(ag, k, fan int) []cache.Run {
	hdr, err := fs.c.Read(fs.sb.agStart(ag))
	if err != nil {
		return nil
	}
	owner := readDesc(hdr, k).Owner
	var runs []cache.Run
	if owner != 0 {
		runs = fs.spanScan(hdr, ag, k+1, owner, fan)
	}
	hdr.Release()
	for next := ag + 1; next < fs.sb.NAG && next <= ag+2; next++ {
		hstart := fs.sb.agStart(next)
		// Header and inode-file ride-alongs are free parallelism, not
		// part of the extent fan.
		cold := fs.c.Peek(hstart) == nil
		if cold {
			runs = append(runs, cache.Run{Start: hstart, Count: 1})
		}
		runs = append(runs, fs.coldInodeBlocks(next)...)
		if cold || len(runs) >= fan {
			break
		}
		nh, err := fs.c.Read(hstart) // resident: a hit, no I/O
		if err != nil {
			break
		}
		runs = append(runs, fs.spanScan(nh, next, 0, 0, fan-len(runs))...)
		nh.Release()
	}
	return runs
}

// coldInodeBlocks returns single-block runs for the inode-file blocks
// that live in AG ag and are not resident. Directories keep
// externalized inodes in per-neighborhood inode-file blocks (see
// allocExtInode), so a namespace-order scan pays one cold inode-file
// read per directory right before that directory's header and groups —
// riding the block along with the previous directory's batch removes
// it from the serial path. The inode map itself is consulted only when
// already resident; this is readahead, it must not add misses.
func (fs *FS) coldInodeBlocks(ag int) []cache.Run {
	lo, hi := fs.sb.agStart(ag), fs.sb.agStart(ag+1)
	var runs []cache.Run
	for fb := 0; fb < fs.sb.ExtBlocks; fb += layout.PtrsPerBlock {
		mapBlk := int64(1 + fb/layout.PtrsPerBlock)
		if fs.c.Peek(mapBlk) == nil {
			continue
		}
		mb, err := fs.c.Read(mapBlk) // resident: a hit, no I/O
		if err != nil {
			continue
		}
		n := fs.sb.ExtBlocks - fb
		if n > layout.PtrsPerBlock {
			n = layout.PtrsPerBlock
		}
		le := binary.LittleEndian
		for i := 0; i < n; i++ {
			phys := int64(le.Uint32(mb.Data[i*4:]))
			if phys >= lo && phys < hi && fs.c.Peek(phys) == nil {
				runs = append(runs, cache.Run{Start: phys, Count: 1})
			}
		}
		mb.Release()
	}
	return runs
}

// spanScan collects the cold allocated spans of AG ag's group extents
// from slot k on, reading descriptors from the pinned header hdr. With
// owner non-zero only that directory's extents count; with owner zero
// any in-use extent does (the cross-AG continuation).
func (fs *FS) spanScan(hdr *cache.Buf, ag, k int, owner uint32, fan int) []cache.Run {
	var runs []cache.Run
	for j := k; j < fs.sb.groupsPerAG() && len(runs) < fan; j++ {
		d := readDesc(hdr, j)
		if d.Used == 0 || (owner != 0 && d.Owner != owner) {
			continue
		}
		lo, n := usedSpan(d.Used)
		start := fs.sb.groupBase(ag) + int64(j)*GroupBlocks + int64(lo)
		if fs.c.Peek(start) != nil {
			continue
		}
		runs = append(runs, cache.Run{Start: start, Count: n})
	}
	return runs
}

// mix64 is the splitmix64 finalizer, used for scattered placement.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// countFree implements FreeBlocks; the FS lock is held.
func (fs *FS) countFree() (int64, error) {
	var total int64
	for ag := 0; ag < fs.sb.NAG; ag++ {
		hdr, err := fs.c.Read(fs.sb.agStart(ag))
		if err != nil {
			return 0, err
		}
		total += int64(fs.blockBitmap(hdr).CountClear())
		hdr.Release()
	}
	return total, nil
}
