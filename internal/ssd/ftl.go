package ssd

import "fmt"

// ftl is the flash translation layer: a log-structured page mapping
// from logical pages (what the host addresses) to physical pages (where
// the flash actually programmed them), with greedy garbage collection.
//
// The FTL is an accounting model, not a data path. The byte store under
// the device always holds logical data at logical offsets — that is
// what keeps fsck, the fault injector, and crash-state reconstruction
// working unchanged on the ssd backend. What the mapping buys is the
// *cost* structure of flash: out-of-place writes, erase-block
// granularity reclaim, write amplification when live pages must move to
// free a block, and erase-count wear. All of it is deterministic, so
// aged-image benchmarks reproduce bit-for-bit.
//
// Invariants (checked by the oracle in ftl_test.go and FuzzSSDMapping):
//   - a mapped logical page has exactly one valid physical page, and
//     the reverse map agrees;
//   - a physical page holds at most one logical page;
//   - per-block valid counts equal the number of mapped pages in the
//     block;
//   - the active block is never a GC victim and free blocks hold no
//     valid pages.
type ftl struct {
	ppb      int // pages per erase block
	nLogical int // logical pages the host may address
	nBlocks  int // physical erase blocks
	reserve  int // free blocks below which GC collects

	l2p    []int32 // logical page -> physical page; -1 unmapped
	p2l    []int32 // physical page -> logical page; -1 free or invalid
	valid  []int32 // per-block count of valid (mapped) pages
	erases []int32 // per-block erase count

	active     int    // block currently being programmed
	activeNext int    // next free page slot within the active block
	free       []int  // free blocks, popped from the end (LIFO, deterministic)
	isFree     []bool // per-block free-pool membership

	// Cumulative accounting. hostPages counts pages the host asked to
	// write; flashPages counts pages actually programmed (host +
	// migrated); their ratio is the write amplification.
	hostPages  int64
	flashPages int64
	moved      int64 // pages relocated by GC
	eraseOps   int64
	gcRuns     int64
	trims      int64
	maxErase   int32 // highest entry of erases (wear skew); counts only grow
}

// newFTL builds the mapping for nLogical pages with the given erase
// block size, over-provisioning fraction, and GC reserve.
func newFTL(nLogical, ppb, reserve int, overProvision float64) (*ftl, error) {
	if nLogical <= 0 || ppb <= 0 {
		return nil, fmt.Errorf("ssd: ftl with %d logical pages, %d pages/block", nLogical, ppb)
	}
	// A reserve below 2 cannot guarantee progress: sealing the active
	// block mid-migration pops one more free block, so GC must always
	// start with at least one block in the pool.
	if reserve < 2 {
		reserve = 2
	}
	logicalBlocks := (nLogical + ppb - 1) / ppb
	spare := int(float64(logicalBlocks) * overProvision)
	// GC needs headroom to make progress: the active block plus the
	// reserve must exist beyond the logical capacity, or a full device
	// would have no invalid pages to reclaim.
	if min := reserve + 2; spare < min {
		spare = min
	}
	nBlocks := logicalBlocks + spare
	f := &ftl{
		ppb:      ppb,
		nLogical: nLogical,
		nBlocks:  nBlocks,
		reserve:  reserve,
		l2p:      make([]int32, nLogical),
		p2l:      make([]int32, nBlocks*ppb),
		valid:    make([]int32, nBlocks),
		erases:   make([]int32, nBlocks),
	}
	for i := range f.l2p {
		f.l2p[i] = -1
	}
	for i := range f.p2l {
		f.p2l[i] = -1
	}
	// Block 0 starts active; the rest are free. The free stack is
	// populated in descending order so pops walk the device in
	// ascending block order — purely for deterministic, readable
	// physical layouts.
	f.active = 0
	f.free = make([]int, 0, nBlocks-1)
	f.isFree = make([]bool, nBlocks)
	for b := nBlocks - 1; b >= 1; b-- {
		f.free = append(f.free, b)
		f.isFree[b] = true
	}
	return f, nil
}

// gcCost is what one maybeGC round did, for the device's clock and
// counters. The zero value means GC did not run.
type gcCost struct {
	moved  int64 // pages migrated
	erases int64 // blocks erased
}

// write maps one host page write, running GC if the write left the
// free pool below the reserve. It returns the GC work performed.
func (f *ftl) write(lpn int) (gcCost, error) {
	if lpn < 0 || lpn >= f.nLogical {
		return gcCost{}, fmt.Errorf("ssd: logical page %d outside [0,%d)", lpn, f.nLogical)
	}
	f.program(lpn)
	f.hostPages++
	f.flashPages++
	return f.maybeGC(), nil
}

// trim unmaps one logical page (the host declares it dead), turning its
// physical page invalid without programming anything. trims counts the
// pages that were mapped: a page already unmapped is not work.
func (f *ftl) trim(lpn int) error {
	if lpn < 0 || lpn >= f.nLogical {
		return fmt.Errorf("ssd: logical page %d outside [0,%d)", lpn, f.nLogical)
	}
	if f.l2p[lpn] >= 0 {
		f.invalidate(lpn)
		f.trims++
	}
	return nil
}

// program appends lpn to the active block, invalidating any previous
// mapping. It assumes a free page exists (guaranteed by construction:
// GC runs after every write and keeps the reserve stocked).
func (f *ftl) program(lpn int) {
	f.invalidate(lpn)
	if f.activeNext == f.ppb {
		// Active block sealed; open the next free block.
		last := len(f.free) - 1
		f.active, f.free = f.free[last], f.free[:last]
		f.isFree[f.active] = false
		f.activeNext = 0
	}
	ppn := int32(f.active*f.ppb + f.activeNext)
	f.activeNext++
	f.l2p[lpn] = ppn
	f.p2l[ppn] = int32(lpn)
	f.valid[f.active]++
}

// invalidate clears lpn's current mapping, if any.
func (f *ftl) invalidate(lpn int) {
	if old := f.l2p[lpn]; old >= 0 {
		f.p2l[old] = -1
		f.valid[old/int32(f.ppb)]--
		f.l2p[lpn] = -1
	}
}

// maybeGC collects blocks until the free pool is back above the
// reserve. The victim policy is greedy: the sealed block with the
// fewest valid pages. A victim's survivors are re-programmed into the
// active block (that is the write amplification) and the victim is
// erased.
func (f *ftl) maybeGC() gcCost {
	var cost gcCost
	ran := false
	for len(f.free) < f.reserve {
		victim := f.pickVictim()
		if victim < 0 {
			break // nothing reclaimable; only possible when over-full
		}
		ran = true
		base := victim * f.ppb
		for i := 0; i < f.ppb; i++ {
			lpn := f.p2l[base+i]
			if lpn < 0 {
				continue
			}
			f.program(int(lpn))
			f.flashPages++
			f.moved++
			cost.moved++
		}
		// All pages are now invalid; erase and return to the pool.
		for i := 0; i < f.ppb; i++ {
			f.p2l[base+i] = -1
		}
		f.valid[victim] = 0
		f.erases[victim]++
		if f.erases[victim] > f.maxErase {
			f.maxErase = f.erases[victim]
		}
		f.eraseOps++
		cost.erases++
		f.free = append(f.free, victim)
		f.isFree[victim] = true
	}
	if ran {
		f.gcRuns++
	}
	return cost
}

// pickVictim returns the sealed block with the fewest valid pages, or
// -1 when no block would yield net free space (every sealed block fully
// valid). Fully-valid blocks are never collected: migrating one
// consumes exactly as many pages as it frees.
func (f *ftl) pickVictim() int {
	best, bestValid := -1, int32(f.ppb)
	for b := 0; b < f.nBlocks; b++ {
		if b == f.active || f.isFree[b] {
			continue
		}
		if f.valid[b] < bestValid {
			best, bestValid = b, f.valid[b]
		}
	}
	return best
}

// fill simulates a full device history: every logical page written
// once, then strided overwrites until the free pool first touches the
// reserve — the point past which every sealed block forces a
// collection. The accounting is then zeroed so measurements start from
// the aged state rather than from the fill. This is the FTL half of an
// "aged" image: on a fresh FTL the log never wraps within a benchmark's
// write volume, the over-provisioned free pool absorbs everything, and
// GC stays silent — exactly like a fresh drive.
func (f *ftl) fill() {
	for lpn := 0; lpn < f.nLogical; lpn++ {
		f.program(lpn)
		f.maybeGC()
	}
	// Strided, not sequential: scattered invalidations leave every
	// victim partially valid, so steady-state GC really migrates pages
	// (sequential overwrites would hand GC fully-invalid blocks for
	// free). The prime stride visits every page before repeating.
	const stride = 7919
	for i := 0; len(f.free) > f.reserve; i++ {
		f.program(i * stride % f.nLogical)
		f.maybeGC()
	}
	f.hostPages, f.flashPages = 0, 0
	f.moved, f.eraseOps, f.gcRuns, f.trims, f.maxErase = 0, 0, 0, 0, 0
	for i := range f.erases {
		f.erases[i] = 0
	}
}

// writeAmp is flash pages programmed per host page written; 1.0 until
// GC first moves a survivor.
func (f *ftl) writeAmp() float64 {
	if f.hostPages == 0 {
		return 1
	}
	return float64(f.flashPages) / float64(f.hostPages)
}

// freeBlocks returns the current free pool size.
func (f *ftl) freeBlocks() int { return len(f.free) }
