package ssd

import (
	"math/rand"
	"testing"
)

// checkFTL asserts every structural invariant of the mapping against a
// from-scratch recount. Shared with FuzzSSDMapping.
func checkFTL(t *testing.T, f *ftl) {
	t.Helper()
	// l2p and p2l agree.
	for lpn, ppn := range f.l2p {
		if ppn < 0 {
			continue
		}
		if got := f.p2l[ppn]; got != int32(lpn) {
			t.Fatalf("l2p[%d]=%d but p2l[%d]=%d", lpn, ppn, ppn, got)
		}
	}
	for ppn, lpn := range f.p2l {
		if lpn < 0 {
			continue
		}
		if got := f.l2p[lpn]; got != int32(ppn) {
			t.Fatalf("p2l[%d]=%d but l2p[%d]=%d", ppn, lpn, lpn, got)
		}
	}
	// Per-block valid counts match a recount.
	for b := 0; b < f.nBlocks; b++ {
		n := int32(0)
		for i := 0; i < f.ppb; i++ {
			if f.p2l[b*f.ppb+i] >= 0 {
				n++
			}
		}
		if n != f.valid[b] {
			t.Fatalf("block %d: valid=%d, recount %d", b, f.valid[b], n)
		}
	}
	// Free blocks hold no valid pages, and isFree matches the pool.
	inPool := make(map[int]bool, len(f.free))
	for _, b := range f.free {
		if f.valid[b] != 0 {
			t.Fatalf("free block %d has %d valid pages", b, f.valid[b])
		}
		if b == f.active {
			t.Fatalf("active block %d is in the free pool", b)
		}
		inPool[b] = true
	}
	for b := 0; b < f.nBlocks; b++ {
		if f.isFree[b] != inPool[b] {
			t.Fatalf("block %d: isFree=%v, pool membership %v", b, f.isFree[b], inPool[b])
		}
	}
	// The running erase maximum equals a scan of the per-block counts.
	var max int32
	for _, e := range f.erases {
		if e > max {
			max = e
		}
	}
	if f.maxErase != max {
		t.Fatalf("running max erase %d, scan of erases finds %d", f.maxErase, max)
	}
}

func TestFTLWriteRemap(t *testing.T) {
	f, err := newFTL(256, 16, 2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.write(7); err != nil {
		t.Fatal(err)
	}
	first := f.l2p[7]
	if first < 0 {
		t.Fatal("page 7 unmapped after write")
	}
	if _, err := f.write(7); err != nil {
		t.Fatal(err)
	}
	if f.l2p[7] == first {
		t.Fatal("rewrite did not relocate the page (in-place update)")
	}
	if f.p2l[first] != -1 {
		t.Fatal("old physical page still mapped after rewrite")
	}
	if f.hostPages != 2 || f.flashPages != 2 {
		t.Fatalf("host=%d flash=%d after 2 writes", f.hostPages, f.flashPages)
	}
	checkFTL(t, f)
}

func TestFTLTrim(t *testing.T) {
	f, err := newFTL(256, 16, 2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.write(3); err != nil {
		t.Fatal(err)
	}
	if err := f.trim(3); err != nil {
		t.Fatal(err)
	}
	if f.l2p[3] != -1 {
		t.Fatal("page mapped after trim")
	}
	if f.trims != 1 {
		t.Fatalf("trims=%d", f.trims)
	}
	// Trimming an unmapped page — never written, or trimmed already —
	// is a no-op, not an error, and not counted as work.
	for _, lpn := range []int{100, 3} {
		if err := f.trim(lpn); err != nil {
			t.Fatal(err)
		}
	}
	if f.trims != 1 {
		t.Fatalf("trims=%d after trimming two unmapped pages, want 1", f.trims)
	}
	checkFTL(t, f)
}

func TestFTLBounds(t *testing.T) {
	f, err := newFTL(64, 16, 2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.write(-1); err == nil {
		t.Fatal("negative page accepted")
	}
	if _, err := f.write(64); err == nil {
		t.Fatal("out-of-range page accepted")
	}
	if err := f.trim(64); err == nil {
		t.Fatal("out-of-range trim accepted")
	}
}

// TestFTLGCReclaims overwrites a small logical range far past the
// device capacity: GC must keep the free pool at the reserve, write
// amplification must stay finite, and every invariant must hold at
// steady state.
func TestFTLGCReclaims(t *testing.T) {
	f, err := newFTL(1024, 16, 2, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	// Random overwrites: victims keep live pages, so GC must migrate.
	// (A purely sequential overwrite pattern invalidates whole blocks
	// and GC reclaims them for free — write amplification 1.0.)
	rng := rand.New(rand.NewSource(1))
	writes := f.nBlocks * f.ppb * 4 // four device fills
	for i := 0; i < writes; i++ {
		if _, err := f.write(rng.Intn(f.nLogical)); err != nil {
			t.Fatal(err)
		}
		if len(f.free) < f.reserve {
			t.Fatalf("free pool %d below reserve %d after write %d", len(f.free), f.reserve, i)
		}
	}
	if f.gcRuns == 0 || f.eraseOps == 0 {
		t.Fatalf("no GC after %d writes on %d-page device (runs=%d erases=%d)",
			writes, f.nBlocks*f.ppb, f.gcRuns, f.eraseOps)
	}
	if wa := f.writeAmp(); wa <= 1 {
		t.Fatalf("write amplification %.3f not above 1 at steady state", wa)
	}
	if f.maxErase == 0 {
		t.Fatal("no erase wear recorded")
	}
	checkFTL(t, f)
}

// TestFTLFullDeviceProgress writes every logical page, then keeps
// rewriting: the tightest legal configuration must still make progress
// (GC finds invalid pages because spare blocks exceed logical capacity).
func TestFTLFullDeviceProgress(t *testing.T) {
	f, err := newFTL(512, 8, 2, 0) // over-provision clamped up to the minimum
	if err != nil {
		t.Fatal(err)
	}
	for lpn := 0; lpn < f.nLogical; lpn++ {
		if _, err := f.write(lpn); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < f.nLogical; i++ {
		if _, err := f.write(i); err != nil {
			t.Fatal(err)
		}
	}
	checkFTL(t, f)
}

func TestFTLFillResetsAccounting(t *testing.T) {
	f, err := newFTL(1024, 16, 2, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	f.fill()
	if f.hostPages != 0 || f.flashPages != 0 || f.gcRuns != 0 || f.eraseOps != 0 {
		t.Fatalf("accounting not zeroed after fill: host=%d flash=%d runs=%d erases=%d",
			f.hostPages, f.flashPages, f.gcRuns, f.eraseOps)
	}
	if f.maxErase != 0 {
		t.Fatal("erase counts not zeroed after fill")
	}
	// Every logical page is mapped: the log has wrapped.
	for lpn, ppn := range f.l2p {
		if ppn < 0 {
			t.Fatalf("page %d unmapped after fill", lpn)
		}
	}
	checkFTL(t, f)
	// The first sustained overwrite burst on the aged mapping must GC.
	for i := 0; i < f.nBlocks*f.ppb; i++ {
		if _, err := f.write(i % f.nLogical); err != nil {
			t.Fatal(err)
		}
	}
	if f.gcRuns == 0 {
		t.Fatal("aged FTL did not GC under overwrite load")
	}
	checkFTL(t, f)
}

// TestFTLDeterminism runs the same op sequence twice and requires
// identical mappings and accounting — the property aged benchmark
// images depend on.
func TestFTLDeterminism(t *testing.T) {
	run := func() *ftl {
		f, err := newFTL(512, 16, 3, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 5000; i++ {
			lpn := rng.Intn(f.nLogical)
			if rng.Intn(8) == 0 {
				if err := f.trim(lpn); err != nil {
					t.Fatal(err)
				}
			} else if _, err := f.write(lpn); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	a, b := run(), run()
	for lpn := range a.l2p {
		if a.l2p[lpn] != b.l2p[lpn] {
			t.Fatalf("l2p[%d] differs between identical runs: %d vs %d", lpn, a.l2p[lpn], b.l2p[lpn])
		}
	}
	if a.flashPages != b.flashPages || a.eraseOps != b.eraseOps || a.moved != b.moved {
		t.Fatalf("accounting differs: flash %d/%d erases %d/%d moved %d/%d",
			a.flashPages, b.flashPages, a.eraseOps, b.eraseOps, a.moved, b.moved)
	}
	checkFTL(t, a)
}
