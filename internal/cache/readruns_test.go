package cache

import (
	"testing"
)

// ReadRuns must land every named block in the cache in one submission:
// afterwards each block is a hit with the right contents.
func TestReadRunsFillsAllRuns(t *testing.T) {
	c := newCache(t, 64)
	runs := []Run{{Start: 100, Count: 4}, {Start: 300, Count: 3}, {Start: 900, Count: 1}}
	want := map[int64]byte{}
	for _, r := range runs {
		for i := int64(0); i < int64(r.Count); i++ {
			fill := byte(0x10 + r.Start/100 + i)
			fillDisk(t, c, r.Start+i, fill)
			want[r.Start+i] = fill
		}
	}
	if err := c.ReadRuns(runs); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().PrefetchFills; got != 8 {
		t.Fatalf("prefetch fills = %d, want 8", got)
	}
	reqs := c.Device().Disk().Stats().Requests
	for phys, fill := range want {
		b, err := c.Read(phys)
		if err != nil {
			t.Fatal(err)
		}
		if b.Data[0] != fill {
			t.Errorf("block %d: data %#x, want %#x", phys, b.Data[0], fill)
		}
		b.Release()
	}
	if got := c.Device().Disk().Stats().Requests; got != reqs {
		t.Fatalf("demand reads after ReadRuns touched the disk (%d extra requests)", got-reqs)
	}
}

// Resident blocks are skipped: only the cold tail of a run is fetched,
// and the resident block keeps its (dirty) contents.
func TestReadRunsSkipsResident(t *testing.T) {
	c := newCache(t, 64)
	for i := int64(0); i < 4; i++ {
		fillDisk(t, c, 50+i, byte(i))
	}
	b, err := c.Read(51)
	if err != nil {
		t.Fatal(err)
	}
	b.Data[0] = 0xEE // modify in cache; a refetch would clobber this
	c.MarkDirty(b)
	b.Release()

	if err := c.ReadRuns([]Run{{Start: 50, Count: 4}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().PrefetchFills; got != 3 {
		t.Fatalf("prefetch fills = %d, want 3 (block 51 resident)", got)
	}
	b, err = c.Read(51)
	if err != nil {
		t.Fatal(err)
	}
	if b.Data[0] != 0xEE {
		t.Fatal("ReadRuns clobbered a resident dirty block")
	}
	b.Release()
}

// The claim is capped at half the cache capacity so a wide fan cannot
// evict the working set; blocks past the cap just aren't prefetched.
func TestReadRunsCapacityCap(t *testing.T) {
	c := newCache(t, 8) // cap = 4
	for i := int64(0); i < 10; i++ {
		fillDisk(t, c, 200+i, byte(i))
	}
	if err := c.ReadRuns([]Run{{Start: 200, Count: 10}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().PrefetchFills; got != 4 {
		t.Fatalf("prefetch fills = %d, want 4 (half of capacity 8)", got)
	}
	// The uncapped tail still reads correctly on demand.
	b, err := c.Read(209)
	if err != nil {
		t.Fatal(err)
	}
	if b.Data[0] != 9 {
		t.Fatalf("tail block data %d, want 9", b.Data[0])
	}
	b.Release()
}

// An empty or fully-resident request is a no-op, not an error.
func TestReadRunsNoop(t *testing.T) {
	c := newCache(t, 16)
	if err := c.ReadRuns(nil); err != nil {
		t.Fatal(err)
	}
	fillDisk(t, c, 7, 1)
	b, err := c.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	if err := c.ReadRuns([]Run{{Start: 7, Count: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().PrefetchFills; got != 0 {
		t.Fatalf("prefetch fills = %d, want 0", got)
	}
}

// Speculative fills resolve in Stats with no registry attached: used on
// the first hit (and only the first), unused on leaving the cache — by
// eviction, invalidation or Flush — without one. A file system policy
// reads these, so they may not depend on SetMetrics.
func TestSpeculativeFillsResolveWithoutRegistry(t *testing.T) {
	c := newCache(t, 8)
	for i := int64(0); i < 12; i++ {
		fillDisk(t, c, 100+i, byte(i))
	}
	if err := c.ReadRun(100, 4); err != nil {
		t.Fatal(err)
	}
	for range 2 { // the second hit resolves nothing
		b, err := c.Read(100)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	c.Invalidate(101)
	if st := c.Stats(); st.PrefetchUsed != 1 || st.PrefetchUnused != 1 {
		t.Fatalf("after one hit and one invalidation: used %d, unused %d", st.PrefetchUsed, st.PrefetchUnused)
	}
	// Eight demand reads push the two remaining marked blocks out.
	for i := int64(4); i < 12; i++ {
		b, err := c.Read(100 + i)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	if st := c.Stats(); st.PrefetchUsed != 1 || st.PrefetchUnused != 3 {
		t.Fatalf("after eviction: used %d, unused %d, want 1 and 3", st.PrefetchUsed, st.PrefetchUnused)
	}
	if st := c.Stats(); st.PrefetchUsed+st.PrefetchUnused != st.PrefetchFills {
		t.Fatalf("%d fills, %d resolved", st.PrefetchFills, st.PrefetchUsed+st.PrefetchUnused)
	}
}

// A demand run is one disk request like a speculative one, but its
// blocks are misses: unmarked, so they never resolve as used or unused.
func TestReadDemandCountsMisses(t *testing.T) {
	c := newCache(t, 16)
	for i := int64(0); i < 4; i++ {
		fillDisk(t, c, 40+i, byte(0x40+i))
	}
	reqs := c.Device().Disk().Stats().Requests
	if err := c.ReadDemand(40, 4); err != nil {
		t.Fatal(err)
	}
	if got := c.Device().Disk().Stats().Requests - reqs; got != 1 {
		t.Fatalf("ReadDemand of 4 contiguous blocks issued %d requests", got)
	}
	for i := int64(0); i < 4; i++ {
		b, err := c.Read(40 + i)
		if err != nil {
			t.Fatal(err)
		}
		if b.Data[0] != byte(0x40+i) {
			t.Errorf("block %d: data %#x", 40+i, b.Data[0])
		}
		b.Release()
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 4 || st.Hits != 4 || st.PrefetchFills != 0 || st.PrefetchUsed != 0 || st.PrefetchUnused != 0 {
		t.Fatalf("stats after a demand run, its reads and a flush: %+v", st)
	}
}
