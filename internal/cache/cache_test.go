package cache

import (
	"bytes"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/disk"
	"cffs/internal/obs"
	"cffs/internal/sched"
	"cffs/internal/sim"
)

func newCache(t *testing.T, capacity int) *Cache {
	t.Helper()
	d, err := disk.NewMem(disk.SeagateST31200(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	return New(blockio.NewDevice(d, sched.CLook{}), capacity)
}

func fillDisk(t *testing.T, c *Cache, phys int64, fill byte) {
	t.Helper()
	if err := c.Device().WriteBlock(phys, bytes.Repeat([]byte{fill}, blockio.BlockSize)); err != nil {
		t.Fatal(err)
	}
}

func TestReadMissThenHit(t *testing.T) {
	c := newCache(t, 16)
	fillDisk(t, c, 42, 0xAB)
	b, err := c.Read(42)
	if err != nil {
		t.Fatal(err)
	}
	if b.Data[0] != 0xAB {
		t.Fatalf("read data %x, want ab", b.Data[0])
	}
	b.Release()
	reqs := c.Device().Disk().Stats().Requests
	b2, err := c.Read(42)
	if err != nil {
		t.Fatal(err)
	}
	b2.Release()
	if got := c.Device().Disk().Stats().Requests; got != reqs {
		t.Fatal("second read touched the disk")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit 1 miss", s)
	}
}

func TestDelayedWriteGoesOutOnSync(t *testing.T) {
	c := newCache(t, 16)
	b, err := c.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	copy(b.Data, []byte("delayed"))
	c.MarkDirty(b)
	b.Release()
	if got := c.Device().Disk().Stats().Writes; got != 0 {
		t.Fatalf("dirty block written before Sync (%d writes)", got)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := c.Device().Disk().Stats().Writes; got != 1 {
		t.Fatalf("Sync wrote %d requests, want 1", got)
	}
	if c.NDirty() != 0 {
		t.Fatal("dirty count not cleared by Sync")
	}
	got := make([]byte, blockio.BlockSize)
	if err := c.Device().ReadBlock(10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("delayed")) {
		t.Fatal("synced data not on disk")
	}
}

func TestSyncClustersAdjacentDirtyBlocks(t *testing.T) {
	c := newCache(t, 64)
	for i := int64(0); i < 8; i++ {
		b, err := c.Alloc(100 + i)
		if err != nil {
			t.Fatal(err)
		}
		c.MarkDirty(b)
		b.Release()
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := c.Device().Disk().Stats().Requests; got != 1 {
		t.Fatalf("8 adjacent dirty blocks flushed in %d requests, want 1", got)
	}
}

func TestWriteSyncImmediate(t *testing.T) {
	c := newCache(t, 16)
	b, err := c.Alloc(7)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkDirty(b)
	if err := c.WriteSync(b); err != nil {
		t.Fatal(err)
	}
	b.Release()
	if c.NDirty() != 0 {
		t.Fatal("WriteSync left buffer dirty")
	}
	if got := c.Device().Disk().Stats().Writes; got != 1 {
		t.Fatalf("WriteSync issued %d writes, want 1", got)
	}
}

func TestEvictionLRUAndCapacity(t *testing.T) {
	c := newCache(t, 8)
	for i := int64(0); i < 20; i++ {
		b, err := c.Alloc(i)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	if c.Len() > 8 {
		t.Fatalf("cache holds %d blocks, capacity 8", c.Len())
	}
	if c.Peek(0) != nil {
		t.Fatal("oldest block not evicted")
	}
	if c.Peek(19) == nil {
		t.Fatal("newest block evicted")
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestEvictionFlushesDirtyClustered(t *testing.T) {
	c := newCache(t, 8)
	for i := int64(0); i < 8; i++ {
		b, err := c.Alloc(200 + i)
		if err != nil {
			t.Fatal(err)
		}
		c.MarkDirty(b)
		b.Release()
	}
	// Trigger eviction; the dirty tail must be flushed as a batch.
	b, err := c.Alloc(500)
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	if got := c.Device().Disk().Stats().Requests; got != 1 {
		t.Fatalf("eviction flush used %d requests, want 1 merged write", got)
	}
}

func TestFlushClusteredExpandsSeedToRun(t *testing.T) {
	c := newCache(t, 64)
	// A contiguous dirty run (an explicit group's worth of data blocks)
	// plus one isolated dirty block far away, dirtied later.
	for i := int64(0); i < 16; i++ {
		b, err := c.Alloc(100 + i)
		if err != nil {
			t.Fatal(err)
		}
		c.MarkDirty(b)
		b.Release()
	}
	b, err := c.Alloc(900)
	if err != nil {
		t.Fatal(err)
	}
	c.MarkDirty(b)
	b.Release()

	// One seed (the oldest dirty block, 100) must drag the whole
	// contiguous run out as a single merged transfer, and leave the
	// unrelated distant block dirty.
	n, err := c.FlushClustered(1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 16 {
		t.Fatalf("FlushClustered wrote %d blocks, want the full 16-block run", n)
	}
	if got := c.Device().Disk().Stats().Requests; got != 1 {
		t.Fatalf("clustered flush used %d requests, want 1 merged write", got)
	}
	if c.NDirty() != 1 {
		t.Fatalf("%d dirty blocks remain, want only the distant one", c.NDirty())
	}
	if !c.Peek(900).Dirty() {
		t.Fatal("distant block flushed by an unrelated seed")
	}
}

func TestPinnedBuffersNotEvicted(t *testing.T) {
	c := newCache(t, 4)
	pinned, err := c.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(2); i < 10; i++ {
		b, err := c.Alloc(i)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	if c.Peek(1) != pinned {
		t.Fatal("pinned buffer evicted")
	}
	pinned.Release()
}

func TestAllPinnedErrors(t *testing.T) {
	c := newCache(t, 4)
	var bufs []*Buf
	for i := int64(0); i < 4; i++ {
		b, err := c.Alloc(i)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	if _, err := c.Alloc(99); err == nil {
		t.Fatal("allocation succeeded with all buffers pinned")
	}
	for _, b := range bufs {
		b.Release()
	}
}

func TestDualIndex(t *testing.T) {
	c := newCache(t, 16)
	b, err := c.Alloc(33)
	if err != nil {
		t.Fatal(err)
	}
	id := ID{Ino: 5, LBlock: 2}
	c.SetID(b, id)
	b.Release()
	got := c.GetByID(id)
	if got == nil || got.Block != 33 {
		t.Fatal("logical index lookup failed")
	}
	got.Release()
	// Reassigning identity updates both directions.
	b2, _ := c.Alloc(44)
	c.SetID(b2, id)
	b2.Release()
	got = c.GetByID(id)
	if got == nil || got.Block != 44 {
		t.Fatal("identity reassignment not reflected in logical index")
	}
	got.Release()
	if gid, ok := c.Peek(33).ID(); ok && gid == id {
		t.Fatal("old buffer kept stolen identity")
	}
}

func TestDropID(t *testing.T) {
	c := newCache(t, 16)
	b, _ := c.Alloc(3)
	id := ID{Ino: 9, LBlock: 0}
	c.SetID(b, id)
	c.DropID(b)
	b.Release()
	if got := c.GetByID(id); got != nil {
		got.Release()
		t.Fatal("dropped identity still resolves")
	}
}

func TestInvalidateDropsDirty(t *testing.T) {
	c := newCache(t, 16)
	b, _ := c.Alloc(70)
	c.MarkDirty(b)
	b.Release()
	c.Invalidate(70)
	if c.NDirty() != 0 || c.Peek(70) != nil {
		t.Fatal("invalidate did not drop dirty block")
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := c.Device().Disk().Stats().Writes; got != 0 {
		t.Fatal("invalidated block was written back")
	}
}

func TestReadRunSingleRequest(t *testing.T) {
	c := newCache(t, 64)
	for i := int64(0); i < 16; i++ {
		fillDisk(t, c, 300+i, byte(i))
	}
	c.Device().Disk().ResetStats()
	if err := c.ReadRun(300, 16); err != nil {
		t.Fatal(err)
	}
	if got := c.Device().Disk().Stats().Requests; got != 1 {
		t.Fatalf("ReadRun of 16 blocks used %d requests, want 1", got)
	}
	for i := int64(0); i < 16; i++ {
		b := c.Peek(300 + i)
		if b == nil || b.Data[0] != byte(i) {
			t.Fatalf("block %d missing or wrong after ReadRun", 300+i)
		}
	}
}

func TestReadRunSkipsResidentDirty(t *testing.T) {
	c := newCache(t, 64)
	b, _ := c.Alloc(405)
	copy(b.Data, []byte("dirty!"))
	c.MarkDirty(b)
	b.Release()
	if err := c.ReadRun(400, 16); err != nil {
		t.Fatal(err)
	}
	if got := c.Peek(405); !bytes.HasPrefix(got.Data, []byte("dirty!")) {
		t.Fatal("ReadRun clobbered a resident dirty block")
	}
	// Two sub-runs around the resident block: 400-404 and 406-415.
	if got := c.Device().Disk().Stats().Reads; got != 2 {
		t.Fatalf("ReadRun around resident block used %d reads, want 2", got)
	}
}

func TestFlushEmptiesCache(t *testing.T) {
	c := newCache(t, 16)
	b, _ := c.Alloc(11)
	c.MarkDirty(b)
	b.Release()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || c.NDirty() != 0 {
		t.Fatalf("Flush left %d blocks (%d dirty)", c.Len(), c.NDirty())
	}
	if got := c.Device().Disk().Stats().Writes; got != 1 {
		t.Fatal("Flush lost the dirty block")
	}
}

func TestFlushFailsWithPinned(t *testing.T) {
	c := newCache(t, 16)
	b, _ := c.Alloc(1)
	if err := c.Flush(); err == nil {
		t.Fatal("Flush succeeded with pinned buffer")
	}
	b.Release()
}

func TestReleaseUnpinnedPanics(t *testing.T) {
	c := newCache(t, 16)
	b, _ := c.Alloc(1)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	b.Release()
}

// A resident block is served with no allocation: the hit path is a
// shard-map probe, an atomic pin, one atomic load of the loaded flag
// and the (atomic) instruments of an attached registry.
func TestAllocsReadHit(t *testing.T) {
	c := newCache(t, 16)
	c.SetMetrics(obs.NewRegistry())
	fillDisk(t, c, 7, 0x5A)
	read := func() {
		b, err := c.Read(7)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	read() // the miss that loads it
	if got := testing.AllocsPerRun(100, read); got != 0 {
		t.Errorf("cache.Read hit: %.1f allocs/op, want 0", got)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits < 100 {
		t.Errorf("stats = %+v, want 1 miss and the rest hits", st)
	}
}

// A failed load must reach its caller as the error, leave nothing
// resident, and never be mistaken for a loaded buffer by a later hit.
func TestFailedLoadIsNotAHit(t *testing.T) {
	c := newCache(t, 16)
	bad := c.Device().Blocks() + 1
	for i := 0; i < 2; i++ {
		if b, err := c.Read(bad); err == nil {
			b.Release()
			t.Fatalf("read %d of out-of-range block %d succeeded", i, bad)
		}
	}
	if c.Len() != 0 || c.Stats().Hits != 0 {
		t.Errorf("failed load left %d resident blocks, %d hits", c.Len(), c.Stats().Hits)
	}
}
