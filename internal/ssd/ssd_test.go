package ssd

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/disk"
	"cffs/internal/flatdev"
	"cffs/internal/obs"
	"cffs/internal/sim"
)

const testCap = 4 << 20 // 4 MB: small enough that GC tests are cheap

// svcNs is what one nsect-sector request costs the host under spec.
func svcNs(spec Spec, nsect int) int64 {
	return int64(spec.ReqOverhead*1e9) + int64(float64(nsect)*disk.SectorSize/spec.Bandwidth*1e9)
}

func newTestStore(t *testing.T, spec Spec) *Store {
	t.Helper()
	d, err := NewMem(spec, sim.NewClock(), testCap)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRoundTrip(t *testing.T) {
	d := newTestStore(t, DefaultSpec())
	buf := bytes.Repeat([]byte{0xAB}, blockio.BlockSize)
	if err := d.WriteV(64, [][]byte{buf}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockio.BlockSize)
	if err := d.ReadV(64, [][]byte{got}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Fatal("read back different bytes")
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Requests != 2 {
		t.Fatalf("stats %+v after one write and one read", st)
	}
}

// TestSeekFree is the property that defines this backend: service time
// is independent of address distance. Two single-block reads at opposite
// ends of the device must cost exactly what two adjacent reads cost.
func TestSeekFree(t *testing.T) {
	run := func(lbas []int64) int64 {
		d := newTestStore(t, DefaultSpec())
		buf := make([]byte, blockio.BlockSize)
		for _, lba := range lbas {
			if err := d.ReadV(lba, [][]byte{buf}); err != nil {
				t.Fatal(err)
			}
		}
		return d.Clock().Now()
	}
	sectors := int64(testCap / disk.SectorSize)
	near := run([]int64{0, 8})
	far := run([]int64{0, sectors - 8})
	if near != far {
		t.Fatalf("address-dependent timing: near=%dns far=%dns", near, far)
	}
}

func TestFixedCostDominatesSmallReads(t *testing.T) {
	spec := DefaultSpec()
	d := newTestStore(t, spec)
	buf := make([]byte, disk.SectorSize)
	if err := d.ReadV(0, [][]byte{buf}); err != nil {
		t.Fatal(err)
	}
	elapsed := d.Clock().Now()
	overhead := int64(spec.ReqOverhead * 1e9)
	if elapsed < overhead {
		t.Fatalf("1-sector read took %dns, below the %dns fixed cost", elapsed, overhead)
	}
	if elapsed > 2*overhead {
		t.Fatalf("1-sector read took %dns; transfer should not dominate the fixed cost", elapsed)
	}
}

// TestGCChargedOnClock drives enough rewrites to force GC and checks the
// device got slower in exactly the accounted amount: clock time equals
// host service time plus the ssd.gc.ns counter.
func TestGCChargedOnClock(t *testing.T) {
	spec := DefaultSpec()
	spec.PreDirty = true
	d := newTestStore(t, spec)
	reg := obs.NewRegistry()
	d.SetMetrics(reg)

	buf := make([]byte, blockio.BlockSize)
	var hostSvc int64
	// Random overwrites so GC victims keep live pages and must migrate
	// them (sequential overwrites invalidate whole blocks — free GC).
	rng := rand.New(rand.NewSource(7))
	blocks := testCap / blockio.BlockSize
	writes := 4 * blocks // four device fills
	for i := 0; i < writes; i++ {
		lba := int64(rng.Intn(blocks)) * int64(blockio.SectorsPerBlock)
		if err := d.WriteV(lba, [][]byte{buf}); err != nil {
			t.Fatal(err)
		}
		hostSvc += svcNs(spec, blockio.SectorsPerBlock)
	}
	snap := reg.Snapshot()
	gcNs := snap.Counter("ssd.gc.ns")
	if gcNs == 0 {
		t.Fatal("no GC time after overwriting an aged device 4x")
	}
	if got := d.Clock().Now(); got != hostSvc+gcNs {
		t.Fatalf("clock=%dns, want host %dns + gc %dns = %dns", got, hostSvc, gcNs, hostSvc+gcNs)
	}
	if snap.Counter("ssd.gc.erases") == 0 || snap.Counter("ssd.gc.pages_moved") == 0 {
		t.Fatalf("gc counters empty: %v", snap.Counters)
	}
	if wa := snap.Gauges["ssd.writeamp_x100"]; wa <= 100 {
		t.Fatalf("write amp gauge %d not above 100 (=1.00x) at steady state", wa)
	}
	if ftl := d.FTL(); ftl.WriteAmp <= 1 || ftl.Erases == 0 {
		t.Fatalf("FTL stats %+v after forced GC", ftl)
	}
}

// TestFreshDeviceNoGC is the other half of the aged/fresh contrast: a
// benchmark-scale write volume on a fresh FTL must not trigger GC, and
// the metric families must still exist (at zero) for the reports.
func TestFreshDeviceNoGC(t *testing.T) {
	d := newTestStore(t, DefaultSpec())
	reg := obs.NewRegistry()
	d.SetMetrics(reg)
	buf := make([]byte, blockio.BlockSize)
	for i := 0; i < 64; i++ {
		if err := d.WriteV(int64(i*blockio.SectorsPerBlock), [][]byte{buf}); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if snap.Counter("ssd.gc.runs") != 0 {
		t.Fatal("fresh device ran GC under a light write load")
	}
	if _, ok := snap.Counters["ssd.gc.ns"]; !ok {
		t.Fatal("ssd.gc.ns family not created eagerly")
	}
	if wa := snap.Gauges["ssd.writeamp_x100"]; wa != 100 {
		t.Fatalf("fresh write amp gauge %d, want 100 (=1.00x)", wa)
	}
}

func TestSubmitBlocksBoundedChannels(t *testing.T) {
	spec := DefaultSpec()
	spec.Channels = 2
	d := newTestStore(t, spec)
	// Four non-contiguous single-block reads on 2 channels: makespan is
	// two back-to-back requests per channel.
	var reqs []blockio.Req
	for i := int64(0); i < 4; i++ {
		reqs = append(reqs, blockio.Req{Block: i * 10, Bufs: [][]byte{make([]byte, blockio.BlockSize)}})
	}
	if _, err := d.SubmitBlocks(reqs); err != nil {
		t.Fatal(err)
	}
	svc := svcNs(spec, blockio.SectorsPerBlock)
	if got := d.Clock().Now(); got != 2*svc {
		t.Fatalf("makespan %dns, want 2 serialized requests = %dns", got, 2*svc)
	}
}

// TestTrimUnmapsWholePages drives the one discard entry point: the
// command pays the fixed request term and nothing else, is counted as a
// discard and not as a request, unmaps and poisons exactly the whole
// pages its range covers, and counts a page only the first time.
func TestTrimUnmapsWholePages(t *testing.T) {
	spec := DefaultSpec()
	d := newTestStore(t, spec)
	reg := obs.NewRegistry()
	d.SetMetrics(reg)
	data := bytes.Repeat([]byte{0xAB}, 4*blockio.BlockSize)
	if err := d.WriteV(0, [][]byte{data}); err != nil {
		t.Fatal(err)
	}
	before, st0 := d.Clock().Now(), d.Stats()
	// Sectors [4, 28): pages 1 and 2 whole, halves of pages 0 and 3.
	if err := d.Discard(4, 3*blockio.SectorsPerBlock); err != nil {
		t.Fatal(err)
	}
	fixed := int64(spec.ReqOverhead * 1e9)
	if got := d.Clock().Now() - before; got != fixed {
		t.Fatalf("discard advanced the clock %d ns, want the fixed request cost %d", got, fixed)
	}
	st := d.Stats().Sub(st0)
	if st.Discards != 1 || st.Requests != 0 || st.Writes != 0 || st.BusyNanos != fixed {
		t.Fatalf("one discard accounted as %+v", st)
	}
	if got := reg.Snapshot().Counter("ssd.trims"); got != 2 {
		t.Fatalf("trimmed %d pages, want the 2 whole ones", got)
	}
	got := make([]byte, 4*blockio.BlockSize)
	if err := d.ReadV(0, [][]byte{got}); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), data...)
	for i := blockio.BlockSize; i < 3*blockio.BlockSize; i++ {
		want[i] = flatdev.PoisonByte
	}
	if !bytes.Equal(got, want) {
		t.Fatal("discard did not poison exactly the covered whole pages")
	}
	// The same range again, plus one page never written: nothing mapped,
	// nothing counted.
	if err := d.Discard(0, 4*blockio.SectorsPerBlock); err != nil {
		t.Fatal(err)
	}
	if err := d.Discard(64*blockio.SectorsPerBlock, blockio.SectorsPerBlock); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counter("ssd.trims"); got != 4 {
		t.Fatalf("ssd.trims=%d after re-discarding, want 4 (pages 0 and 3 were still mapped)", got)
	}
	if f := d.FTL(); f.Trims != 4 {
		t.Fatalf("FTL().Trims=%d, want 4", f.Trims)
	}
}

func TestBoundsAndValidation(t *testing.T) {
	// Request bounds are the engine's (flatdev's battery); what is this
	// package's own is that a request the engine refuses never reaches the
	// FTL, and the spec checks the engine does not know about.
	d := newTestStore(t, DefaultSpec())
	if err := d.WriteV(testCap/disk.SectorSize, [][]byte{make([]byte, blockio.BlockSize)}); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if err := d.Discard(-8, 8); err == nil {
		t.Fatal("negative-LBA discard accepted")
	}
	if f := d.FTL(); f.HostPages != 0 || f.Trims != 0 || d.Stats().Discards != 0 {
		t.Fatalf("refused requests reached the FTL: %+v", f)
	}
	bad := DefaultSpec()
	bad.Bandwidth = 0
	if _, err := NewMem(bad, sim.NewClock(), testCap); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	bad = DefaultSpec()
	bad.PageBytes = 100
	if _, err := NewMem(bad, sim.NewClock(), testCap); err == nil {
		t.Fatal("non-sector-multiple page size accepted")
	}
}

func TestParallelismProbe(t *testing.T) {
	spec := DefaultSpec()
	spec.Channels = 4
	d := newTestStore(t, spec)
	if got := d.Parallelism(); got != 4 {
		t.Fatalf("Parallelism()=%d, want 4", got)
	}
	spec.Channels = 0
	d = newTestStore(t, spec)
	if got := d.Parallelism(); got != 16 {
		t.Fatalf("unbounded Parallelism()=%d, want the engine's finite hint 16", got)
	}
}

// TestConcurrentUse hammers every entry point of one aged device at
// once. The engine's mutex is the FTL's only guard — Discard, FTL and
// SetMetrics borrow it — so this is a -race test of that one-mutex rule.
func TestConcurrentUse(t *testing.T) {
	spec := DefaultSpec()
	spec.PagesPerBlock, spec.PreDirty = 8, true // GC runs inside the writes
	d := newTestStore(t, spec)
	const rounds = 200
	blocks := int64(testCap / blockio.BlockSize)
	var trace []disk.TraceEntry
	workers := []func(i int64) error{
		func(i int64) error {
			return d.ReadV(i%blocks*blockio.SectorsPerBlock, [][]byte{make([]byte, blockio.BlockSize)})
		},
		func(i int64) error {
			return d.WriteV(i*7%blocks*blockio.SectorsPerBlock, [][]byte{make([]byte, blockio.BlockSize)})
		},
		func(i int64) error {
			_, err := d.SubmitBlocks([]blockio.Req{
				{Write: true, Block: i * 13 % blocks, Bufs: [][]byte{make([]byte, blockio.BlockSize)}},
				{Block: i * 17 % blocks, Bufs: [][]byte{make([]byte, blockio.BlockSize)}},
			})
			return err
		},
		func(i int64) error { return d.Discard(i*5%blocks*blockio.SectorsPerBlock, blockio.SectorsPerBlock) },
		func(i int64) error { _ = d.FTL(); _ = d.Stats(); d.ResetStats(); return nil },
		func(i int64) error { d.SetMetrics(obs.NewRegistry()); return nil },
		func(i int64) error {
			d.SetTrace(&trace)
			d.SetTraceFunc(func(disk.TraceEntry) {})
			d.SetMetricsFunc(func(disk.TraceEntry) {})
			d.SetOpSource(func() (uint8, uint64) { return 1, uint64(i) })
			return nil
		},
	}
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < rounds; i++ {
				if err := w(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkFTL(t, d.ftl)
}
