package objstore

import (
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/disk"
	"cffs/internal/sim"
)

// testSpec has round numbers: 1 ms per request, and a bandwidth where
// one 4 KB block streams in exactly 1 ms.
func testSpec() Spec {
	return Spec{Name: "test", RTT: 1e-3, Bandwidth: 4096e3, Channels: 0}
}

const testCapacity = 1 << 20

func newTest(t *testing.T, spec Spec) *Store {
	t.Helper()
	o, err := NewMem(spec, sim.NewClock(), testCapacity)
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	return o
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{RTT: -1, Bandwidth: 1e6},
		{RTT: 1e-3, Bandwidth: 0},
		{RTT: 1e-3, Bandwidth: 1e6, Channels: -1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		}
	}
	if err := DefaultSpec().Validate(); err != nil {
		t.Errorf("DefaultSpec invalid: %v", err)
	}
	if _, err := NewMem(testSpec(), sim.NewClock(), disk.SectorSize+1); err == nil {
		t.Error("NewMem with non-sector capacity succeeded")
	}
}

func TestSingleRequestTiming(t *testing.T) {
	o := newTest(t, testSpec())
	// One block: 1 ms RTT + 1 ms transfer.
	if err := o.WriteV(0, [][]byte{make([]byte, blockio.BlockSize)}); err != nil {
		t.Fatalf("WriteV: %v", err)
	}
	if got, want := o.Clock().Now(), int64(2e6); got != want {
		t.Errorf("1-block write took %d ns, want %d", got, want)
	}
	// Sixteen blocks, one request: still one RTT, sixteen transfer units.
	bufs := make([][]byte, 16)
	for i := range bufs {
		bufs[i] = make([]byte, blockio.BlockSize)
	}
	o.Clock().Reset()
	o.ResetStats()
	if err := o.ReadV(0, bufs); err != nil {
		t.Fatalf("ReadV: %v", err)
	}
	if got, want := o.Clock().Now(), int64(17e6); got != want {
		t.Errorf("16-block read took %d ns, want %d", got, want)
	}
	st := o.Stats()
	if st.Requests != 1 || st.Reads != 1 || st.SectorsRead != 16*blockio.SectorsPerBlock {
		t.Errorf("stats = %+v, want one 16-block read", st)
	}
	if st.SeekNanos != 0 || st.RotateNanos != 0 {
		t.Errorf("positioning time on an object store: %+v", st)
	}
	if st.TransferNanos != 16e6 || st.BusyNanos != 17e6 {
		t.Errorf("TransferNanos=%d BusyNanos=%d, want 16e6/17e6", st.TransferNanos, st.BusyNanos)
	}
}

func TestBatchIsMakespanNotSum(t *testing.T) {
	o := newTest(t, testSpec())
	// Eight scattered single-block reads: nothing merges, but with
	// unbounded channels the batch finishes in one request's time.
	var reqs []blockio.Req
	for i := 0; i < 8; i++ {
		reqs = append(reqs, blockio.Req{
			Block: int64(i * 3), // gaps defeat merging
			Bufs:  [][]byte{make([]byte, blockio.BlockSize)},
		})
	}
	issued, err := o.SubmitBlocks(reqs)
	if err != nil {
		t.Fatalf("SubmitBlocks: %v", err)
	}
	if issued != 8 {
		t.Errorf("issued = %d, want 8 (gaps must not merge)", issued)
	}
	if got, want := o.Clock().Now(), int64(2e6); got != want {
		t.Errorf("batch of 8 parallel requests took %d ns, want %d (makespan)", got, want)
	}
	if st := o.Stats(); st.Requests != 8 {
		t.Errorf("Requests = %d, want 8", st.Requests)
	}
}

func TestBoundedChannels(t *testing.T) {
	spec := testSpec()
	spec.Channels = 2
	o := newTest(t, spec)
	if o.Parallelism() != 2 {
		t.Errorf("Parallelism = %d, want 2", o.Parallelism())
	}
	// Four equal scattered requests on two channels: two rounds.
	var reqs []blockio.Req
	for i := 0; i < 4; i++ {
		reqs = append(reqs, blockio.Req{
			Block: int64(i * 5),
			Bufs:  [][]byte{make([]byte, blockio.BlockSize)},
		})
	}
	if _, err := o.SubmitBlocks(reqs); err != nil {
		t.Fatalf("SubmitBlocks: %v", err)
	}
	if got, want := o.Clock().Now(), int64(4e6); got != want {
		t.Errorf("4 requests on 2 channels took %d ns, want %d", got, want)
	}
}

func TestUnboundedParallelismHint(t *testing.T) {
	o := newTest(t, testSpec())
	if o.Parallelism() != 16 {
		t.Errorf("Parallelism = %d, want the engine's finite hint 16", o.Parallelism())
	}
}

func TestBoundsAndTrace(t *testing.T) {
	o := newTest(t, testSpec())
	end := int64(testCapacity / disk.SectorSize)
	if err := o.ReadV(end, [][]byte{make([]byte, blockio.BlockSize)}); err == nil {
		t.Error("read past end succeeded")
	}
	if err := o.WriteV(-8, [][]byte{make([]byte, blockio.BlockSize)}); err == nil {
		t.Error("write at negative LBA succeeded")
	}
	if err := o.ReadV(0, [][]byte{make([]byte, 100)}); err == nil {
		t.Error("non-sector-multiple transfer succeeded")
	}

	var trace []disk.TraceEntry
	o.SetTrace(&trace)
	o.SetOpSource(func() (uint8, uint64) { return 3, 42 })
	var fromFunc []disk.TraceEntry
	o.SetTraceFunc(func(e disk.TraceEntry) { fromFunc = append(fromFunc, e) })
	if err := o.WriteV(8, [][]byte{make([]byte, blockio.BlockSize)}); err != nil {
		t.Fatalf("WriteV: %v", err)
	}
	if len(trace) != 1 || len(fromFunc) != 1 {
		t.Fatalf("trace lengths %d/%d, want 1/1", len(trace), len(fromFunc))
	}
	e := trace[0]
	if e.LBA != 8 || e.Count != blockio.SectorsPerBlock || !e.Write ||
		e.OpKind != 3 || e.OpID != 42 || e.Nanos != 2e6 {
		t.Errorf("trace entry %+v", e)
	}
}
