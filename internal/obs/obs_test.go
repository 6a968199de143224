package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"cffs/internal/disk"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {-5, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 20, 21}, {1<<21 - 1, 21},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every value must satisfy BucketLow(i) <= v < BucketHigh(i) for its
	// own bucket (the top bucket's high bound is MaxInt64 inclusive).
	for _, c := range cases {
		if c.v < 0 {
			continue
		}
		i := bucketOf(c.v)
		if c.v < BucketLow(i) {
			t.Errorf("value %d below BucketLow(%d)=%d", c.v, i, BucketLow(i))
		}
		if i < histBuckets-1 && c.v >= BucketHigh(i) {
			t.Errorf("value %d not below BucketHigh(%d)=%d", c.v, i, BucketHigh(i))
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	if got := h.snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", got)
	}
	// 100 samples of exactly 1000: every quantile must land in
	// bucket 10 ([512, 1024)).
	for i := 0; i < 100; i++ {
		h.Record(1000)
	}
	s := h.snapshot()
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := s.Quantile(q)
		if got < 512 || got > 1024 {
			t.Errorf("p%.0f = %v, want within [512,1024]", q*100, got)
		}
	}
	if mean := s.Mean(); mean != 1000 {
		t.Errorf("mean = %v, want 1000", mean)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(2)
	h.Record(7)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	r.Reset()
	if n := len(r.Snapshot().Counters); n != 0 {
		t.Fatalf("nil registry snapshot has %d counters", n)
	}
}

func TestSnapshotDeltaCoherence(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	g := r.Gauge("resident")
	h := r.Histogram("svc")
	c.Add(10)
	g.Set(4)
	h.Record(100)
	h.Record(200)
	before := r.Snapshot()
	c.Add(7)
	g.Set(9)
	h.Record(100)
	after := r.Snapshot()
	d := after.Delta(before)
	if got := d.Counter("reqs"); got != 7 {
		t.Errorf("delta counter = %d, want 7", got)
	}
	if got := d.Gauges["resident"]; got != 9 {
		t.Errorf("delta gauge = %d, want end value 9", got)
	}
	hd := d.Histograms["svc"]
	if hd.Count != 1 || hd.Sum != 100 {
		t.Errorf("delta hist = count %d sum %d, want 1/100", hd.Count, hd.Sum)
	}
	if len(hd.Buckets) != 1 || hd.Buckets[0].Index != bucketOf(100) || hd.Buckets[0].Count != 1 {
		t.Errorf("delta hist buckets = %+v", hd.Buckets)
	}
	// Delta against the zero snapshot is the snapshot itself.
	whole := after.Delta(Snapshot{})
	if whole.Counter("reqs") != 17 || whole.Histograms["svc"].Count != 3 {
		t.Error("delta vs zero snapshot must equal the snapshot")
	}
	// Reset zeroes values but keeps handles live.
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 {
		t.Error("reset must zero instruments")
	}
	c.Inc()
	if r.Snapshot().Counter("reqs") != 1 {
		t.Error("handle must stay wired to the registry after reset")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Histogram("h").Record(50)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if back.Counter("a") != 3 || back.Histograms["h"].Count != 1 {
		t.Errorf("round trip lost data: %+v", back)
	}
	var text bytes.Buffer
	back.WriteText(&text)
	if !bytes.Contains(text.Bytes(), []byte("a")) {
		t.Error("text exposition missing counter")
	}
}

func TestOpContextNesting(t *testing.T) {
	if got := CurrentOp(); got != (OpRef{}) {
		t.Fatalf("ambient op = %+v, want zero", got)
	}
	r := NewRegistry()
	trk := NewOpTracker(r)
	end := trk.Begin(OpCreate)
	outer := CurrentOp()
	if outer.Kind != OpCreate || outer.ID == 0 {
		t.Fatalf("after Begin(create): %+v", outer)
	}
	endInner := trk.Begin(OpLookup)
	if got := CurrentOp(); got.Kind != OpLookup || got.ID <= outer.ID {
		t.Fatalf("nested op = %+v (outer %+v)", got, outer)
	}
	endInner.End()
	if got := CurrentOp(); got != outer {
		t.Fatalf("after inner end: %+v, want restored %+v", got, outer)
	}
	end.End()
	if got := CurrentOp(); got != (OpRef{}) {
		t.Fatalf("after outer end: %+v, want zero", got)
	}
	s := r.Snapshot()
	if s.Counter("ops.create") != 1 || s.Counter("ops.lookup") != 1 {
		t.Errorf("op counters = %v", s.Counters)
	}
	kind, id := CurrentOpRaw()
	if kind != 0 || id != 0 {
		t.Errorf("CurrentOpRaw outside op = %d/%d", kind, id)
	}
}

func TestDisabledTracker(t *testing.T) {
	trk := NewOpTracker(nil)
	if trk.Enabled() {
		t.Fatal("nil-registry tracker must be disabled")
	}
	end := trk.Begin(OpReadAt)
	if got := CurrentOp(); got != (OpRef{}) {
		t.Fatalf("disabled Begin installed a context: %+v", got)
	}
	end.End()
	var nilTrk *OpTracker
	nilTrk.Begin(OpReadAt).End() // must not panic
}

// The ambient op stack must unwind by identity: when operations from
// concurrent clients overlap, an op that ends while a later one is
// still active removes its own entry, and the newest active op stays
// current throughout.
func TestOpOverlapUnwind(t *testing.T) {
	trk := NewOpTracker(NewRegistry())
	endA := trk.Begin(OpCreate)
	a := CurrentOp()
	endB := trk.Begin(OpReadAt)
	b := CurrentOp()
	if b.Kind != OpReadAt || b.ID <= a.ID {
		t.Fatalf("second op = %+v (first %+v)", b, a)
	}
	endA.End() // out-of-order: the older op ends first
	if got := CurrentOp(); got != b {
		t.Fatalf("after ending older op: %+v, want %+v still current", got, b)
	}
	endB.End()
	if got := CurrentOp(); got != (OpRef{}) {
		t.Fatalf("after all ends: %+v, want zero", got)
	}
}

func TestDiskSink(t *testing.T) {
	r := NewRegistry()
	sink := NewDiskSink(r)
	sink(disk.TraceEntry{LBA: 0, Count: 8, Write: false, Nanos: 5e6, OpKind: uint8(OpReadAt), OpID: 1})
	sink(disk.TraceEntry{LBA: 8, Count: 16, Write: true, Nanos: 7e6, OpKind: uint8(OpCreate), OpID: 2})
	sink(disk.TraceEntry{LBA: 24, Count: 1, Write: false, Nanos: 1e6})               // unattributed
	sink(disk.TraceEntry{LBA: 32, Count: 1, Write: false, Nanos: 1e6, OpKind: 0xFF}) // corrupt kind clamps to none
	s := r.Snapshot()
	checks := map[string]int64{
		"disk.requests.readat": 1,
		"disk.reads.readat":    1,
		"disk.sectors.readat":  8,
		"disk.requests.create": 1,
		"disk.writes.create":   1,
		"disk.sectors.create":  16,
		"disk.requests.none":   2,
	}
	for name, want := range checks {
		if got := s.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if h := s.Histograms["disk.service_ns.readat"]; h.Count != 1 || h.Sum != 5e6 {
		t.Errorf("service histogram = %+v", h)
	}
	if NewDiskSink(nil) != nil {
		t.Error("NewDiskSink(nil) must be nil for SetMetricsFunc")
	}
}

// TestRaceStress hammers one registry from concurrent recorders, op
// trackers and snapshot readers; it exists to fail under -race if any
// instrument path loses its synchronization.
func TestRaceStress(t *testing.T) {
	r := NewRegistry()
	trk := NewOpTracker(r)
	sink := NewDiskSink(r)
	const workers = 8
	const iters = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				end := trk.Begin(Op(1 + (w+i)%int(NumOps-1)))
				kind, id := CurrentOpRaw()
				sink(disk.TraceEntry{LBA: int64(i), Count: 1 + i%16,
					Write: i%2 == 0, Nanos: int64(i) * 1000, OpKind: kind, OpID: id})
				r.Counter("shared").Inc()
				r.Gauge("level").Set(int64(i))
				r.Histogram("h").Record(int64(i))
				end.End()
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev Snapshot
			for i := 0; i < iters; i++ {
				s := r.Snapshot()
				if got := s.Counter("shared"); got < prev.Counter("shared") {
					t.Errorf("counter went backwards: %d -> %d", prev.Counter("shared"), got)
					return
				}
				prev = s
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Counter("shared"); got != workers*iters {
		t.Errorf("shared = %d, want %d", got, workers*iters)
	}
}

func BenchmarkBeginEnd(b *testing.B) {
	trk := NewOpTracker(NewRegistry())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trk.Begin(OpReadAt).End()
	}
}

func BenchmarkCurrentOpRaw(b *testing.B) {
	defer NewOpTracker(NewRegistry()).Begin(OpReadAt).End()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CurrentOpRaw()
	}
}

// countingObserver stands in for the flight recorder.
type countingObserver struct{ begins, ends int }

func (o *countingObserver) OpBegin(OpRef) { o.begins++ }
func (o *countingObserver) OpEnd(OpRef)   { o.ends++ }

// An op scope is a value: entering and leaving one allocates nothing,
// with a registry, with an observer, and disabled.
func TestAllocsBeginEnd(t *testing.T) {
	observed := NewOpTracker(NewRegistry())
	o := &countingObserver{}
	observed.Observe(o)
	for name, trk := range map[string]*OpTracker{
		"registry": NewOpTracker(NewRegistry()),
		"observed": observed,
		"disabled": NewOpTracker(nil),
	} {
		scope := func() { defer trk.Begin(OpReadAt).End() }
		scope() // let the shared op stack reach its capacity
		if got := testing.AllocsPerRun(100, scope); got != 0 {
			t.Errorf("%s: Begin(..).End() = %.1f allocs/op, want 0", name, got)
		}
	}
	if o.begins == 0 || o.begins != o.ends {
		t.Errorf("observer saw %d begins, %d ends", o.begins, o.ends)
	}
	if got := CurrentOp(); got != (OpRef{}) {
		t.Errorf("ambient op after all scopes ended: %+v", got)
	}
}
