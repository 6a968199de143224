package flatdev_test

import (
	"bytes"
	"math/rand"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/disk"
	"cffs/internal/flatdev"
	"cffs/internal/objstore"
	"cffs/internal/sim"
	"cffs/internal/ssd"
)

// flat is what both backends get from the request engine.
type flat interface {
	blockio.Target
	blockio.BatchSubmitter
	Parallelism() int
}

// paramSet is one backend's point in the engine's parameter space. The
// battery below runs unchanged over both: everything it asserts is
// engine behaviour, priced by the one formula the two share.
type paramSet struct {
	name      string
	fixed, bw float64 // seconds per request, bytes per second
	discards  bool    // the device acts on a discard (it has a page size)
	open      func(channels int, st disk.Store) (flat, error)
}

const capacity = 1 << 20 // 256 blocks; no battery write volume wraps the ssd's log

var paramSets = []paramSet{
	{"ssd", ssd.DefaultSpec().ReqOverhead, ssd.DefaultSpec().Bandwidth, true,
		func(channels int, st disk.Store) (flat, error) {
			spec := ssd.DefaultSpec()
			spec.Channels = channels
			return ssd.New(spec, sim.NewClock(), st, capacity)
		}},
	{"objstore", objstore.DefaultSpec().RTT, objstore.DefaultSpec().Bandwidth, false,
		func(channels int, st disk.Store) (flat, error) {
			spec := objstore.DefaultSpec()
			spec.Channels = channels
			return objstore.New(spec, sim.NewClock(), st, capacity)
		}},
}

// svc is the service time of one request of n blocks.
func (p paramSet) svc(blocks int) int64 {
	nsect := blocks * blockio.SectorsPerBlock
	return int64(p.fixed*1e9) + int64(float64(nsect)*disk.SectorSize/p.bw*1e9)
}

func (p paramSet) dev(t *testing.T, channels int) flat {
	t.Helper()
	d, err := p.open(channels, disk.NewMemStore(capacity))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func block(fill byte) []byte { return bytes.Repeat([]byte{fill}, blockio.BlockSize) }

// blocks returns n zeroed block buffers, one request's scatter list.
func blocks(n int) [][]byte {
	b := make([][]byte, n)
	for i := range b {
		b[i] = make([]byte, blockio.BlockSize)
	}
	return b
}

func read(blk int64) blockio.Req { return blockio.Req{Block: blk, Bufs: blocks(1)} }

func write(blk int64, fill byte) blockio.Req {
	return blockio.Req{Write: true, Block: blk, Bufs: [][]byte{block(fill)}}
}

func submit(t *testing.T, d flat, reqs []blockio.Req, wantIssued int) {
	t.Helper()
	issued, err := d.SubmitBlocks(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if issued != wantIssued {
		t.Fatalf("issued %d requests, want %d", issued, wantIssued)
	}
}

func wantClock(t *testing.T, d flat, want int64) {
	t.Helper()
	if got := d.Clock().Now(); got != want {
		t.Fatalf("clock at %d ns, want %d", got, want)
	}
}

// orderedSpy counts writes that reach the byte store's barrier entry.
type orderedSpy struct {
	disk.Store
	ordered int
}

func (s *orderedSpy) WriteAtOrdered(p []byte, off int64) error {
	s.ordered++
	return s.Store.WriteAt(p, off)
}

func TestBattery(t *testing.T) {
	for _, p := range paramSets {
		t.Run(p.name, func(t *testing.T) { battery(t, p) })
	}
}

func battery(t *testing.T, p paramSet) {
	// The price a device declares is the price it charges: a read of n
	// blocks advances the clock by fixedNs + n*blockNs (the per-block
	// term is rounded once per request, hence the n ns of slack).
	t.Run("FlatCost", func(t *testing.T) {
		d := p.dev(t, 1)
		fixedNs, blockNs := d.FlatCost()
		if fixedNs != p.svc(0) || blockNs != p.svc(1)-p.svc(0) {
			t.Fatalf("declared %d ns + %d ns/block, the parameters say %d + %d",
				fixedNs, blockNs, p.svc(0), p.svc(1)-p.svc(0))
		}
		for _, n := range []int{1, 5, 16} {
			t0 := d.Clock().Now()
			if err := d.ReadV(0, blocks(n)); err != nil {
				t.Fatal(err)
			}
			got, want := d.Clock().Now()-t0, fixedNs+int64(n)*blockNs
			if got < want || got > want+int64(n) {
				t.Errorf("a %d-block read took %d ns, declared cost %d ns", n, got, want)
			}
		}
	})
	t.Run("RoundTrip", func(t *testing.T) {
		d := p.dev(t, 0)
		got := make([]byte, blockio.BlockSize)
		if err := d.WriteV(16, [][]byte{block(0xab)}); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadV(16, [][]byte{got}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, block(0xab)) {
			t.Fatal("read back different bytes than written")
		}
		submit(t, d, []blockio.Req{write(5, 0xcd)}, 1)
		submit(t, d, []blockio.Req{{Block: 5, Bufs: [][]byte{got}}}, 1)
		if !bytes.Equal(got, block(0xcd)) {
			t.Fatal("batch path read back different bytes than written")
		}
	})

	t.Run("Bounds", func(t *testing.T) {
		d := p.dev(t, 0)
		buf := blocks(1)
		_, batchErr := d.SubmitBlocks([]blockio.Req{read(capacity / blockio.BlockSize)})
		for what, err := range map[string]error{
			"read past the end":            d.ReadV(d.Sectors(), buf),
			"write straddling the end":     d.WriteV(d.Sectors()-1, buf),
			"negative LBA":                 d.WriteV(-8, buf),
			"non-sector-multiple transfer": d.ReadV(0, [][]byte{make([]byte, 100)}),
			"empty transfer":               d.ReadV(0, nil),
			"batched read past the end":    batchErr,
		} {
			if err == nil {
				t.Errorf("%s accepted", what)
			}
		}
		if st := d.Stats(); st.Requests != 0 || d.Clock().Now() != 0 {
			t.Errorf("rejected requests were charged: %+v, clock %d", st, d.Clock().Now())
		}
		if _, err := p.open(-1, disk.NewMemStore(capacity)); err == nil {
			t.Error("negative channel count accepted")
		}
	})

	t.Run("SingleRequestTiming", func(t *testing.T) {
		d := p.dev(t, 0)
		if err := d.WriteV(0, [][]byte{block(7)}); err != nil {
			t.Fatal(err)
		}
		wantClock(t, d, p.svc(1))
		// Sixteen blocks, one request: still one fixed cost. And the cost
		// does not depend on where the request lands.
		d.Clock().Reset()
		d.ResetStats()
		if err := d.ReadV(d.Sectors()-16*blockio.SectorsPerBlock, blocks(16)); err != nil {
			t.Fatal(err)
		}
		wantClock(t, d, p.svc(16))
		want := disk.Stats{
			Requests: 1, Reads: 1, SectorsRead: 16 * blockio.SectorsPerBlock,
			BusyNanos: p.svc(16), TransferNanos: p.svc(16) - int64(p.fixed*1e9),
		}
		if st := d.Stats(); st != want {
			t.Fatalf("stats %+v, want %+v (no positioning time on a flat device)", st, want)
		}
	})

	t.Run("BatchIsMakespanNotSum", func(t *testing.T) {
		d := p.dev(t, 0)
		var reqs []blockio.Req
		for i := int64(0); i < 8; i++ {
			reqs = append(reqs, read(i*3)) // gaps defeat merging
		}
		submit(t, d, reqs, 8)
		wantClock(t, d, p.svc(1))
		if st := d.Stats(); st.Requests != 8 || st.BusyNanos != 8*p.svc(1) {
			t.Fatalf("stats %+v, want 8 requests each busy for one service time", st)
		}
	})

	t.Run("MergeAndCap", func(t *testing.T) {
		d := p.dev(t, 0)
		// Sixteen contiguous single-block writes submitted out of order:
		// exactly one 64 KB request, and every block lands in place.
		var reqs []blockio.Req
		for _, b := range []int64{8, 0, 12, 4, 9, 1, 13, 5, 10, 2, 14, 6, 11, 3, 15, 7} {
			reqs = append(reqs, write(b, byte(b)))
		}
		submit(t, d, reqs, 1)
		wantClock(t, d, p.svc(16))
		got := make([]byte, blockio.BlockSize)
		for b := int64(0); b < 16; b++ {
			if err := d.ReadV(b*blockio.SectorsPerBlock, [][]byte{got}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, block(byte(b))) {
				t.Fatalf("block %d holds another block's bytes after the merge", b)
			}
		}
		// Seventeen contiguous blocks overflow the 64 KB cap.
		reqs = reqs[:0]
		for b := int64(0); b < 17; b++ {
			reqs = append(reqs, write(b, 1))
		}
		submit(t, d, reqs, 2)
		// A direction change cuts a run even when addresses are contiguous.
		submit(t, d, []blockio.Req{read(0), write(1, 2)}, 2)
	})

	t.Run("ChannelsAndFanHint", func(t *testing.T) {
		d := p.dev(t, 2)
		if got, unbounded := d.Parallelism(), p.dev(t, 0).Parallelism(); got != 2 || unbounded != 16 {
			t.Fatalf("Parallelism()=%d, unbounded %d; want 2 and the finite hint 16", got, unbounded)
		}
		// Four equal scattered requests on two channels: two rounds.
		submit(t, d, []blockio.Req{read(0), read(10), read(20), read(30)}, 4)
		wantClock(t, d, 2*p.svc(1))
		// Two merged runs on two channels cost one run.
		d.Clock().Reset()
		var reqs []blockio.Req
		for i := int64(0); i < 4; i++ {
			reqs = append(reqs, read(i), read(200+i))
		}
		submit(t, d, reqs, 2)
		wantClock(t, d, p.svc(4))
		if st := d.Stats(); st.Requests != 4+2 {
			t.Fatalf("stats count %d requests, want the 4 singles and 2 merged runs", st.Requests)
		}
		// Longest-first packing: runs of 4, 3, 2, 2 and 1 blocks load the
		// channels {4,2} and {3,2,1}; the second drains last.
		d.Clock().Reset()
		reqs = reqs[:0]
		for _, run := range [][2]int64{{0, 4}, {10, 3}, {20, 2}, {30, 2}, {40, 1}} {
			for i := int64(0); i < run[1]; i++ {
				reqs = append(reqs, read(run[0]+i))
			}
		}
		submit(t, d, reqs, 5)
		wantClock(t, d, p.svc(3)+p.svc(2)+p.svc(1))
	})

	t.Run("OrderedWriteForwarded", func(t *testing.T) {
		spy := &orderedSpy{Store: disk.NewMemStore(capacity)}
		d, err := p.open(0, spy)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteOrdered(0, block(1)); err != nil {
			t.Fatal(err)
		}
		if spy.ordered != 1 {
			t.Fatalf("barrier write reached the store %d times, want 1", spy.ordered)
		}
		if err := d.WriteV(0, [][]byte{block(2)}); err != nil {
			t.Fatal(err)
		}
		submit(t, d, []blockio.Req{write(3, 3)}, 1)
		if spy.ordered != 1 {
			t.Fatal("a plain write took the barrier path")
		}
		wantClock(t, d, 3*p.svc(1)) // the barrier costs what a write costs
	})

	// A discard is a command, not a request: a device with a page size
	// charges it the fixed term, counts it apart, destroys the whole
	// pages it covers through the byte store's ordinary write, and leaves
	// the trace alone; a device without one ignores it. Both refuse a
	// range outside the device.
	t.Run("Discard", func(t *testing.T) {
		spy := &orderedSpy{Store: disk.NewMemStore(capacity)}
		d, err := p.open(0, spy)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteV(0, [][]byte{block(1), block(2), block(3)}); err != nil {
			t.Fatal(err)
		}
		var trace []disk.TraceEntry
		d.SetTrace(&trace)
		t0, st0 := d.Clock().Now(), d.Stats()
		// One sector short at each end of three blocks: block 1 is whole.
		if err := d.Discard(1, 3*blockio.SectorsPerBlock-2); err != nil {
			t.Fatal(err)
		}
		want := [][]byte{block(1), block(2), block(3)}
		var cost, discards int64
		if p.discards {
			want[1], cost, discards = block(flatdev.PoisonByte), p.svc(0), 1
		}
		got := blocks(3)
		if err := d.ReadV(0, got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("block %d after the discard starts %#x, want %#x", i, got[i][0], want[i][0])
			}
		}
		st := d.Stats().Sub(st0)
		if st.Discards != discards || st.BusyNanos != cost+p.svc(3) || st.Requests != 1 || st.Writes != 0 {
			t.Errorf("a discard and a 3-block read accounted as %+v, want %d discards busy %d ns beside the read",
				st, discards, cost)
		}
		if got := d.Clock().Now() - t0; got != cost+p.svc(3) {
			t.Errorf("clock advanced %d ns, want %d for the discard + %d for the read", got, cost, p.svc(3))
		}
		if len(trace) != 1 || spy.ordered != 0 {
			t.Errorf("trace holds %d entries (want the read alone), %d barrier writes (want 0)", len(trace), spy.ordered)
		}
		for what, err := range map[string]error{
			"past the end":  d.Discard(d.Sectors()-1, 2),
			"negative LBA":  d.Discard(-8, 8),
			"empty discard": d.Discard(0, 0),
		} {
			if err == nil {
				t.Errorf("discard %s accepted", what)
			}
		}
		if st := d.Stats().Sub(st0); st.Discards != discards {
			t.Errorf("refused discards were counted: %+v", st)
		}
	})

	t.Run("TraceStamping", func(t *testing.T) {
		d := p.dev(t, 0)
		var trace, fromFunc, fromMetrics []disk.TraceEntry
		d.SetTrace(&trace)
		d.SetTraceFunc(func(e disk.TraceEntry) { fromFunc = append(fromFunc, e) })
		d.SetMetricsFunc(func(e disk.TraceEntry) { fromMetrics = append(fromMetrics, e) })
		d.SetOpSource(func() (uint8, uint64) { return 3, 42 })
		if err := d.WriteV(8, [][]byte{block(1)}); err != nil {
			t.Fatal(err)
		}
		want := disk.TraceEntry{LBA: 8, Count: blockio.SectorsPerBlock, Write: true, Nanos: p.svc(1), OpKind: 3, OpID: 42}
		for _, got := range [][]disk.TraceEntry{trace, fromFunc, fromMetrics} {
			if len(got) != 1 || got[0] != want {
				t.Fatalf("observer saw %+v, want one %+v", got, want)
			}
		}
		// Removing every observer stops the stream; the batch path feeds it too.
		d.SetTraceFunc(nil)
		d.SetMetricsFunc(nil)
		d.SetOpSource(nil)
		submit(t, d, []blockio.Req{read(4), read(5)}, 1)
		if len(fromFunc) != 1 || len(fromMetrics) != 1 {
			t.Fatal("a removed observer still ran")
		}
		want = disk.TraceEntry{LBA: 4 * blockio.SectorsPerBlock, Count: 2 * blockio.SectorsPerBlock, Nanos: p.svc(2)}
		if len(trace) != 2 || trace[1] != want {
			t.Fatalf("trace %+v, want the merged read %+v appended unstamped", trace, want)
		}
	})

	// Two writes of one block in one batch land in submission order, as
	// under the mechanical path's stable C-LOOK sort: the last one sticks.
	t.Run("SameBlockOrder", func(t *testing.T) {
		got := make([]byte, blockio.BlockSize)
		for trial := int64(0); trial < 200; trial++ {
			rng := rand.New(rand.NewSource(trial))
			d := p.dev(t, 2)
			var reqs []blockio.Req
			var last byte
			for i := 0; i < 60; i++ {
				switch {
				case i%3 == 0:
					last = byte(i + 1)
					reqs = append(reqs, write(5, last))
				case rng.Intn(2) == 0:
					reqs = append(reqs, read(6+rng.Int63n(200)))
				default:
					reqs = append(reqs, write(6+rng.Int63n(200), 0xee))
				}
			}
			if _, err := d.SubmitBlocks(reqs); err != nil {
				t.Fatal(err)
			}
			if err := d.ReadV(5*blockio.SectorsPerBlock, [][]byte{got}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, block(last)) {
				t.Fatalf("trial %d: block 5 holds payload %#x, last submitted was %#x", trial, got[0], last)
			}
		}
	})
}
