package flatdev_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/disk"
	"cffs/internal/sim"
	"cffs/internal/ssd"
)

var update = flag.Bool("update", false, "rewrite testdata/script.golden from the current implementation")

// TestGoldenScript is the identity oracle for the engine: one fixed
// request script run on both backends at 1, 2, 8 and unbounded channels,
// and on a small pre-dirtied flash geometry whose every write forces GC,
// recording the clock, disk.Stats, every trace entry and the FTL's
// accounting. testdata/script.golden was captured from the two separate
// implementations this package replaced, so a diff here is a simulated
// number that moved.
func TestGoldenScript(t *testing.T) {
	var out strings.Builder
	for _, channels := range []int{1, 2, 8, 0} {
		for _, p := range paramSets {
			script(t, &out, fmt.Sprintf("%s/%dch", p.name, channels), p.dev(t, channels), 0)
		}
	}
	aged := ssd.DefaultSpec()
	aged.Channels, aged.PagesPerBlock, aged.PreDirty = 2, 8, true
	d, err := ssd.NewMem(aged, sim.NewClock(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	script(t, &out, "ssd/aged", d, 300)

	const path = "testdata/script.golden"
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl := append(strings.Split(got, "\n"), "<end>")
		wl := append(strings.Split(string(want), "\n"), "<end>")
		i := 0
		for gl[i] == wl[i] {
			i++
		}
		t.Fatalf("transcript differs from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
	}
}

// script drives d through single requests, a barrier and three batches,
// then churn random single-block overwrites, logging the device state
// after each step, then the whole trace and the FTL's accounting.
func script(t *testing.T, out *strings.Builder, name string, d flat, churn int) {
	t.Helper()
	var trace []disk.TraceEntry
	var op uint64
	d.SetTrace(&trace)
	d.SetOpSource(func() (uint8, uint64) { op++; return uint8(op % 5), op })
	step := func(what string, issued int, err error) {
		if err != nil {
			t.Fatalf("%s: %s: %v", name, what, err)
		}
		fmt.Fprintf(out, "  %-12s issued=%d clock=%d stats=%+v\n", what, issued, d.Clock().Now(), d.Stats())
	}
	fmt.Fprintf(out, "%s\n", name)
	step("writev", 1, d.WriteV(0, blocks(3)))
	step("readv", 1, d.ReadV(8, blocks(2)))
	step("ordered", 1, d.WriteOrdered(64, make([]byte, blockio.BlockSize)))
	step("readv-odd", 1, d.ReadV(3, [][]byte{make([]byte, 5*disk.SectorSize)}))

	// Mixed batch: a 20-block write run (splits at the 64 KB cap), a read
	// run broken by a write in its middle, and scattered singles of both
	// directions in submission order unrelated to address order.
	rng := rand.New(rand.NewSource(14))
	var reqs []blockio.Req
	for b := int64(0); b < 20; b++ {
		reqs = append(reqs, blockio.Req{Write: true, Block: 40 + b, Bufs: blocks(1)})
	}
	for b := int64(0); b < 6; b++ {
		reqs = append(reqs, blockio.Req{Write: b == 3, Block: 100 + b, Bufs: blocks(1)})
	}
	for _, b := range rng.Perm(60)[:12] {
		reqs = append(reqs, blockio.Req{Write: b%2 == 0, Block: 120 + 2*int64(b), Bufs: blocks(1 + b%3)})
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	issued, err := d.SubmitBlocks(reqs)
	step("batch-mixed", issued, err)

	// Unequal read runs: exercises longest-first packing on bounded pools.
	reqs = reqs[:0]
	for i, n := range []int{7, 1, 4, 2, 9, 3, 5} {
		for b := 0; b < n; b++ {
			reqs = append(reqs, blockio.Req{Block: int64(i*20 + b), Bufs: blocks(1)})
		}
	}
	issued, err = d.SubmitBlocks(reqs)
	step("batch-lpt", issued, err)

	for i := 0; i < churn; i++ {
		if err := d.WriteV(rng.Int63n(capacity/blockio.BlockSize)*blockio.SectorsPerBlock, blocks(1)); err != nil {
			t.Fatal(err)
		}
	}
	step("churn", churn, nil)

	// A write batch big enough that, on the aged device, GC runs inside it
	// and is charged after the makespan.
	reqs = reqs[:0]
	for _, b := range rng.Perm(256)[:40] {
		reqs = append(reqs, blockio.Req{Write: true, Block: int64(b), Bufs: blocks(1)})
	}
	issued, err = d.SubmitBlocks(reqs)
	step("batch-write", issued, err)

	d.ResetStats()
	step("reset", 0, nil)
	for _, e := range trace {
		fmt.Fprintf(out, "  trace %+v\n", e)
	}
	if f, ok := d.(interface{ FTL() ssd.FTLStats }); ok {
		fmt.Fprintf(out, "  ftl %+v\n", f.FTL())
	}
}
