package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/flatdev"
	"cffs/internal/obs"
	"cffs/internal/sched"
	"cffs/internal/ssd"
	"cffs/internal/vfs"
)

// Discard at free, tested from the device's side: what is asserted is
// disk.Stats, the FTL's accounting and the bytes the device returns.

func discardFS(t *testing.T, tgt blockio.Target, mode Mode) *FS {
	t.Helper()
	fs, err := Mkfs(blockio.NewDevice(tgt, sched.CLook{}),
		Options{EmbedInodes: true, Grouping: true, Mode: mode, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// writeBlocks creates dir/name holding n whole blocks of a byte pattern
// and returns the physical blocks it landed on.
func writeBlocks(t *testing.T, fs *FS, dir vfs.Ino, name string, n int) []int64 {
	t.Helper()
	ino, err := fs.Create(dir, name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(ino, bytes.Repeat([]byte{0x5A}, n*blockio.BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	in, err := fs.getLiveInode(ino)
	if err != nil {
		t.Fatal(err)
	}
	phys := make([]int64, n)
	for lb := range phys {
		if phys[lb], err = fs.tree.Resolve(&in, int64(lb)); err != nil || phys[lb] == 0 {
			t.Fatalf("%s block %d unmapped: %v", name, lb, err)
		}
	}
	return phys
}

// runs counts the maximal physically contiguous ascending runs.
func runs(phys []int64) (n int64) {
	for i, p := range phys {
		if i == 0 || p != phys[i-1]+1 {
			n++
		}
	}
	return n
}

// A file's blocks reach the device as discards when it is unlinked or
// truncated: one command per contiguous run, every page unmapped once,
// the bytes destroyed — and a block freed and handed out again inside
// the same mount holds its new owner's bytes, not poison.
func TestDiscardAtFree(t *testing.T) {
	tgt := grTarget(t, "ssd")
	dev := tgt.(*ssd.Store)
	fs := discardFS(t, tgt, ModeSync)
	defer fs.Close()
	dir, err := fs.Mkdir(fs.Root(), "d")
	if err != nil {
		t.Fatal(err)
	}
	small := writeBlocks(t, fs, dir, "small", 4)
	big := writeBlocks(t, fs, dir, "big", 40) // past the direct pointers
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	st0, ftl0 := dev.Stats(), dev.FTL()
	if err := fs.Unlink(dir, "small"); err != nil {
		t.Fatal(err)
	}
	st, ftl := dev.Stats().Sub(st0), dev.FTL()
	if st.Discards != runs(small) || ftl.Trims-ftl0.Trims != int64(len(small)) {
		t.Fatalf("unlink of blocks %v: %d discards unmapped %d pages, want %d runs and %d pages",
			small, st.Discards, ftl.Trims-ftl0.Trims, runs(small), len(small))
	}
	got := make([]byte, blockio.BlockSize)
	for _, p := range small {
		if err := fs.dev.ReadBlock(p, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{flatdev.PoisonByte}, blockio.BlockSize)) {
			t.Fatalf("freed block %d still readable on the device", p)
		}
	}

	// Truncate to 2 blocks: the tail and the indirect block go, in far
	// fewer commands than blocks.
	ino, err := fs.Lookup(dir, "big")
	if err != nil {
		t.Fatal(err)
	}
	st0, ftl0 = dev.Stats(), dev.FTL()
	if err := fs.Truncate(ino, 2*blockio.BlockSize); err != nil {
		t.Fatal(err)
	}
	st, ftl = dev.Stats().Sub(st0), dev.FTL()
	freed := ftl.Trims - ftl0.Trims
	if freed < int64(len(big)-2) || st.Discards == 0 || st.Discards > runs(big[2:])+1 {
		t.Fatalf("truncate freed %d pages in %d discards; the %d data blocks lie in %d runs",
			freed, st.Discards, len(big)-2, runs(big[2:]))
	}

	// Reuse: new files take the freed blocks; what they wrote is what
	// the device holds once it is written back.
	reused := false
	for i := 0; i < 4; i++ {
		for _, p := range writeBlocks(t, fs, dir, fmt.Sprintf("new%d", i), 4) {
			reused = reused || p == small[0]
		}
	}
	if !reused {
		t.Fatalf("fixture: freed block %d was not handed out again", small[0])
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.dev.ReadBlock(small[0], got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0x5A}, blockio.BlockSize)) {
		t.Fatalf("reused block %d reads %#x.. from the device, want its new owner's bytes", small[0], got[0])
	}

	// A device with nothing to unmap is told all the same, and ignores it.
	disk := discardFS(t, grTarget(t, "disk"), ModeSync)
	defer disk.Close()
	writeBlocks(t, disk, disk.Root(), "f", 4)
	if err := disk.Unlink(disk.Root(), "f"); err != nil {
		t.Fatal(err)
	}
	if n := disk.dev.Disk().Stats().Discards; n != 0 {
		t.Fatalf("the mechanical disk counted %d discards", n)
	}
}

// The discard must reach the device through any wrapper that embeds
// blockio.Target — the shape of the benchmark's tracing interposer — or
// observing a mount would switch its discards off. The twin of
// TestGroupReadCostSurvivesInterposer.
func TestDiscardSurvivesInterposer(t *testing.T) {
	run := func(wrap func(blockio.Target) blockio.Target) (discards, trims int64) {
		dev := grTarget(t, "ssd").(*ssd.Store)
		fs := discardFS(t, wrap(dev), ModeDelayed)
		defer fs.Close()
		rng := rand.New(rand.NewSource(5))
		var live []string
		for i := 0; i < 400; i++ {
			// Write back now and then, so the FTL has pages to unmap.
			if i%40 == 39 {
				if err := fs.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			if len(live) > 20 && rng.Intn(2) == 0 {
				k := rng.Intn(len(live))
				if err := fs.Unlink(fs.Root(), live[k]); err != nil {
					t.Fatal(err)
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			name := fmt.Sprintf("f%04d", i)
			writeBlocks(t, fs, fs.Root(), name, 1+rng.Intn(5))
			live = append(live, name)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		return dev.Stats().Discards, dev.FTL().Trims
	}
	// Counts, not the clock: the bare wrapper also hides the device's
	// batch scheduler, so the two runs merge their writes differently.
	d0, t0 := run(func(tgt blockio.Target) blockio.Target { return tgt })
	d1, t1 := run(func(tgt blockio.Target) blockio.Target { return struct{ blockio.Target }{tgt} })
	if d0 == 0 || t0 == 0 {
		t.Fatalf("the churn discarded nothing: %d discards, %d pages", d0, t0)
	}
	if d0 != d1 || t0 != t1 {
		t.Errorf("through an interposer: %d discards of %d pages; bare: %d of %d", d1, t1, d0, t0)
	}
}

// The free path's allocation budget: unlinking a cached 4-block file on
// the ssd, registry attached, allocates nothing — so nothing for the
// discard either: one static poison page per device, the run on
// truncate's stack, no closure per call.
func TestAllocsFreePath(t *testing.T) {
	const files = 120
	tgt := grTarget(t, "ssd")
	tgt.(*ssd.Store).SetMetrics(obs.NewRegistry())
	fs := discardFS(t, tgt, ModeDelayed)
	defer fs.Close()
	names := make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("f%04d", i)
		writeBlocks(t, fs, fs.Root(), names[i], 4)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	next := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := fs.Unlink(fs.Root(), names[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if st := tgt.Stats(); st.Discards < int64(next) {
		t.Fatalf("fixture: %d discards for %d unlinks", st.Discards, next)
	}
	if allocs != 0 {
		t.Errorf("unlink with its blocks discarded: %.1f allocs/op, budget 0", allocs)
	}
}
