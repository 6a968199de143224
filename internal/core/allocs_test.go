package core

import (
	"fmt"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/obs"
	"cffs/internal/vfs"
)

// The read-path allocation budget (DESIGN.md), gated. The mount is the
// one cffsd and the benchmark use — registry attached, so op scopes,
// counters and the per-shard cache instruments are all live — and the
// tree is fully cached, so every measured call is the in-memory path: a
// slot scan or index probe over pinned blocks, a path-cache probe, a
// cache hit. None of those may allocate; ReadDir may allocate its
// result (one slice, one name string per directory block).
func TestAllocsReadPath(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Mode: ModeDelayed,
		CacheBlocks: 8192, Metrics: obs.NewRegistry()})
	defer fs.Close()

	// A 100-entry directory stays under the index threshold (linear
	// scan); a 256-entry one is indexed.
	const nLinear, nIndexed = 100, 256
	data := make([]byte, 1024)
	dirs := map[string]vfs.Ino{}
	for name, n := range map[string]int{"lin": nLinear, "idx": nIndexed} {
		dir, err := fs.Mkdir(fs.Root(), name)
		if err != nil {
			t.Fatal(err)
		}
		dirs[name] = dir
		for i := 0; i < n; i++ {
			ino, err := fs.Create(dir, fmt.Sprintf("f%04d", i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.WriteAt(ino, data, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	dirBlocks := func(dir vfs.Ino) int {
		in, err := fs.getLiveInode(dir)
		if err != nil {
			t.Fatal(err)
		}
		if indexed := in.DirIndexRootPtr() != 0; indexed != (dir == dirs["idx"]) {
			t.Fatalf("fixture: dir %#x indexed=%v", uint64(dir), indexed)
		}
		return int(in.Size / blockio.BlockSize)
	}
	linBlocks, idxBlocks := dirBlocks(dirs["lin"]), dirBlocks(dirs["idx"])

	// The last name of each directory: the linear scan passes every
	// other entry to reach it.
	linName, idxName := fmt.Sprintf("f%04d", nLinear-1), fmt.Sprintf("f%04d", nIndexed-1)
	linPath, idxPath := "/lin/"+linName, "/idx/"+idxName
	file, err := vfs.Walk(fs, idxPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vfs.Walk(fs, linPath); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	fs.Device().Disk().ResetStats()

	gates := []struct {
		name string
		max  float64
		fn   func() error
	}{
		{"walk-hit-linear", 0, func() error { _, err := vfs.Walk(fs, linPath); return err }},
		{"walk-hit-indexed", 0, func() error { _, err := vfs.Walk(fs, idxPath); return err }},
		{"lookup-linear", 0, func() error { _, err := fs.Lookup(dirs["lin"], linName); return err }},
		{"lookup-indexed", 0, func() error { _, err := fs.Lookup(dirs["idx"], idxName); return err }},
		{"stat", 0, func() error { _, err := fs.Stat(file); return err }},
		{"readat-1k", 0, func() error { _, err := fs.ReadAt(file, buf, 0); return err }},
		{"readdir-linear", float64(linBlocks + 2), func() error { _, err := fs.ReadDir(dirs["lin"]); return err }},
		{"readdir-indexed", float64(idxBlocks + 2), func() error { _, err := fs.ReadDir(dirs["idx"]); return err }},
	}
	for _, g := range gates {
		if err := g.fn(); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := testing.AllocsPerRun(100, func() { _ = g.fn() }); got > g.max {
			t.Errorf("%s: %.1f allocs/op, budget %.0f", g.name, got, g.max)
		}
	}
	if reqs := fs.Device().Disk().Stats(); reqs.Reads != 0 {
		t.Errorf("fixture not fully cached: %d device reads", reqs.Reads)
	}
}
