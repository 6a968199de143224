package core

import (
	"bytes"

	"testing"

	"cffs/internal/blockio"
	"cffs/internal/fstest"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// Extension tests: immediate files and sequential readahead.

func TestImmediateFileLivesInInode(t *testing.T) {
	data := []byte("tiny but mighty")
	run := func(immediate bool) (vfs.Stat, int64, []byte) {
		fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Immediate: immediate, Mode: ModeSync})
		fs.Device().Disk().ResetStats()
		ino, err := fs.Create(fs.Root(), "tiny")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(ino, data, 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		st, err := fs.Stat(ino)
		if err != nil {
			t.Fatal(err)
		}
		got, err := vfs.ReadFile(fs, "/tiny")
		if err != nil {
			t.Fatal(err)
		}
		return st, fs.Device().Disk().Stats().Writes, got
	}
	stOn, writesOn, gotOn := run(true)
	stOff, writesOff, gotOff := run(false)
	if !bytes.Equal(gotOn, data) || !bytes.Equal(gotOff, data) {
		t.Fatal("round trip failed")
	}
	// With embedding, the inline file's data travels in the directory
	// block: no data block allocated, strictly fewer disk writes.
	if stOn.Blocks != 0 {
		t.Fatalf("immediate file allocated %d blocks", stOn.Blocks)
	}
	if stOff.Blocks == 0 {
		t.Fatal("control run unexpectedly inline")
	}
	if writesOn >= writesOff {
		t.Fatalf("immediate file cost %d writes vs %d without; must be cheaper", writesOn, writesOff)
	}
}

func TestImmediateFileSpillsWhenGrowing(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Immediate: true, Mode: ModeDelayed})
	ino, err := fs.Create(fs.Root(), "grow")
	if err != nil {
		t.Fatal(err)
	}
	small := patternBytes(1, layout.InlineSize)
	if _, err := fs.WriteAt(ino, small, 0); err != nil {
		t.Fatal(err)
	}
	// Append past the inline capacity: must spill, preserving prefix.
	tail := patternBytes(2, 3000)
	if _, err := fs.WriteAt(ino, tail, layout.InlineSize); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fs, "/grow")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:layout.InlineSize], small) || !bytes.Equal(got[layout.InlineSize:], tail) {
		t.Fatal("spill lost data")
	}
	st, _ := fs.Stat(ino)
	if st.Blocks == 0 {
		t.Fatal("grown file still claims to be inline")
	}
	// Truncate back inside the inline range: stays block-backed (no
	// re-inlining), contents correct.
	if err := fs.Truncate(ino, 10); err != nil {
		t.Fatal(err)
	}
	got, _ = vfs.ReadFile(fs, "/grow")
	if !bytes.Equal(got, small[:10]) {
		t.Fatal("shrink after spill corrupted data")
	}
}

func TestImmediateTruncateGrowSpills(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Immediate: true, Mode: ModeDelayed})
	ino, err := fs.Create(fs.Root(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(ino, []byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(ino, 10000); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if _, err := fs.ReadAt(ino, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:3], []byte("abc")) {
		t.Fatalf("truncate-grow lost inline prefix: %q", buf[:3])
	}
	for _, b := range buf[3:] {
		if b != 0 {
			t.Fatal("grown region not zero")
		}
	}
	// And truncating within the inline form zeroes the dropped tail.
	ino2, _ := fs.Create(fs.Root(), "t2")
	if _, err := fs.WriteAt(ino2, []byte("0123456789"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(ino2, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(ino2, []byte{'X'}, 7); err != nil {
		t.Fatal(err)
	}
	got, _ := vfs.ReadFile(fs, "/t2")
	if !bytes.Equal(got, []byte{'0', '1', '2', '3', 0, 0, 0, 'X'}) {
		t.Fatalf("inline shrink+regrow = %q", got)
	}
}

// The extended configuration must still satisfy full conformance and
// the randomized oracle, and produce checkable images.
func TestExtensionsConformance(t *testing.T) {
	cfg := Options{EmbedInodes: true, Grouping: true, Immediate: true, Readahead: 8, Mode: ModeDelayed}
	fstest.Run(t, func(t *testing.T) vfs.FileSystem {
		return newCFFS(t, cfg)
	}, fstest.FsckWith(Check))
}

func TestExtensionsOracle(t *testing.T) {
	cfg := Options{EmbedInodes: true, Grouping: true, Immediate: true, Readahead: 8, Mode: ModeSync}
	fs := newCFFS(t, cfg)
	fstest.RunOracle(t, fs, 2000, 31337)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(fs.Device(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		max := len(rep.Problems)
		if max > 5 {
			max = 5
		}
		t.Fatalf("image inconsistent: %v", rep.Problems[:max])
	}
}

// Readahead must turn a cold sequential large-file read into a few
// scatter requests instead of one per block.
func TestReadaheadReducesSequentialRequests(t *testing.T) {
	data := patternBytes(9, 64*blockio.BlockSize)
	reqs := func(ra int) int64 {
		fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Readahead: ra, Mode: ModeDelayed})
		if err := vfs.WriteFile(fs, "/big", data); err != nil {
			t.Fatal(err)
		}
		if err := fs.Flush(); err != nil {
			t.Fatal(err)
		}
		ino, err := vfs.Walk(fs, "/big")
		if err != nil {
			t.Fatal(err)
		}
		fs.Device().Disk().ResetStats()
		got := make([]byte, len(data))
		if _, err := fs.ReadAt(ino, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("readahead corrupted data")
		}
		return fs.Device().Disk().Stats().Reads
	}
	without := reqs(0)
	with := reqs(8)
	if with >= without/3 {
		t.Fatalf("readahead=8: %d reads vs %d without; want >= 3x fewer", with, without)
	}
}

// Readahead must not fetch past physical discontinuities or EOF.
func TestReadaheadStopsAtDiscontinuity(t *testing.T) {
	fs := newCFFS(t, Options{Readahead: 16, Mode: ModeDelayed})
	// A sparse file: blocks 0-2 allocated, hole, then 10-11.
	ino, err := fs.Create(fs.Root(), "sparse")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(ino, patternBytes(3, 3*blockio.BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(ino, patternBytes(4, 2*blockio.BlockSize), 10*blockio.BlockSize); err != nil {
		t.Fatal(err)
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 12*blockio.BlockSize)
	n, err := fs.ReadAt(ino, got, 0)
	if err != nil || n != len(got) {
		t.Fatalf("sparse read = %d, %v", n, err)
	}
	want := patternBytes(3, 3*blockio.BlockSize)
	if !bytes.Equal(got[:len(want)], want) {
		t.Fatal("head corrupted")
	}
	for i := 3 * blockio.BlockSize; i < 10*blockio.BlockSize; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %#x", i, got[i])
		}
	}
}

func patternBytes(seed uint64, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(seed*131 + uint64(i)*7)
	}
	return p
}
