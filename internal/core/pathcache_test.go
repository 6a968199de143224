package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"cffs/internal/obs"
	"cffs/internal/vfs"
)

func newPCFS(t *testing.T) *FS {
	return newCFFS(t, Options{EmbedInodes: true, Grouping: true,
		Mode: ModeDelayed, Metrics: obs.NewRegistry()})
}

func mustTree(t *testing.T, fs *FS, dirs []string, files []string) {
	t.Helper()
	for _, d := range dirs {
		if _, err := vfs.MkdirAll(fs, d); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range files {
		if err := vfs.WriteFile(fs, f, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
}

// A repeated deep walk is served from the path cache: the second
// resolution is a single probe, no per-component lookups.
func TestPathCacheHit(t *testing.T) {
	fs := newPCFS(t)
	mustTree(t, fs, []string{"/a/b/c/d"}, []string{"/a/b/c/d/leaf"})
	ino1, err := vfs.Walk(fs, "/a/b/c/d/leaf")
	if err != nil {
		t.Fatal(err)
	}
	h0 := fs.pc.hits.Value()
	ino2, err := vfs.Walk(fs, "/a/b/c/d/leaf")
	if err != nil {
		t.Fatal(err)
	}
	if ino1 != ino2 {
		t.Fatalf("cached walk landed on %#x, first walk on %#x", uint64(ino2), uint64(ino1))
	}
	if got := fs.pc.hits.Value() - h0; got != 1 {
		t.Errorf("second walk recorded %d path-cache hits, want 1", got)
	}
	if _, ok := fs.pc.get("/a/b/c/d/leaf"); !ok {
		t.Error("resolved path not present in the cache")
	}
}

// Unlinking a file kills its cached paths; the next walk misses and
// reports ErrNotExist.
func TestPathCacheInvalidationOnUnlink(t *testing.T) {
	fs := newPCFS(t)
	mustTree(t, fs, []string{"/d"}, []string{"/d/f"})
	if _, err := vfs.Walk(fs, "/d/f"); err != nil {
		t.Fatal(err)
	}
	dir, err := vfs.Walk(fs, "/d")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink(dir, "f"); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.pc.get("/d/f"); ok {
		t.Fatal("stale path survived unlink")
	}
	if _, err := vfs.Walk(fs, "/d/f"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("walk after unlink = %v, want ErrNotExist", err)
	}
}

// Moving a directory kills every cached path that resolved through it
// — prefix invalidation via the resolution chain — and the subtree is
// reachable under its new name immediately.
func TestPathCachePrefixInvalidationOnDirMove(t *testing.T) {
	fs := newPCFS(t)
	mustTree(t, fs, []string{"/a/b/c"}, []string{"/a/b/c/f1", "/a/b/c/f2"})
	for _, p := range []string{"/a/b/c/f1", "/a/b/c/f2", "/a/b/c", "/a/b"} {
		if _, err := vfs.Walk(fs, p); err != nil {
			t.Fatal(err)
		}
	}
	a, err := vfs.Walk(fs, "/a")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(a, "b", a, "moved"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a/b/c/f1", "/a/b/c/f2", "/a/b/c", "/a/b"} {
		if _, ok := fs.pc.get(p); ok {
			t.Fatalf("stale path %s survived the directory move", p)
		}
		if _, err := vfs.Walk(fs, p); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("walk %s after move = %v, want ErrNotExist", p, err)
		}
	}
	ino, err := vfs.Walk(fs, "/a/moved/c/f1")
	if err != nil {
		t.Fatalf("subtree unreachable under new name: %v", err)
	}
	if st, err := fs.Stat(ino); err != nil || st.Type != vfs.TypeReg {
		t.Fatalf("moved file stat %+v, %v", st, err)
	}
}

// Hard-linking an embedded file externalizes its inode — the ino
// changes identity — so cached paths naming the old ino must die and
// the next walk must land on the externalized inode.
func TestPathCacheInvalidationOnLinkExternalize(t *testing.T) {
	fs := newPCFS(t)
	mustTree(t, fs, []string{"/d"}, []string{"/d/f"})
	oldIno, err := vfs.Walk(fs, "/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Link(fs.Root(), "hard", oldIno); err != nil {
		t.Fatal(err)
	}
	dir, err := vfs.Walk(fs, "/d")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := fs.Lookup(dir, "f")
	if err != nil {
		t.Fatal(err)
	}
	got, err := vfs.Walk(fs, "/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if got != cur {
		t.Fatalf("walk after link returned %#x, directory holds %#x (stale cache)",
			uint64(got), uint64(cur))
	}
	if cur != oldIno {
		// The link really did externalize; both names must agree.
		viaLink, err := fs.Lookup(fs.Root(), "hard")
		if err != nil {
			t.Fatal(err)
		}
		if viaLink != cur {
			t.Fatalf("names diverge after externalize: %#x vs %#x", uint64(viaLink), uint64(cur))
		}
	}
}

// PathCache < 0 disables the cache; walks still work (nil-safe cache)
// and WalkPath stays correct.
func TestPathCacheDisabled(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Mode: ModeDelayed, PathCache: -1})
	if fs.pc != nil {
		t.Fatal("negative PathCache did not disable the cache")
	}
	mustTree(t, fs, []string{"/x/y"}, []string{"/x/y/z"})
	for i := 0; i < 2; i++ {
		if _, err := vfs.Walk(fs, "/x/y/z"); err != nil {
			t.Fatal(err)
		}
	}
}

// isPathKey must accept exactly the strings pathKey would rebuild: those
// are probed as given, and a path it wrongly accepted would be cached
// under a key no invalidation or canonical spelling ever meets.
func TestIsPathKeyMatchesPathKey(t *testing.T) {
	for _, p := range []string{
		"", "/", "//", "/.", "/./", ".", "a", "a/b", "/a", "/a/", "/a/b", "/a//b", "//a", "/a/./b",
		"/a/.", "/./a", "/a/..", "/../a", "/.a", "/a.", "/a/.b/c.", "/a/b/c/d/leaf", "/a/b/", "/ ", "/a/ /b",
	} {
		comps := vfs.SplitPath(p)
		want := len(comps) > 0 && pathKey(comps) == p
		if got := isPathKey(p); got != want {
			t.Errorf("isPathKey(%q) = %v, want %v (components %q)", p, got, want, comps)
		}
	}
}

// Every spelling of a path shares one cache entry: a canonical spelling
// is probed as given, any other is canonicalized first, and each walk
// records exactly one hit or one miss.
func TestPathCacheSpellings(t *testing.T) {
	fs := newPCFS(t)
	mustTree(t, fs, []string{"/a/b"}, []string{"/a/b/leaf"})
	want, err := vfs.Walk(fs, "/a/b/leaf") // the miss that fills the entry
	if err != nil {
		t.Fatal(err)
	}
	inserts := fs.pc.inserts.Value()
	for _, p := range []string{"/a/b/leaf", "a/b/leaf", "//a/./b//leaf/", "/a/b/leaf/."} {
		h0, m0 := fs.pc.hits.Value(), fs.pc.misses.Value()
		got, err := vfs.Walk(fs, p)
		if err != nil || got != want {
			t.Fatalf("Walk(%q) = %#x, %v; want %#x", p, uint64(got), err, uint64(want))
		}
		if h, m := fs.pc.hits.Value()-h0, fs.pc.misses.Value()-m0; h != 1 || m != 0 {
			t.Errorf("Walk(%q): %d hits, %d misses; want 1 hit", p, h, m)
		}
	}
	if got := fs.pc.inserts.Value(); got != inserts {
		t.Errorf("respelled walks inserted %d more entries", got-inserts)
	}
	m0 := fs.pc.misses.Value()
	if _, err := vfs.Walk(fs, "/a/b/nope"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("Walk of a missing name: %v", err)
	}
	if got := fs.pc.misses.Value() - m0; got != 1 {
		t.Errorf("a missing canonical path recorded %d misses, want 1", got)
	}
	for _, p := range []string{"", "/", "/.", "//"} {
		if got, err := vfs.Walk(fs, p); err != nil || got != fs.Root() {
			t.Errorf("Walk(%q) = %#x, %v; want the root", p, uint64(got), err)
		}
	}
}

// Eviction is a function of the insertion history alone: two fresh
// caches fed the same sequence — one shard filled past capacity twice,
// with invalidations leaving stale queue slots in between — keep the
// same survivors, the oldest inserted go first, and the queue stays
// bounded however often it is refilled.
func TestPathCacheEvictionDeterministic(t *testing.T) {
	const perCap = 8
	var keys []string // all in shard 0, so one shard sees every insert
	for i := 0; len(keys) < 3*perCap; i++ {
		if k := fmt.Sprintf("/d/f%04d", i); pathShardOf(k) == 0 {
			keys = append(keys, k)
		}
	}
	fill := func() (*pathCache, []string) {
		pc := newPathCache(perCap*nPathShards, obs.NewRegistry())
		for i, k := range keys {
			pc.put(k, vfs.Ino(100+i), []vfs.Ino{RootIno, 2, vfs.Ino(100 + i)})
			if i%5 == 4 { // drop the entry just inserted: its slot goes stale
				pc.invalidate(vfs.Ino(100 + i))
			}
		}
		s := &pc.shards[0]
		if len(s.entries) != perCap {
			t.Fatalf("shard holds %d entries, want %d", len(s.entries), perCap)
		}
		if cap(s.fifo) > 2*perCap {
			t.Errorf("eviction queue grew to %d slots for a %d-entry shard", cap(s.fifo), perCap)
		}
		var live []string
		for _, k := range keys {
			if _, ok := pc.get(k); ok {
				live = append(live, k)
			}
		}
		return pc, live
	}
	pc, a := fill()
	_, b := fill()
	if !slices.Equal(a, b) {
		t.Fatalf("same inserts, different survivors:\n %v\n %v", a, b)
	}
	var want []string // the newest perCap keys that were not invalidated
	for i := len(keys) - 1; i >= 0 && len(want) < perCap; i-- {
		if i%5 != 4 {
			want = append([]string{keys[i]}, want...)
		}
	}
	if !slices.Equal(a, want) {
		t.Errorf("survivors %v, want the newest inserts %v", a, want)
	}
	if ev := pc.evicts.Value(); ev == 0 {
		t.Error("no evictions recorded")
	}
}
