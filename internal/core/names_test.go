package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"cffs/internal/fstest"
	"cffs/internal/vfs"
)

// Directory scans compare the caller's name with the slot's bytes where
// they lie in the cached block (slotEntry.name is a view, not a copy).
// These tests pin the cases an in-place compare can get wrong — length
// boundaries, names that are prefixes of each other, bytes a signed or
// UTF-8-aware compare would mangle — against the Ref oracle, on every
// lookup path: the linear scan, the hash index, and the linear fallback
// an unclean mount uses until it has rebuilt the index.

// trickyNames are created; nearMisses are only probed.
var (
	longName = strings.Repeat("x", vfs.MaxNameLen-1)

	trickyNames = []string{
		longName + "a", longName + "b", // MaxNameLen bytes, differing in the last
		longName,                 // a strict prefix of both
		"a", "ab", "ab.", "ab..", // each a strict prefix of the next
		"\xff\xfe", "\x80", "a\x80", "é", "e\xcc\x81", // bytes >= 0x80, and two spellings of é
		"A", "aB", // case is significant
	}
	nearMisses = []string{
		"abc", "b", "ab.a", "a.", longName[:len(longName)-1], longName + "c",
		"\xff", "\xff\xfe\xfd", "a\x81", "e", "\xc3",
		longName + "ab", // one byte too long
		"", ".", "..",
	}
)

func errClass(err error) error {
	for _, s := range []error{vfs.ErrNotExist, vfs.ErrExist, vfs.ErrNameTooLong, vfs.ErrInvalid, vfs.ErrIsDir, vfs.ErrNotDir} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

// agree fails unless fs and the oracle resolve every probe name in dir
// the same way and list the same entries.
func agree(t *testing.T, when string, fs vfs.FileSystem, dir vfs.Ino, ref *fstest.Ref, rdir vfs.Ino, probes []string) {
	t.Helper()
	for _, name := range probes {
		ino, errA := fs.Lookup(dir, name)
		rino, errB := ref.Lookup(rdir, name)
		if errClass(errA) != errClass(errB) {
			t.Errorf("%s: Lookup(%q): fs %v, oracle %v", when, name, errA, errB)
			continue
		}
		if errA != nil {
			continue
		}
		st, err := fs.Stat(ino)
		if err != nil {
			t.Fatalf("%s: Stat(%q): %v", when, name, err)
		}
		rst, _ := ref.Stat(rino)
		// Directory sizes are a layout property the oracle does not model.
		if st.Type != rst.Type || (st.Type == vfs.TypeReg && st.Size != rst.Size) {
			t.Errorf("%s: %q resolves to type %v size %d, oracle type %v size %d",
				when, name, st.Type, st.Size, rst.Type, rst.Size)
		}
	}
	listing := func(f vfs.FileSystem, d vfs.Ino) []string {
		ents, err := f.ReadDir(d)
		if err != nil {
			t.Fatalf("%s: ReadDir: %v", when, err)
		}
		var out []string
		for _, e := range ents {
			out = append(out, fmt.Sprintf("%q/%v", e.Name, e.Type))
		}
		sort.Strings(out)
		return out
	}
	if got, want := listing(fs, dir), listing(ref, rdir); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s: listing differs from the oracle:\n fs     %v\n oracle %v", when, got, want)
	}
}

func TestNameViewsAgainstOracle(t *testing.T) {
	for _, mode := range []struct {
		name    string
		padding int  // extra entries, to push the directory over the index threshold
		crash   bool // remount without Close: the index is there but untrusted
	}{
		{"linear", 0, false},
		{"indexed", 200, false},
		{"untrusted-index", 200, true},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Mode: ModeDelayed})
			ref := fstest.NewRef()
			var live vfs.FileSystem = fs
			both := func(op string, f func(vfs.FileSystem, vfs.Ino) error, dirs map[vfs.FileSystem]vfs.Ino) {
				t.Helper()
				errA, errB := f(live, dirs[live]), f(ref, dirs[ref])
				if errClass(errA) != errClass(errB) {
					t.Fatalf("%s: fs %v, oracle %v", op, errA, errB)
				}
			}
			dirs := map[vfs.FileSystem]vfs.Ino{}
			for _, f := range []vfs.FileSystem{fs, ref} {
				d, err := f.Mkdir(f.Root(), "d")
				if err != nil {
					t.Fatal(err)
				}
				dirs[f] = d
			}
			create := func(name string, size int) {
				both(fmt.Sprintf("create %q", name), func(f vfs.FileSystem, d vfs.Ino) error {
					ino, err := f.Create(d, name)
					if err != nil || size == 0 {
						return err
					}
					_, err = f.WriteAt(ino, make([]byte, size), 0)
					return err
				}, dirs)
			}
			for i := 0; i < mode.padding; i++ {
				create(fmt.Sprintf("pad%04d", i), 0)
			}
			// Distinct sizes, so a lookup that lands on a neighbour shows.
			for i, name := range trickyNames {
				create(name, i+1)
			}
			for _, name := range nearMisses[len(nearMisses)-4:] {
				create(name, 0) // too long, empty, dot, dotdot: refused alike
			}
			both("mkdir sub", func(f vfs.FileSystem, d vfs.Ino) error { _, err := f.Mkdir(d, "ab.d"); return err }, dirs)

			din, err := fs.getLiveInode(dirs[fs])
			if err != nil {
				t.Fatal(err)
			}
			if indexed := din.DirIndexRootPtr() != 0; indexed != (mode.padding > 0) {
				t.Fatalf("fixture: directory indexed=%v with %d padding entries", indexed, mode.padding)
			}
			if mode.crash {
				if err := fs.Sync(); err != nil {
					t.Fatal(err)
				}
				fs2, err := Mount(fs.Device(), Options{Mode: ModeDelayed})
				if err != nil {
					t.Fatal(err)
				}
				defer fs2.Close()
				if fs2.idxTrusted(dirs[fs]) {
					t.Fatal("fixture: index trusted after an unclean mount")
				}
				dirs[fs2] = dirs[fs]
				live = fs2
			}

			probes := append(append([]string{"ab.d"}, trickyNames...), nearMisses...)
			agree(t, "after create", live, dirs[live], ref, dirs[ref], probes)

			// Remove the middle of a prefix chain, move a name onto a
			// prefix of itself, replace an existing entry. On the
			// crashed mount the first of these rebuilds the index.
			both("unlink ab", func(f vfs.FileSystem, d vfs.Ino) error { return f.Unlink(d, "ab") }, dirs)
			both("rename ab.. -> ab", func(f vfs.FileSystem, d vfs.Ino) error { return f.Rename(d, "ab..", d, "ab") }, dirs)
			both("rename long", func(f vfs.FileSystem, d vfs.Ino) error { return f.Rename(d, longName+"a", d, longName) }, dirs)
			both("unlink \\x80", func(f vfs.FileSystem, d vfs.Ino) error { return f.Unlink(d, "\x80") }, dirs)
			both("unlink missing", func(f vfs.FileSystem, d vfs.Ino) error { return f.Unlink(d, "a\x81") }, dirs)
			agree(t, "after mutation", live, dirs[live], ref, dirs[ref], probes)
		})
	}
}

// A corrupt on-disk name length can never make a scan read past the
// slot's name area into the embedded inode: it is clamped to the area's
// 120 bytes, for the in-place compare and for ReadDir's copy alike.
func TestCorruptNameLenIsClamped(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Mode: ModeDelayed})
	defer fs.Close()
	root := fs.Root()
	ino, err := fs.Create(root, "victim")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(ino, []byte("payload"), 0); err != nil {
		t.Fatal(err)
	}
	if !isEmbedded(ino) {
		t.Fatal("fixture: victim is not embedded")
	}
	block, slot := embedLoc(ino)
	fs.mu.Lock()
	b, err := fs.c.Read(block)
	if err != nil {
		t.Fatal(err)
	}
	off := slot * slotSize
	b.Data[off+5] = 200 // namelen beyond the 120-byte name area
	want := string(b.Data[off+slotNameOff : off+slotInodeOff])
	fs.c.MarkDirty(b)
	b.Release()
	fs.mu.Unlock()

	if want != "victim"+strings.Repeat("\x00", slotNameMax-len("victim")) {
		t.Fatalf("fixture: name area holds %q", want)
	}
	ents, err := fs.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != want || ents[0].Ino != ino {
		t.Fatalf("ReadDir = %+v, want one entry named the %d-byte clamped name", ents, slotNameMax)
	}
	if got, err := fs.Lookup(root, want); err != nil || got != ino {
		t.Errorf("Lookup(clamped name) = %#x, %v; want %#x", uint64(got), err, uint64(ino))
	}
	if _, err := fs.Lookup(root, "victim"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("Lookup(%q) = %v, want ErrNotExist: the entry's name is the clamped one", "victim", err)
	}
}

// Nothing a read call returns may alias a cache buffer once the pin and
// fs.mu are gone. Readers list, look up and walk one directory while a
// writer creates, renames and unlinks in it, reusing slots constantly;
// every name a reader was handed must still, after the writer has moved
// on, be a name that was created — never torn, never a later tenant of
// the same slot. Run under -race this also proves the copies are taken
// under the lock.
func TestConcurrentReadersSeeOnlyRealNames(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Mode: ModeDelayed})
	defer fs.Close()
	dir, err := fs.Mkdir(fs.Root(), "d")
	if err != nil {
		t.Fatal(err)
	}
	// Names of very different lengths and contents, so bytes of two of
	// them spliced together are never a third.
	const nNames = 48
	names := make([]string, nNames)
	universe := make(map[string]bool, nNames)
	for i := range names {
		names[i] = strings.Repeat(fmt.Sprintf("%02d.", i), 1+(i*7)%36)
		universe[names[i]] = true
	}
	tolerable := func(err error) bool {
		return err == nil || errors.Is(err, vfs.ErrNotExist) || errors.Is(err, vfs.ErrExist)
	}

	iters := 1500
	if testing.Short() {
		iters = 300
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []vfs.DirEntry // the previous listing, checked a round late
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ents, err := fs.ReadDir(dir)
				if err != nil {
					t.Errorf("reader %d: ReadDir: %v", r, err)
					return
				}
				name := names[(i*5+r)%nNames]
				if _, err := fs.Lookup(dir, name); !tolerable(err) {
					t.Errorf("reader %d: Lookup(%q): %v", r, name, err)
					return
				}
				if _, err := vfs.Walk(fs, "/d/"+name); !tolerable(err) {
					t.Errorf("reader %d: Walk(%q): %v", r, name, err)
					return
				}
				for _, e := range held {
					if !universe[e.Name] {
						t.Errorf("reader %d: ReadDir returned %q, which was never created", r, e.Name)
						return
					}
				}
				held = ents
			}
		}()
	}
	for i := 0; i < iters; i++ {
		a, b, c := names[i%nNames], names[(i*11+3)%nNames], names[(i*17+5)%nNames]
		if _, err := fs.Create(dir, a); !tolerable(err) {
			t.Fatalf("create %q: %v", a, err)
		}
		if err := fs.Rename(dir, a, dir, b); !tolerable(err) {
			t.Fatalf("rename %q -> %q: %v", a, b, err)
		}
		if err := fs.Unlink(dir, c); !tolerable(err) {
			t.Fatalf("unlink %q: %v", c, err)
		}
	}
	close(stop)
	wg.Wait()
}
