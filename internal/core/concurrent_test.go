package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/sched"
	"cffs/internal/vfs"
)

// Concurrency stress tests. They are most valuable under the race
// detector (go test -race), which the CI pipeline runs; without -race
// they still catch deadlocks and structural corruption.

// raceTolerable reports whether an error is an expected outcome of
// clients racing on a shared namespace rather than a bug: the name
// appeared or vanished under us, or a stale embedded Ino was recycled.
func raceTolerable(err error) bool {
	return errors.Is(err, vfs.ErrExist) || errors.Is(err, vfs.ErrNotExist) ||
		errors.Is(err, vfs.ErrInvalid)
}

// TestConcurrentCreateLookupUnlink races creates, lookups and unlinks of
// overlapping names in one shared directory: losers of a namespace race
// see a clean ErrExist/ErrNotExist, the clients really do collide, and
// every survivor is a whole file (linked, readable to its recorded
// size) on an image that reaches the disk.
func TestConcurrentCreateLookupUnlink(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Mode: ModeDelayed})
	dir, err := fs.Mkdir(fs.Root(), "shared")
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const opsPer = 300
	const names = 24
	var fails atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			data := []byte("hello from a racing client")
			for i := 0; i < opsPer; i++ {
				name := fmt.Sprintf("n%02d", (client*7+i)%names)
				var err error
				switch i % 3 {
				case 0:
					var ino vfs.Ino
					if ino, err = fs.Create(dir, name); err == nil {
						_, err = fs.WriteAt(ino, data, 0)
					}
				case 1:
					var ino vfs.Ino
					if ino, err = fs.Lookup(dir, name); err == nil {
						buf := make([]byte, len(data))
						_, err = fs.ReadAt(ino, buf, 0)
					}
				case 2:
					err = fs.Unlink(dir, name)
				}
				if err != nil && !raceTolerable(err) {
					errs <- fmt.Errorf("client %d op %d on %s: %w", client, i, name, err)
					return
				}
				if err != nil {
					fails.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if fails.Load() == 0 {
		t.Fatal("no operation lost a namespace race; the clients are not actually racing")
	}

	// The directory must still be a consistent, fully readable tree.
	ents, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		st, err := fs.Stat(e.Ino)
		if err != nil {
			t.Fatalf("stat %s after race: %v", e.Name, err)
		}
		if st.Nlink == 0 {
			t.Errorf("%s survives with zero links", e.Name)
		}
		if e.Name == "." || e.Name == ".." {
			continue
		}
		buf := make([]byte, st.Size)
		if n, err := fs.ReadAt(e.Ino, buf, 0); err != nil || int64(n) != st.Size {
			t.Errorf("%s: read %d of %d bytes: %v", e.Name, n, st.Size, err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if fs.dev.Disk().Stats().Requests == 0 {
		t.Error("the run and its sync did no simulated disk work")
	}
	t.Logf("%d entries survive, %d conflicted ops", len(ents), fails.Load())
}

// TestConcurrentReaders exercises the shared read path: once the tree is
// built, goroutines Lookup, Stat, ReadDir and ReadAt concurrently with
// no writer. With a writer-preferring RWMutex this is the path that
// actually runs in parallel, so it is where cache-internal races would
// surface.
func TestConcurrentReaders(t *testing.T) {
	// The recency rule on the disk (every read takes adaptMu), and the
	// group-read controller on a priced device: there the tree is larger
	// than the cache, so the readers keep missing, speculative fills keep
	// resolving, and the controller revises its decision under their feet.
	t.Run("disk-adaptive", func(t *testing.T) {
		concurrentReaders(t, newCFFS(t, Options{
			EmbedInodes: true, Grouping: true, Mode: ModeDelayed, AdaptiveGroupRead: true,
		}), 4, 16)
	})
	t.Run("ssd-controller", func(t *testing.T) {
		fs, err := Mkfs(blockio.NewDevice(grTarget(t, "ssd"), sched.CLook{}), Options{
			EmbedInodes: true, Grouping: true, Mode: ModeDelayed, CacheBlocks: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		concurrentReaders(t, fs, 8, 48)
		if st := fs.c.Stats(); st.PrefetchUsed+st.PrefetchUnused < 4*groupReadWindow {
			t.Errorf("only %d speculative fills resolved; the controller was not driven", st.PrefetchUsed+st.PrefetchUnused)
		}
	})
}

func concurrentReaders(t *testing.T, fs *FS, dirs, filesPer int) {
	defer fs.Close()
	content := make([]byte, 3000)
	for i := range content {
		content[i] = byte(i)
	}
	dinos := make([]vfs.Ino, dirs)
	for d := range dinos {
		dir, err := fs.Mkdir(fs.Root(), fmt.Sprintf("d%d", d))
		if err != nil {
			t.Fatal(err)
		}
		dinos[d] = dir
		for f := 0; f < filesPer; f++ {
			ino, err := fs.Create(dir, fmt.Sprintf("f%02d", f))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.WriteAt(ino, content, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, len(content))
			for i := 0; i < 200; i++ {
				dir := dinos[(r+i)%dirs]
				ents, err := fs.ReadDir(dir)
				if err != nil {
					errs <- err
					return
				}
				name := fmt.Sprintf("f%02d", (r*3+i)%filesPer)
				ino, err := fs.Lookup(dir, name)
				if err != nil {
					errs <- fmt.Errorf("lookup %s: %w", name, err)
					return
				}
				if _, err := fs.Stat(ino); err != nil {
					errs <- err
					return
				}
				n, err := fs.ReadAt(ino, buf, 0)
				if err != nil {
					errs <- fmt.Errorf("read %s: %w", name, err)
					return
				}
				if n != len(content) || buf[1000] != content[1000] {
					errs <- fmt.Errorf("read %s: bad content (n=%d)", name, n)
					return
				}
				if len(ents) != filesPer {
					errs <- fmt.Errorf("readdir: %d entries", len(ents))
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentRenameAcrossDirs races renames between two directories
// in both directions: each Rename is a writer under fs.mu, so opposing
// moves must serialize with no deadlock and no lost file.
func TestConcurrentRenameAcrossDirs(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Mode: ModeDelayed})
	da, err := fs.Mkdir(fs.Root(), "a")
	if err != nil {
		t.Fatal(err)
	}
	db, err := fs.Mkdir(fs.Root(), "b")
	if err != nil {
		t.Fatal(err)
	}
	const balls = 6
	for i := 0; i < balls; i++ {
		if _, err := fs.Create(da, fmt.Sprintf("ball%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	const movers = 6
	var wg sync.WaitGroup
	errs := make(chan error, movers)
	for m := 0; m < movers; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			name := fmt.Sprintf("ball%d", m%balls)
			for i := 0; i < 100; i++ {
				src, dst := da, db
				if (m+i)%2 == 1 {
					src, dst = db, da
				}
				if err := fs.Rename(src, name, dst, name); err != nil && !raceTolerable(err) {
					errs <- fmt.Errorf("mover %d: %w", m, err)
					return
				}
			}
		}(m)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every ball must end up in exactly one of the two directories.
	found := map[string]int{}
	for _, dir := range []vfs.Ino{da, db} {
		ents, err := fs.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.Name == "." || e.Name == ".." {
				continue
			}
			found[e.Name]++
		}
	}
	if len(found) != balls {
		t.Fatalf("%d of %d balls survive: %v", len(found), balls, found)
	}
	for name, n := range found {
		if n != 1 {
			t.Fatalf("%s present %d times", name, n)
		}
	}
}

// TestConcurrentMixedWithSync races file operations against Sync calls,
// the combination that breaks naive designs: Sync walks and writes out
// dirty buffers while writers are dirtying them.
func TestConcurrentMixedWithSync(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Mode: ModeDelayed})
	dir, err := fs.Mkdir(fs.Root(), "work")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := make([]byte, 2048)
			for i := 0; i < 150; i++ {
				name := fmt.Sprintf("w%d_%d", w, i%10)
				ino, err := fs.Create(dir, name)
				if err != nil {
					if raceTolerable(err) {
						continue
					}
					errs <- err
					return
				}
				if _, err := fs.WriteAt(ino, data, 0); err != nil && !raceTolerable(err) {
					errs <- err
					return
				}
				if i%3 == 0 {
					if err := fs.Unlink(dir, name); err != nil && !raceTolerable(err) {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := fs.Sync(); err != nil {
				errs <- fmt.Errorf("sync: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
}
