package main

import (
	"fmt"
	"time"

	"cffs/internal/core"
	"cffs/internal/store"
	"cffs/internal/vfs"
)

// hot_read is the engine with the device out of the picture: a tree of
// 64 directories x 256 1 KB files that fits the 32768-block cache and
// the path cache, read by two goroutines. What it costs is path
// resolution, the directory index, the fs lock, the cache hit path and
// allocation.
//
// Its timed rounds must not touch the device (verify fails the run if
// they do), so its simulated-clock metrics are those of the untimed
// tree build, per file built: the one stretch of this workload where
// the device works, and a delayed-write create path no other workload
// covers. A device-model change moves them and nothing else here.

const (
	hotDirs     = 64
	hotPerDir   = 256
	hotFileSize = 1024
)

type hotRead struct {
	r      *run
	nfiles int
	dirIno []vfs.Ino
	names  []string // file name by file index
	paths  []string // full path by file index
	keys   []uint32
}

func setupHotRead(r *run) (instance, error) {
	w := &hotRead{r: r, nfiles: r.scaled(hotDirs * hotPerDir)}
	w.names = make([]string, w.nfiles)
	w.paths = make([]string, w.nfiles)
	w.keys = make([]uint32, w.nfiles)
	w.dirIno = make([]vfs.Ino, (w.nfiles+hotPerDir-1)/hotPerDir)
	for i := range w.names {
		w.names[i] = fmt.Sprintf("f%04d", i%hotPerDir)
		w.paths[i] = fmt.Sprintf("/hot/d%02d/%s", i/hotPerDir, w.names[i])
		w.keys[i] = r.pat.key(uint64(i), 3)
	}
	stk, err := r.openStack(store.Config{Backend: "disk"},
		core.Options{Mode: core.ModeDelayed, CacheBlocks: 32768})
	if err != nil {
		return nil, err
	}
	r.stk = stk
	fs := stk.fs
	before := r.snapshot(false)
	hot, err := fs.Mkdir(fs.Root(), "hot")
	if err != nil {
		return nil, err
	}
	for d := range w.dirIno {
		if w.dirIno[d], err = fs.Mkdir(hot, fmt.Sprintf("d%02d", d)); err != nil {
			return nil, err
		}
	}
	for i := range w.names {
		ino, err := fs.Create(w.dirIno[i/hotPerDir], w.names[i])
		if err != nil {
			return nil, err
		}
		if _, err := fs.WriteAt(ino, r.pat.bytes(w.keys[i], 0, hotFileSize), 0); err != nil {
			return nil, err
		}
	}
	if err := fs.Sync(); err != nil {
		return nil, err
	}
	r.buildSim = r.snapshot(true)
	r.buildSim.add(before, -1)
	r.buildSim.ops = int64(w.nfiles)
	return w, nil
}

// readFile is the 60 % op: resolve the full path, read the file.
func (w *hotRead) readFile(fs vfs.FileSystem, i int, buf []byte) error {
	ino, err := vfs.Walk(fs, w.paths[i])
	if err != nil {
		return err
	}
	n, err := fs.ReadAt(ino, buf, 0)
	if err != nil {
		return err
	}
	if n != hotFileSize || !w.r.pat.check(w.keys[i], 0, buf) {
		return fmt.Errorf("%s: wrong bytes (%d read)", w.paths[i], n)
	}
	return nil
}

func (w *hotRead) op(fs vfs.FileSystem, c *client, buf []byte) error {
	x := c.rng.next()
	i := int(x>>8) % w.nfiles
	switch m := x % 10; {
	case m < 6:
		return w.readFile(fs, i, buf)
	case m < 9:
		ino, err := fs.Lookup(w.dirIno[i/hotPerDir], w.names[i])
		if err != nil {
			return err
		}
		st, err := fs.Stat(ino)
		if err != nil {
			return err
		}
		if st.Size != hotFileSize {
			return fmt.Errorf("%s: size %d", w.paths[i], st.Size)
		}
		return nil
	default:
		d := i / hotPerDir
		ents, err := fs.ReadDir(w.dirIno[d])
		if err != nil {
			return err
		}
		want := hotPerDir
		if last := w.nfiles - d*hotPerDir; last < want {
			want = last
		}
		if len(ents) != want {
			return fmt.Errorf("d%02d: %d entries, want %d", d, len(ents), want)
		}
		return nil
	}
}

// loop runs ops on every client until d has passed.
func (w *hotRead) loop(d time.Duration) error {
	deadline := now() + int64(d)
	return w.r.eachClient(func(c *client) error {
		fs := w.r.fsFor(c)
		buf := make([]byte, hotFileSize)
		c.start()
		for c.last < deadline {
			err := w.op(fs, c, buf)
			if err != nil {
				w.r.opErr("op", err)
			}
			c.done(err == nil)
		}
		return nil
	})
}

// warm touches every file through the path the rounds use, so the path
// cache and the buffer cache hold the whole tree, then runs the mix.
func (w *hotRead) warm() error {
	err := w.r.eachClient(func(c *client) error {
		buf := make([]byte, hotFileSize)
		c.start()
		for i := range w.paths {
			err := w.readFile(w.r.stk.fs, i, buf)
			if err != nil {
				w.r.opErr("warm-up", err)
			}
			c.done(err == nil)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return w.loop(time.Duration(w.r.p.seconds / 15 * float64(time.Second)))
}

func (w *hotRead) round(d time.Duration) error {
	return w.r.timed("", func() error { return w.loop(d) })
}

func (w *hotRead) verify() error {
	if t := w.r.total(); t.dev.reqs != 0 || t.simNs != 0 {
		w.r.problem("hot_read: timed rounds issued %d device requests (%d simulated ns); the working set must stay cached",
			t.dev.reqs, t.simNs)
	}
	return nil
}

func (w *hotRead) close() error { return nil }
