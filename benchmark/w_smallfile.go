package main

import (
	"bytes"
	"fmt"
	"time"

	"cffs/internal/core"
	"cffs/internal/store"
	"cffs/internal/vfs"
)

// cold_read and sync_write are the paper's small-file benchmark (after
// [Rosenblum92]) split at its phase boundaries: 10000 1 KB files spread
// directory-major over 100 directories, synchronous metadata, an 8 MB
// cache, the ST31200. The layout steps mirror `cffsbench -exp
// smallfile-sync`, so the numbers tie to EXPERIMENTS.md.

const smallFileSize = 1024

// flushFS is what both workloads drive: the mount or its interposer.
type flushFS interface {
	vfs.FileSystem
	vfs.Flusher
}

// fsFor is the file system client c calls: the mount itself, or in the
// traced pass an interposer recording into c's thread.
func (r *run) fsFor(c *client) flushFS {
	if c.th == nil {
		return r.stk.fs
	}
	return &tracedFS{fs: r.stk.fs, th: c.th}
}

// smallFiles is the file set both workloads share.
type smallFiles struct {
	r      *run
	n      int
	perDir int
	dirs   []vfs.Ino // refilled by mkdirs for each fresh stack
	names  []string
	buf    []byte
}

func newSmallFiles(r *run) *smallFiles {
	s := &smallFiles{r: r, n: r.scaled(10000), buf: make([]byte, smallFileSize)}
	ndirs := r.scaled(100)
	s.perDir = (s.n + ndirs - 1) / ndirs
	s.dirs = make([]vfs.Ino, ndirs)
	s.names = make([]string, s.n)
	for i := range s.names {
		s.names[i] = fmt.Sprintf("f%06d", i)
	}
	return s
}

func (s *smallFiles) open() error {
	stk, err := s.r.openStack(store.Config{Backend: "disk"},
		core.Options{Mode: core.ModeSync, CacheBlocks: 2048})
	if err != nil {
		return err
	}
	s.r.stk = stk
	for i := range s.dirs {
		if s.dirs[i], err = stk.fs.Mkdir(stk.fs.Root(), fmt.Sprintf("dir%04d", i)); err != nil {
			return err
		}
	}
	return stk.fs.Flush()
}

func (s *smallFiles) dir(i int) vfs.Ino { return s.dirs[i/s.perDir] }

// data is file i's content: version 0 as created, 1 as overwritten.
func (s *smallFiles) data(i int, version uint64) []byte {
	return s.r.pat.bytes(s.r.pat.key(uint64(i), version), 0, smallFileSize)
}

// createAll, overwriteAll, readAll and unlinkAll are one op per file,
// in creation order, ending with the write-back the paper counts into
// the phase.
func (s *smallFiles) createAll(fs flushFS, c *client) error {
	c.start()
	for i := 0; i < s.n; i++ {
		ino, err := fs.Create(s.dir(i), s.names[i])
		if err == nil {
			_, err = fs.WriteAt(ino, s.data(i, 0), 0)
		}
		if err != nil {
			s.r.opErr("create "+s.names[i], err)
		}
		c.done(err == nil)
	}
	return fs.Sync()
}

func (s *smallFiles) overwriteAll(fs flushFS, c *client) error {
	c.start()
	for i := 0; i < s.n; i++ {
		ino, err := fs.Lookup(s.dir(i), s.names[i])
		if err == nil {
			_, err = fs.WriteAt(ino, s.data(i, 1), 0)
		}
		if err != nil {
			s.r.opErr("overwrite "+s.names[i], err)
		}
		c.done(err == nil)
	}
	return fs.Sync()
}

func (s *smallFiles) readAll(fs flushFS, c *client, version uint64) error {
	c.start()
	for i := 0; i < s.n; i++ {
		n := 0
		ino, err := fs.Lookup(s.dir(i), s.names[i])
		if err == nil {
			n, err = fs.ReadAt(ino, s.buf, 0)
		}
		if err == nil && !bytes.Equal(s.buf[:n], s.data(i, version)) {
			err = fmt.Errorf("wrong bytes (%d read)", n)
		}
		if err != nil {
			s.r.opErr("read "+s.names[i], err)
		}
		c.done(err == nil)
	}
	return nil
}

func (s *smallFiles) unlinkAll(fs flushFS, c *client) error {
	c.start()
	for i := 0; i < s.n; i++ {
		err := fs.Unlink(s.dir(i), s.names[i])
		if err != nil {
			s.r.opErr("unlink "+s.names[i], err)
		}
		c.done(err == nil)
	}
	return fs.Sync()
}

// coldRead reads the whole set again and again from a flushed cache.
type coldRead struct{ *smallFiles }

func setupColdRead(r *run) (instance, error) {
	w := coldRead{newSmallFiles(r)}
	if err := w.open(); err != nil {
		return nil, err
	}
	// Untimed, on the mount itself: set-up is not part of any layer's budget.
	if err := w.createAll(r.stk.fs, r.clients[0]); err != nil {
		return nil, err
	}
	return w, r.stk.fs.Flush()
}

func (w coldRead) pass() error {
	c := w.r.clients[0]
	fs := w.r.fsFor(c)
	return w.r.timed("read", func() error {
		if err := fs.Flush(); err != nil {
			return err
		}
		return w.readAll(fs, c, 0)
	})
}

// One untimed pass leaves the drive where every timed pass leaves it,
// so all timed passes cost the same simulated time.
func (w coldRead) warm() error                 { return w.pass() }
func (w coldRead) round(d time.Duration) error { return w.r.untilElapsed(d, w.pass) }
func (w coldRead) verify() error               { return nil } // every read was compared as it ran
func (w coldRead) close() error                { return nil }

// syncWrite runs create, overwrite and delete on a fresh file system
// per iteration, so every iteration does identical device work.
type syncWrite struct {
	*smallFiles
	used bool // the current stack has run an iteration
}

func setupSyncWrite(r *run) (instance, error) {
	w := &syncWrite{smallFiles: newSmallFiles(r)}
	return w, w.open()
}

// fresh replaces a used stack. The old one stays mounted until then, so
// the heap measured after the last round holds a whole stack.
func (w *syncWrite) fresh() error {
	if !w.used {
		return nil
	}
	w.used = false
	if _, err := w.r.stk.close(false); err != nil {
		return err
	}
	return w.open()
}

func (w *syncWrite) iteration() error {
	r, c := w.r, w.r.clients[0]
	if err := w.fresh(); err != nil {
		return err
	}
	w.used = true
	fs := r.fsFor(c)
	phases := []struct {
		name string
		body func(flushFS, *client) error
	}{{"create", w.createAll}, {"overwrite", w.overwriteAll}, {"delete", w.unlinkAll}}
	for _, ph := range phases {
		err := r.timed(ph.name, func() error {
			if err := ph.body(fs, c); err != nil {
				return err
			}
			return fs.Flush()
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *syncWrite) warm() error                 { return w.iteration() }
func (w *syncWrite) round(d time.Duration) error { return w.r.untilElapsed(d, w.iteration) }

// verify leaves a last image with every file overwritten, reads it all
// back cold, and hands it to the image check.
func (w *syncWrite) verify() error {
	if err := w.fresh(); err != nil {
		return err
	}
	fs, c := w.r.stk.fs, w.r.clients[0]
	if err := w.createAll(fs, c); err != nil {
		return err
	}
	if err := w.overwriteAll(fs, c); err != nil {
		return err
	}
	if err := fs.Flush(); err != nil {
		return err
	}
	return w.readAll(fs, c, 1)
}

func (w *syncWrite) close() error { return nil }
