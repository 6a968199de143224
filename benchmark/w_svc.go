package main

import (
	"fmt"
	"strconv"
	"time"

	"cffs/internal/core"
	"cffs/internal/srv"
	"cffs/internal/store"
	"cffs/internal/vfs"
	"cffs/internal/writeback"
)

// svc_mixed is the service path: the stack cffsd mounts by default
// (delayed metadata, write-behind daemon, registry, fair-share dispatch)
// behind the loopback transport, with two tenants of one session each
// and one request outstanding per session. The core calls underneath are
// the ones hot_read makes directly, so what the wire adds is the
// difference between the two. Each session keeps a spool of its newest
// 4096 files: two spools are four times the cache, which forces the
// daemon to write while the reads go on (a 64-file window never left
// the cache).

const (
	svcDirs     = 8
	svcPerDir   = 32
	svcFileSize = 1024
	svcSpool    = 4096
)

type svcSession struct {
	cl    *srv.Client
	root  *srv.Fid
	dirs  []*srv.Fid // open for reading
	files []*srv.Fid // dirs x perDir, open for reading
	spool *srv.Fid

	dirNames  []string
	fileNames []string
	keys      []uint32
	head, seq int // live spool files are s<head> .. s<seq-1>
	buf       []byte
}

type svcMixed struct {
	r      *run
	window int
	server *srv.Server
	lb     *srv.Loopback
	served chan struct{} // closed when Serve returns
	sess   []*svcSession
}

func setupSvcMixed(r *run) (instance, error) {
	w := &svcMixed{r: r, window: r.scaled(svcSpool), lb: srv.NewLoopback(), served: make(chan struct{})}
	stk, err := r.openStack(store.Config{Backend: "disk"},
		core.Options{Mode: core.ModeDelayed, Writeback: writeback.Config{Enabled: true}})
	if err != nil {
		return nil, err
	}
	r.stk = stk
	var served vfs.FileSystem = stk.fs
	if r.tr != nil {
		served = &tracedFS{fs: stk.fs, th: r.tr.thread(), shared: true}
	}
	w.server = srv.New(srv.Config{FS: served, Registry: stk.reg, QoS: srv.QoS{FairShare: true}})
	go func() {
		w.server.Serve(w.lb) // returns when close() closes the listener
		close(w.served)
	}()
	for _, c := range r.clients {
		s, err := w.openSession(c)
		if err != nil {
			w.close()
			return nil, err
		}
		w.sess = append(w.sess, s)
	}
	return w, nil
}

// openSession provisions tenant t<id> over the wire: its tree, the
// pre-opened read fids, and the spool directory.
func (w *svcMixed) openSession(c *client) (*svcSession, error) {
	tenant := "t" + strconv.Itoa(c.id)
	if err := w.server.AddTenant(tenant); err != nil {
		return nil, err
	}
	nc, err := w.lb.Dial()
	if err != nil {
		return nil, err
	}
	s := &svcSession{buf: make([]byte, svcFileSize)}
	if s.cl, err = srv.NewClient(nc); err != nil {
		return nil, err
	}
	if s.root, err = s.cl.Attach(tenant); err != nil {
		return nil, err
	}
	for d := 0; d < svcDirs; d++ {
		dname := fmt.Sprintf("d%02d", d)
		if _, err := s.root.Mkdir(dname); err != nil {
			return nil, err
		}
		dfid, err := s.root.Walk(dname)
		if err != nil {
			return nil, err
		}
		for f := 0; f < svcPerDir; f++ {
			fname := fmt.Sprintf("f%03d", f)
			key := w.r.pat.key(uint64(c.id)<<32|uint64(d*svcPerDir+f), 5)
			fid, err := dfid.Create(fname)
			if err != nil {
				return nil, err
			}
			if _, err := fid.WriteAt(w.r.pat.bytes(key, 0, svcFileSize), 0); err != nil {
				return nil, err
			}
			if err := fid.Clunk(); err != nil {
				return nil, err
			}
			if fid, err = dfid.Walk(fname); err != nil {
				return nil, err
			}
			if _, err := fid.Open(srv.OModeRead); err != nil {
				return nil, err
			}
			s.files = append(s.files, fid)
			s.fileNames = append(s.fileNames, fname)
			s.keys = append(s.keys, key)
		}
		if _, err := dfid.Open(srv.OModeRead); err != nil {
			return nil, err
		}
		s.dirs = append(s.dirs, dfid)
		s.dirNames = append(s.dirNames, dname)
	}
	if _, err := s.root.Mkdir("spool"); err != nil {
		return nil, err
	}
	s.spool, err = s.root.Walk("spool")
	return s, err
}

func spoolName(seq int) string { return "s" + strconv.Itoa(seq) }

func (w *svcMixed) spoolKey(c *client, seq int) uint32 {
	return w.r.pat.key(uint64(c.id)<<32|uint64(seq), 6)
}

// spoolWrite is the 20 % op: create, write 1 KB, clunk, and unlink the
// oldest file once the window is full. 3 or 4 RPCs.
func (w *svcMixed) spoolWrite(c *client, s *svcSession) error {
	t := c.th.begin()
	fid, err := s.spool.Create(spoolName(s.seq))
	c.th.end(spSrvCreate, t)
	if err != nil {
		return err
	}
	t = c.th.begin()
	_, err = fid.WriteAt(w.r.pat.bytes(w.spoolKey(c, s.seq), 0, svcFileSize), 0)
	c.th.end(spSrvWriteAt, t)
	if err != nil {
		return err
	}
	s.seq++
	t = c.th.begin()
	err = fid.Clunk()
	c.th.end(spSrvClunk, t)
	if err != nil || s.seq-s.head <= w.window {
		return err
	}
	t = c.th.begin()
	err = s.spool.Unlink(spoolName(s.head))
	c.th.end(spSrvUnlink, t)
	s.head++
	return err
}

// readFid reads an open 1 KB file and compares it with what was written.
func (w *svcMixed) readFid(c *client, s *svcSession, fid *srv.Fid, key uint32) error {
	t := c.th.begin()
	n, err := fid.ReadAt(s.buf, 0)
	c.th.end(spSrvReadAt, t)
	if err != nil {
		return err
	}
	if n != svcFileSize || !w.r.pat.check(key, 0, s.buf) {
		return fmt.Errorf("wrong bytes (%d read)", n)
	}
	return nil
}

// op is one user action: 50 % read of an open file, 20 % walk+stat+clunk,
// 10 % one readdir page, 20 % spool write.
func (w *svcMixed) op(c *client, s *svcSession) error {
	x := c.rng.next()
	i := int(x>>8) % len(s.files)
	switch m := x % 10; {
	case m < 5:
		return w.readFid(c, s, s.files[i], s.keys[i])
	case m < 7:
		t := c.th.begin()
		fid, err := s.root.Walk(s.dirNames[i/svcPerDir], s.fileNames[i])
		c.th.end(spSrvWalk, t)
		if err != nil {
			return err
		}
		t = c.th.begin()
		st, err := fid.Stat()
		c.th.end(spSrvStat, t)
		if err == nil && st.Size != svcFileSize {
			err = fmt.Errorf("size %d", st.Size)
		}
		t = c.th.begin()
		cerr := fid.Clunk()
		c.th.end(spSrvClunk, t)
		if err == nil {
			err = cerr
		}
		return err
	case m < 8:
		t := c.th.begin()
		ents, _, err := s.dirs[i/svcPerDir].ReadDirPage(0)
		c.th.end(spSrvReadDir, t)
		if err == nil && len(ents) != svcPerDir {
			err = fmt.Errorf("readdir: %d entries", len(ents))
		}
		return err
	default:
		return w.spoolWrite(c, s)
	}
}

func (w *svcMixed) loop(d time.Duration) error {
	deadline := now() + int64(d)
	return w.r.eachClient(func(c *client) error {
		s := w.sess[c.id]
		c.start()
		for c.last < deadline {
			err := w.op(c, s)
			if err != nil {
				w.r.opErr("op", err)
			}
			c.done(err == nil)
		}
		return nil
	})
}

// warm fills both spools to the window first, so the rounds run at
// steady state: every spool write also unlinks, and the daemon is
// already flushing.
func (w *svcMixed) warm() error {
	err := w.r.eachClient(func(c *client) error {
		s := w.sess[c.id]
		for s.seq-s.head < w.window {
			if err := w.spoolWrite(c, s); err != nil {
				return fmt.Errorf("filling spool: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return w.loop(time.Duration(w.r.p.seconds / 15 * float64(time.Second)))
}

func (w *svcMixed) round(d time.Duration) error {
	return w.r.timed("", func() error { return w.loop(d) })
}

// verify reads back one spool file in 16 from each session through a
// fresh walk, then syncs through the wire.
func (w *svcMixed) verify() error {
	return w.r.eachClient(func(c *client) error {
		s := w.sess[c.id]
		c.start()
		for seq := s.head; seq < s.seq; seq += 16 {
			fid, err := s.spool.Walk(spoolName(seq))
			if err == nil {
				if _, err = fid.Open(srv.OModeRead); err == nil {
					err = w.readFid(c, s, fid, w.spoolKey(c, seq))
				}
				if cerr := fid.Clunk(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				w.r.opErr("verify "+spoolName(seq), err)
			}
			c.done(err == nil)
		}
		return s.root.Fsync()
	})
}

// close ends the sessions and the server, and waits for Serve to return.
func (w *svcMixed) close() error {
	for _, s := range w.sess {
		s.cl.Close()
	}
	w.lb.Close()
	w.server.Close()
	<-w.served
	return nil
}
