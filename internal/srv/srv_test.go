package srv_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cffs/internal/blockio"
	"cffs/internal/core"
	"cffs/internal/disk"
	"cffs/internal/obs"
	"cffs/internal/sched"
	"cffs/internal/sim"
	"cffs/internal/srv"
	"cffs/internal/vfs"
)

// newTestFS makes a fresh concurrent C-FFS on an in-memory disk.
func newTestFS(t *testing.T) *core.FS {
	t.Helper()
	d, err := disk.NewMem(disk.SeagateST31200(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mkfs(blockio.NewDevice(d, sched.CLook{}), core.Options{
		EmbedInodes: true,
		Grouping:    true,
		Mode:        core.ModeDelayed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// testServer serves cfg.FS (a fresh C-FFS when nil) over loopback and
// returns a dialer. Cleanup closes everything.
func testServer(t *testing.T, cfg srv.Config, tenants ...string) (*srv.Server, *srv.Loopback) {
	t.Helper()
	if cfg.FS == nil {
		cfg.FS = newTestFS(t)
	}
	s := srv.New(cfg)
	for _, tn := range tenants {
		if err := s.AddTenant(tn); err != nil {
			t.Fatal(err)
		}
	}
	lb := srv.NewLoopback()
	go s.Serve(lb)
	t.Cleanup(func() {
		lb.Close()
		s.Close()
	})
	return s, lb
}

// waitZeroFids polls for the asynchronous fid release that follows
// connection close; the fid table must drain to empty.
func waitZeroFids(t *testing.T, s *srv.Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.FidCount() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("fid leak: %d fids still live", s.FidCount())
}

func dialClient(t *testing.T, lb *srv.Loopback) *srv.Client {
	t.Helper()
	nc, err := lb.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := srv.NewClient(nc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServiceEndToEnd walks the whole vfs surface through the wire:
// attach, mkdir, create, write, read, stat, readdir, rename, unlink,
// rmdir, fsync, clunk.
func TestServiceEndToEnd(t *testing.T) {
	s, lb := testServer(t, srv.Config{}, "alpha")
	c := dialClient(t, lb)

	root, err := c.Attach("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.Mkdir("docs"); err != nil {
		t.Fatal(err)
	}
	docs, err := root.Walk("docs")
	if err != nil {
		t.Fatal(err)
	}
	f, err := docs.Create("hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("small files want bandwidth")
	if n, err := f.WriteAt(payload, 0); err != nil || n != len(payload) {
		t.Fatalf("write = %d, %v", n, err)
	}
	st, err := f.Stat()
	if err != nil || st.Size != int64(len(payload)) || st.Type != vfs.TypeReg {
		t.Fatalf("stat = %+v, %v", st, err)
	}
	buf := make([]byte, 64)
	if n, err := f.ReadAt(buf, 0); err != nil || !bytes.Equal(buf[:n], payload) {
		t.Fatalf("read = %q, %v", buf[:n], err)
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Clunk(); err != nil {
		t.Fatal(err)
	}

	// A fresh walk+open sees the same bytes.
	f2, err := root.WalkPath("docs/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Open(srv.OModeRead); err != nil {
		t.Fatal(err)
	}
	if n, err := f2.ReadAt(buf, 0); err != nil || !bytes.Equal(buf[:n], payload) {
		t.Fatalf("reopened read = %q, %v", buf[:n], err)
	}
	// The handle is read-only: writes are refused at the fid layer.
	if _, err := f2.WriteAt([]byte("nope"), 0); !errors.Is(err, srv.ErrPerm) {
		t.Fatalf("write through read-only fid = %v, want ErrPerm", err)
	}
	if err := f2.Clunk(); err != nil {
		t.Fatal(err)
	}

	// readdir, rename, unlink, rmdir.
	dd, err := root.Walk("docs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dd.Open(srv.OModeRead); err != nil {
		t.Fatal(err)
	}
	ents, err := dd.ReadDir()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if e.Name != "." && e.Name != ".." {
			names = append(names, e.Name)
		}
	}
	if len(names) != 1 || names[0] != "hello.txt" {
		t.Fatalf("readdir = %v", names)
	}
	if err := dd.Rename("hello.txt", root, "moved.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Walk("moved.txt"); err != nil {
		t.Fatalf("walk after rename: %v", err)
	}
	if err := root.Unlink("moved.txt"); err != nil {
		t.Fatal(err)
	}
	if err := root.Rmdir("docs"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Walk("docs"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("walk removed dir = %v, want ErrNotExist", err)
	}
	c.Close()
	waitZeroFids(t, s)
}

// TestTenantIsolation checks the namespace boundary: tenants see
// disjoint trees rooted at their subtree, ".." cannot escape, unknown
// tenants cannot attach, and cross-tenant renames are refused.
func TestTenantIsolation(t *testing.T) {
	_, lb := testServer(t, srv.Config{}, "alpha", "beta")
	c := dialClient(t, lb)

	ra, err := c.Attach("alpha")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := c.Attach("beta")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attach("mallory"); !errors.Is(err, srv.ErrPerm) {
		t.Fatalf("attach unknown tenant = %v, want ErrPerm", err)
	}

	af, err := ra.Create("secret")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := af.WriteAt([]byte("alpha-only"), 0); err != nil {
		t.Fatal(err)
	}
	// beta's namespace does not contain alpha's file.
	if _, err := rb.Walk("secret"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("cross-tenant walk = %v, want ErrNotExist", err)
	}
	// ".." from the tenant root is a hard stop, not a hop into "/".
	if _, err := ra.Walk(".."); !errors.Is(err, srv.ErrPerm) {
		t.Fatalf("walk .. from root = %v, want ErrPerm", err)
	}
	// Descend then climb: ".." inside the subtree is fine, past the
	// root it is not.
	if _, err := ra.Mkdir("sub"); err != nil {
		t.Fatal(err)
	}
	if _, err := ra.Walk("sub", "..", "sub"); err != nil {
		t.Fatalf("walk sub/../sub = %v", err)
	}
	if _, err := ra.Walk("sub", "..", "..", "beta"); !errors.Is(err, srv.ErrPerm) {
		t.Fatalf("escape via sub/../../beta = %v, want ErrPerm", err)
	}
	// Renaming across tenants is refused even with valid fids.
	if err := ra.Rename("secret", rb, "stolen"); !errors.Is(err, srv.ErrPerm) {
		t.Fatalf("cross-tenant rename = %v, want ErrPerm", err)
	}
}

// TestWalkEscapeAfterRename pins the rename/walk interaction the
// tenant boundary depends on: renaming a directory toward the tenant
// root must not let a fid minted deeper in the tree walk ".." past the
// boundary. The guard compares the walk position against the tenant
// root ino on every ".." step, so it cannot go stale the way a depth
// recorded at walk time would when rename repoints a directory's
// physical ".." entry under live fids.
func TestWalkEscapeAfterRename(t *testing.T) {
	_, lb := testServer(t, srv.Config{}, "alpha", "beta")
	c := dialClient(t, lb)
	ra, err := c.Attach("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ra.Mkdir("a"); err != nil {
		t.Fatal(err)
	}
	a, err := ra.Walk("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Mkdir("b"); err != nil {
		t.Fatal(err)
	}
	b, err := ra.Walk("a", "b") // minted two levels below the tenant root
	if err != nil {
		t.Fatal(err)
	}
	// Move /alpha/a/b up to /alpha/b: b's physical ".." now points at
	// the tenant root even though the fid was resolved two levels down.
	if err := a.Rename("b", ra, "b"); err != nil {
		t.Fatal(err)
	}
	// One ".." lands exactly on the tenant root and is fine...
	if _, err := b.Walk(".."); err != nil {
		t.Fatalf("walk .. after rename: %v", err)
	}
	// ...but a second must stop at the boundary, not slip into "/" and
	// from there into another tenant's subtree.
	if _, err := b.Walk("..", ".."); !errors.Is(err, srv.ErrPerm) {
		t.Fatalf("walk ../.. after rename = %v, want ErrPerm", err)
	}
	if _, err := b.Walk("..", "..", "beta"); !errors.Is(err, srv.ErrPerm) {
		t.Fatalf("cross-tenant escape after rename = %v, want ErrPerm", err)
	}
}

// TestRenameIntoOwnSubtreeOverWire: Trename hands fid inos straight to
// the file system, so a tenant can aim a directory at its own
// descendant. The refusal must arrive as the stable invalid-argument
// code, not as text, and must leave the directory where it was.
func TestRenameIntoOwnSubtreeOverWire(t *testing.T) {
	_, lb := testServer(t, srv.Config{}, "alpha")
	c := dialClient(t, lb)
	root, err := c.Attach("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.Mkdir("a"); err != nil {
		t.Fatal(err)
	}
	a, err := root.Walk("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Mkdir("b"); err != nil {
		t.Fatal(err)
	}
	b, err := root.Walk("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	for _, dst := range []*srv.Fid{a, b} {
		err := root.Rename("a", dst, "c")
		if !errors.Is(err, vfs.ErrInvalid) {
			t.Fatalf("rename a into its own subtree = %v, want ErrInvalid", err)
		}
		if code := srv.ErrCode(err); code != srv.ErrCode(vfs.ErrInvalid) {
			t.Fatalf("wire code %d, want the invalid-argument code %d", code, srv.ErrCode(vfs.ErrInvalid))
		}
	}
	if _, err := root.Walk("a", "b"); err != nil {
		t.Fatalf("directory gone after the refused renames: %v", err)
	}
}

// TestOpenModeMapping cross-checks the wire mode → vfs flag mapping
// against vfs.OpenFile on the same shapes: the lattice the fuzz corpus
// pins down must hold end to end through the protocol.
func TestOpenModeMapping(t *testing.T) {
	_, lb := testServer(t, srv.Config{}, "alpha")
	c := dialClient(t, lb)
	root, err := c.Attach("alpha")
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("body"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Mkdir("d"); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mode uint8
		want error // nil = success
	}{
		{"f", srv.OModeRead, nil},
		{"f", srv.OModeWrite, nil},
		{"f", srv.OModeRead | srv.OModeWrite | srv.OModeTrunc, nil},
		{"f", srv.OModeRead | srv.OModeTrunc, vfs.ErrInvalid}, // read-only truncation
		{"f", 0, vfs.ErrInvalid},                              // no access bits on the wire
		{"f", 0x80, vfs.ErrInvalid},                           // unknown bits
		{"d", srv.OModeRead, nil},
		{"d", srv.OModeWrite, vfs.ErrIsDir},
		{"d", srv.OModeRead | srv.OModeWrite, vfs.ErrIsDir},
		{"d", srv.OModeWrite | srv.OModeTrunc, vfs.ErrIsDir},
	}
	for _, tc := range cases {
		fd, err := root.Walk(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		_, openErr := fd.Open(tc.mode)
		if tc.want == nil && openErr != nil {
			t.Errorf("open %q mode %#x: %v, want success", tc.name, tc.mode, openErr)
		}
		if tc.want != nil && !errors.Is(openErr, tc.want) {
			t.Errorf("open %q mode %#x: %v, want %v", tc.name, tc.mode, tc.want, openErr)
		}
		// The wire mapping must agree with the vfs lattice whenever the
		// mode is expressible there (MapOpenMode rejects the rest).
		if flag, mapErr := srv.MapOpenMode(tc.mode); mapErr == nil {
			_, vfsErr := vfs.OpenFile(cfgFS(t, fd), "/"+"alpha"+"/"+tc.name, flag)
			if (openErr == nil) != (vfsErr == nil) {
				t.Errorf("mode %#x on %q: wire err %v, vfs err %v — lattice disagreement", tc.mode, tc.name, openErr, vfsErr)
			}
		}
		fd.Clunk()
	}
}

// cfgFS digs no further than the test needs: the oracle comparison
// above re-runs the open against a second, path-based fs view. Sharing
// the live server fs would race with truncation side effects, so use a
// fresh one shaped the same.
func cfgFS(t *testing.T, _ *srv.Fid) vfs.FileSystem {
	t.Helper()
	d, err := disk.NewMem(disk.SeagateST31200(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mkfs(blockio.NewDevice(d, sched.CLook{}), core.Options{EmbedInodes: true, Grouping: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vfs.MkdirAll(fs, "/alpha/d"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/alpha/f", []byte("body")); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestConcurrentSessions runs many sessions over one server — shared
// and private connections mixed — under load, and checks the per-tenant
// metrics families land in the registry.
func TestConcurrentSessions(t *testing.T) {
	reg := obs.NewRegistry()
	s, lb := testServer(t, srv.Config{Registry: reg, QoS: srv.QoS{Workers: 4, FairShare: true}}, "t0", "t1", "t2")

	const sessions = 24
	const opsPer = 30
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", i%3)
			nc, err := lb.Dial()
			if err != nil {
				errs <- err
				return
			}
			c, err := srv.NewClient(nc)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			root, err := c.Attach(tenant)
			if err != nil {
				errs <- err
				return
			}
			f, err := root.Create(fmt.Sprintf("s%d", i))
			if err != nil {
				errs <- fmt.Errorf("create: %w", err)
				return
			}
			buf := []byte("data-data-data")
			for op := 0; op < opsPer; op++ {
				if _, err := f.WriteAt(buf, int64(op)); err != nil {
					errs <- fmt.Errorf("write: %w", err)
					return
				}
				if _, err := f.ReadAt(buf, 0); err != nil {
					errs <- fmt.Errorf("read: %w", err)
					return
				}
			}
			if err := f.Clunk(); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, tn := range []string{"t0", "t1", "t2"} {
		if got := snap.Counters[obs.Name("srv.requests", "op", "Tread", "tenant", tn)]; got == 0 {
			t.Errorf("tenant %s: no Tread requests counted", tn)
		}
		h := snap.Histograms[obs.Name("srv.latency.ns", "op", "read", "tenant", tn)]
		if h.Count == 0 {
			t.Errorf("tenant %s: empty read latency histogram", tn)
		}
	}
	waitZeroFids(t, s)
}
