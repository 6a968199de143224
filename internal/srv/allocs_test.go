package srv_test

import (
	"fmt"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/core"
	"cffs/internal/disk"
	"cffs/internal/obs"
	"cffs/internal/sched"
	"cffs/internal/sim"
	"cffs/internal/srv"
	"cffs/internal/vfs"
)

// The wire allocation budget (DESIGN.md section 20), gated in the idiom
// of core's TestAllocsReadPath. The stack is cffsd's — registry
// attached, fair-share dispatch — over a fully cached C-FFS behind the
// loopback transport, and every count is of the whole process: the
// client's call, both codecs, the reader, the dispatcher, the worker and
// the file system call under it. In steady state a round trip that
// returns no new object allocates nothing; a walk pays for its name
// strings and the *Fid it returns, a create for the same plus what
// core.Create costs, a readdir page for the listing core builds plus the
// page's name string and the client's result slice.
func TestAllocsWirePath(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	d, err := disk.NewMem(disk.SeagateST31200(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fs, err := core.Mkfs(blockio.NewDevice(d, sched.CLook{}), core.Options{
		EmbedInodes: true, Grouping: true, Mode: core.ModeDelayed, CacheBlocks: 8192, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	s := srv.New(srv.Config{FS: fs, Registry: reg, QoS: srv.QoS{FairShare: true}})
	if err := s.AddTenant("alpha"); err != nil {
		t.Fatal(err)
	}
	lb := srv.NewLoopback()
	go s.Serve(lb)
	t.Cleanup(func() {
		lb.Close()
		s.Close()
	})
	c := dialClient(t, lb)
	root, err := c.Attach("alpha")
	if err != nil {
		t.Fatal(err)
	}

	// /alpha/d00 holds 32 files of 1 KB, /alpha/wire and /alpha/core take
	// the creates measured through the wire and beside it.
	const perDir, runs = 32, 100
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i)
	}
	for _, name := range []string{"d00", "wire", "core"} {
		if _, err := root.Mkdir(name); err != nil {
			t.Fatal(err)
		}
	}
	dir, err := root.Walk("d00")
	if err != nil {
		t.Fatal(err)
	}
	var file *srv.Fid
	for i := 0; i < perDir; i++ {
		if file, err = dir.Create(fmt.Sprintf("f%03d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := file.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dir.Open(srv.OModeRead); err != nil {
		t.Fatal(err)
	}
	wire, err := root.Walk("wire")
	if err != nil {
		t.Fatal(err)
	}
	dirIno, err := vfs.Walk(fs, "/alpha/d00")
	if err != nil {
		t.Fatal(err)
	}
	coreDir, err := vfs.Walk(fs, "/alpha/core")
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Fsync(); err != nil {
		t.Fatal(err)
	}

	// AllocsPerRun calls its function runs+1 times; the gates that mint
	// an object per call take their names and fids from these.
	names := make([]string, runs+2)
	for i := range names {
		names[i] = fmt.Sprintf("n%04d", i)
	}
	var walked, created []*srv.Fid
	next := func(n *int) int { *n++; return *n - 1 }
	var nWire, nCore, nClunk int

	coreCreate := testing.AllocsPerRun(runs, func() { fs.Create(coreDir, names[next(&nCore)]) })
	coreReadDir := testing.AllocsPerRun(runs, func() { fs.ReadDir(dirIno) })

	buf := make([]byte, 1024)
	gates := []struct {
		name string
		max  float64
		fn   func() error
	}{
		{"read-1k", 0, func() error { _, err := file.ReadAt(buf, 0); return err }},
		{"stat", 0, func() error { _, err := file.Stat(); return err }},
		{"overwrite-1k", 0, func() error { _, err := file.WriteAt(data, 0); return err }},
		{"walk-2", 3, func() error {
			f, err := root.Walk("d00", "f017")
			walked = append(walked, f)
			return err
		}},
		{"clunk", 0, func() error { return walked[next(&nClunk)].Clunk() }},
		{"create", 3 + coreCreate, func() error {
			f, err := wire.Create(names[next(&nWire)])
			created = append(created, f)
			return err
		}},
		{"readdir-32", 3 + coreReadDir, func() error {
			ents, _, err := dir.ReadDirPage(0)
			if err == nil && len(ents) != perDir {
				err = fmt.Errorf("%d entries", len(ents))
			}
			return err
		}},
	}
	walked, created = make([]*srv.Fid, 0, runs+2), make([]*srv.Fid, 0, runs+2)
	d.ResetStats()
	for _, g := range gates {
		if err := g.fn(); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := testing.AllocsPerRun(runs, func() { _ = g.fn() }); got > g.max {
			t.Errorf("%s: %.0f allocs per round trip, budget %.0f", g.name, got, g.max)
		} else {
			t.Logf("%s: %.0f allocs per round trip (budget %.0f)", g.name, got, g.max)
		}
	}
	if st := d.Stats(); st.Reads != 0 {
		t.Errorf("fixture not fully cached: %d device reads", st.Reads)
	}
	if n, err := file.ReadAt(buf, 0); err != nil || n != len(data) || string(buf) != string(data) {
		t.Errorf("read back after the gates: %d bytes, %v", n, err)
	}
}
