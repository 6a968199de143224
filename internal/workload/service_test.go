package workload

import (
	"fmt"
	"runtime"
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

// serviceStack is one mounted fs + server + loopback, the unit the
// isolation scenarios build fresh per run so no cache state leaks
// between baselines.
type serviceStack struct {
	fs  vfs.FileSystem
	s   *srv.Server
	lb  *srv.Loopback
	cfg srv.QoS
}

func newServiceStack(t *testing.T, qos srv.QoS, loads ...ServiceLoad) *serviceStack {
	t.Helper()
	return newServiceStackOn(t, qos, nil, loads...)
}

// newServiceStackOn mounts the file system on reg (which may be nil).
func newServiceStackOn(t *testing.T, qos srv.QoS, reg *obs.Registry, loads ...ServiceLoad) *serviceStack {
	t.Helper()
	d, err := disk.NewMem(disk.SeagateST31200(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mkfs(blockio.NewDevice(d, sched.CLook{}), core.Options{
		EmbedInodes: true,
		Grouping:    true,
		Mode:        core.ModeDelayed,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := srv.New(srv.Config{FS: fs, QoS: qos})
	for _, l := range loads {
		if err := s.AddTenant(l.Tenant); err != nil {
			t.Fatal(err)
		}
		if err := PrepareServiceTree(fs, l, 7); err != nil {
			t.Fatal(err)
		}
	}
	lb := srv.NewLoopback()
	go s.Serve(lb)
	t.Cleanup(func() {
		lb.Close()
		s.Close()
	})
	return &serviceStack{fs: fs, s: s, lb: lb, cfg: qos}
}

// TestServiceDriver smoke-tests the driver: loads complete with zero
// errors, op counts add up, and the server drains its fid table. The
// uniform row is the service at scale — 4 tenants x 128 loopback
// sessions of small-file reads through pre-resolved fids — where the
// steady state must stay in cache: the service-level form of the
// paper's small-file claim, zero disk requests per read.
func TestServiceDriver(t *testing.T) {
	uniform := make([]ServiceLoad, 4)
	for i := range uniform {
		uniform[i] = ServiceLoad{Tenant: fmt.Sprintf("t%d", i), Sessions: 128, Ops: 40, Kind: SvcRead, Dirs: 8, Files: 32}
	}
	for _, tc := range []struct {
		name    string
		qos     srv.QoS
		loads   []ServiceLoad
		inCache bool // every readat served without a disk request
		long    bool
	}{
		{name: "mixed", qos: srv.QoS{Workers: 4, FairShare: true}, loads: []ServiceLoad{
			{Tenant: "reads", Sessions: 6, Ops: 40, Kind: SvcRead, Dirs: 2, Files: 8},
			{Tenant: "scans", Sessions: 4, Ops: 40, Kind: SvcScan, Dirs: 2, Files: 8},
			{Tenant: "churn", Sessions: 4, Ops: 24, Kind: SvcCreate, Dirs: 2, Files: 4},
		}},
		{name: "uniform-512", qos: srv.QoS{FairShare: true}, loads: uniform, inCache: true, long: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("512 sessions; skipped in -short")
			}
			reg := obs.NewRegistry()
			st := newServiceStackOn(t, tc.qos, reg, tc.loads...)
			res, err := RunService(ServiceConfig{Dial: st.lb.Dial, Loads: tc.loads})
			if err != nil {
				t.Fatal(err)
			}
			wantSessions := 0
			for _, l := range tc.loads {
				wantSessions += l.Sessions
			}
			if res.TotalSessions() != wantSessions {
				t.Fatalf("sessions = %d, want %d", res.TotalSessions(), wantSessions)
			}
			if len(res.Tenants) != len(tc.loads) {
				t.Fatalf("%d tenant results for %d loads", len(res.Tenants), len(tc.loads))
			}
			for _, tr := range res.Tenants {
				wantOps := int64(0)
				for _, l := range tc.loads {
					if l.Tenant == tr.Tenant {
						wantOps = int64(l.Sessions * l.Ops)
					}
				}
				if tr.Ops != wantOps {
					t.Errorf("tenant %s: ops = %d, want %d", tr.Tenant, tr.Ops, wantOps)
				}
				if tr.Errors != 0 {
					t.Errorf("tenant %s: %d op errors", tr.Tenant, tr.Errors)
				}
				if tr.Latency.Count != tr.Ops {
					t.Errorf("tenant %s: %d latency samples for %d ops", tr.Tenant, tr.Latency.Count, tr.Ops)
				}
				if tr.P(0.99) <= 0 {
					t.Errorf("tenant %s: p99 = %v", tr.Tenant, tr.P(0.99))
				}
			}
			if tc.inCache {
				snap := reg.Snapshot()
				if ops, reqs := snap.Counter("ops.readat"), snap.Counter("disk.requests.readat"); ops < 20000 || reqs != 0 {
					t.Errorf("%d readat ops caused %d disk requests; want >= 20000 ops, all in cache", ops, reqs)
				}
			}
			// All sessions closed: no fids may linger.
			deadlineFids(t, st.s)
		})
	}
}

func deadlineFids(t *testing.T, s *srv.Server) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if s.FidCount() == 0 {
			return
		}
		// The driver closed every client; releases are asynchronous.
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("fid leak: %d live fids after run", s.FidCount())
}

// TestQoSIsolation is the satellite acceptance test: an aggressor
// tenant running a readdir+stat storm shares the service with a victim
// doing small-file reads. With fair-share scheduling the victim's p99
// must stay within a bounded factor of its solo baseline; the FIFO
// (no-isolation) configuration is run too and logged for contrast.
func TestQoSIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("isolation scenario is seconds-long; skipped in -short")
	}
	victim := ServiceLoad{Tenant: "victim", Sessions: 8, Ops: 400, Kind: SvcRead, Dirs: 4, Files: 16}
	aggressor := ServiceLoad{Tenant: "aggr", Sessions: 32, Ops: 400, Kind: SvcScan, Dirs: 4, Files: 16}

	run := func(qos srv.QoS, loads ...ServiceLoad) ServiceResult {
		t.Helper()
		st := newServiceStack(t, qos, loads...)
		runtime.GC() // start each scenario with a clean heap, not the last one's debt
		res, err := RunService(ServiceConfig{Dial: st.lb.Dial, Loads: loads})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	victimP99 := func(res ServiceResult) float64 {
		for _, tr := range res.Tenants {
			if tr.Tenant == "victim" {
				if tr.Errors != 0 {
					t.Fatalf("victim saw %d op errors", tr.Errors)
				}
				return tr.P(0.99)
			}
		}
		t.Fatal("no victim tenant in result")
		return 0
	}

	// Wall-clock latency on a loaded host is noisy at microsecond
	// scale, so the bound takes the larger of the solo baseline and a
	// floor before applying the 3x isolation criterion (locally the
	// fair run typically lands at 1.5-2.5x solo; the floor absorbs
	// shared-runner scheduling jitter, not real interference). And
	// because `go test ./...` runs whole packages concurrently, one
	// measurement can land on a saturated host — the trio is retried a
	// couple of times so only a *persistent* violation fails, which a
	// real isolation regression (fifo-like ~8x) always is.
	const floorNs = 250e3 // 250µs
	workers := 4
	for attempt := 1; ; attempt++ {
		solo := victimP99(run(srv.QoS{Workers: workers}, victim))
		shared := victimP99(run(srv.QoS{Workers: workers}, victim, aggressor))
		fair := victimP99(run(srv.QoS{Workers: workers, FairShare: true}, victim, aggressor))

		t.Logf("victim read p99: solo %.0fµs, shared-fifo %.0fµs, fair-share %.0fµs",
			solo/1e3, shared/1e3, fair/1e3)

		base := solo
		if base < floorNs {
			base = floorNs
		}
		if fair <= 3*base {
			return
		}
		if attempt == 3 {
			t.Fatalf("fair-share victim p99 %.0fµs exceeds 3x baseline (solo %.0fµs, floor 250µs) on every attempt",
				fair/1e3, solo/1e3)
		}
		t.Logf("attempt %d over the bound (host load?); retrying", attempt)
	}
}
