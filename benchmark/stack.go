package main

import (
	"fmt"

	"cffs/internal/blockio"
	"cffs/internal/core"
	"cffs/internal/flight"
	"cffs/internal/obs"
	"cffs/internal/sched"
	"cffs/internal/store"
)

// variant says how a stack departs from its workload's default; the
// extra passes of the traced run are the only users of the last four.
type variant struct {
	traced       bool // interposers on
	conventional bool // embedded inodes and grouping off
	noRegistry   bool // mount with Metrics: nil
	recorder     bool // attach a flight recorder
	oneClient    bool // run a 2-client workload with 1
}

// stack is one opened device with a C-FFS mounted on it.
type stack struct {
	bk  *store.Backend
	tgt blockio.Target // the device model itself, below any interposer: clock and Stats are read here
	dev *blockio.Device
	fs  *core.FS
	reg *obs.Registry
}

func clook() sched.Scheduler {
	s, _ := sched.ByName("clook")
	return s
}

// openStack opens cfg's backend, puts the traced run's interposer
// between the driver and the device, and formats a C-FFS with opts.
// Every stack mounts with a registry unless the variant says otherwise:
// cffsd does, and the registry is where the per-layer counts come from.
func (r *run) openStack(cfg store.Config, opts core.Options) (*stack, error) {
	bk, err := store.Open(cfg)
	if err != nil {
		return nil, err
	}
	s := &stack{bk: bk, tgt: bk.Target}
	top := bk.Target
	if r.tr != nil {
		top = r.tr.wrapTarget(top)
	}
	s.dev = blockio.NewDevice(top, clook())
	if !r.v.noRegistry {
		s.reg = obs.NewRegistry()
		// The ssd records its FTL counters into the mount's registry.
		if m, ok := s.dev.Disk().(interface{ SetMetrics(*obs.Registry) }); ok {
			m.SetMetrics(s.reg)
		}
	}
	opts.EmbedInodes, opts.Grouping = !r.v.conventional, !r.v.conventional
	opts.Metrics = s.reg
	if r.v.recorder {
		opts.Recorder = flight.New(flight.Config{}, s.tgt.Clock(), s.reg)
	}
	if s.fs, err = core.Mkfs(s.dev, opts); err != nil {
		bk.Bytes.Close()
		return nil, fmt.Errorf("mkfs: %w", err)
	}
	return s, nil
}

// close unmounts and returns the number of problems core.Check finds
// on the image, then releases it.
func (s *stack) close(check bool) (problems []string, err error) {
	defer s.bk.Bytes.Close()
	if err := s.fs.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if !check {
		return nil, nil
	}
	rep, err := core.Check(blockio.NewDevice(s.tgt, clook()), false)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	return rep.Problems, nil
}

// devCounters are the device model's counters the metrics use, copied
// out of the target's Stats().
type devCounters struct {
	reqs, reads, writes, secRead, secWrite, onboardHits int64
	busyNs, seekNs, rotateNs, transferNs                int64
}

func readDev(t blockio.Target) devCounters {
	st := t.Stats()
	return devCounters{
		reqs: st.Requests, reads: st.Reads, writes: st.Writes,
		secRead: st.SectorsRead, secWrite: st.SectorsWrite, onboardHits: st.CacheHits,
		busyNs: st.BusyNanos, seekNs: st.SeekNanos, rotateNs: st.RotateNanos, transferNs: st.TransferNanos,
	}
}

func (a *devCounters) add(b devCounters, sign int64) {
	a.reqs += sign * b.reqs
	a.reads += sign * b.reads
	a.writes += sign * b.writes
	a.secRead += sign * b.secRead
	a.secWrite += sign * b.secWrite
	a.onboardHits += sign * b.onboardHits
	a.busyNs += sign * b.busyNs
	a.seekNs += sign * b.seekNs
	a.rotateNs += sign * b.rotateNs
	a.transferNs += sign * b.transferNs
}
