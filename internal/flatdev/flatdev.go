// Package flatdev is the request engine shared by the repo's two
// seek-free device models, internal/ssd and internal/objstore: every
// request costs a fixed term plus its bytes over a flat bandwidth,
// address distance never enters the timing, and requests issued
// together service concurrently across channels.
//
// The two backends exist to vary one device property at a time against
// the mechanical disk, which only means something if they differ in
// parameters and nothing else. So the engine is one concrete type
// parameterised by plain values, not an interface with two
// implementations: both users price a request as fixed + bytes/bandwidth
// and no second shape exists. The one place a backend runs its own code
// is the optional pair of hooks through which the ssd keeps its FTL:
// each write is mapped and charged the garbage collection it forced,
// each discard unmaps.
package flatdev

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"cffs/internal/blockio"
	"cffs/internal/disk"
	"cffs/internal/sim"
)

// fanHint is the parallelism reported upward when the channel pool is
// unbounded: readahead and write-behind need a finite fan-out, and 16
// requests in flight is past where a channel helps a 64 KB-group workload.
const fanHint = 16

// Params is a flat-cost device's whole timing model.
type Params struct {
	Name      string  // prefix of every error the device returns
	Fixed     float64 // per-request cost in seconds, whatever the size
	Bandwidth float64 // streaming rate of one request, bytes/second
	Channels  int     // requests serviced concurrently; 0 means unbounded

	// DiscardPage is the unit, in bytes, in which the device drops
	// discarded data: a discard destroys every whole unit its range
	// covers. Zero means the device keeps no mapping and ignores
	// discards.
	DiscardPage int
}

// Validate checks the parameters for usable values.
func (p Params) Validate() error {
	if p.Fixed < 0 {
		return fmt.Errorf("%s: negative per-request cost %g", p.Name, p.Fixed)
	}
	if p.Bandwidth <= 0 {
		return fmt.Errorf("%s: bandwidth %g not positive", p.Name, p.Bandwidth)
	}
	if p.Channels < 0 {
		return fmt.Errorf("%s: negative channel count %d", p.Name, p.Channels)
	}
	if p.DiscardPage < 0 || p.DiscardPage%disk.SectorSize != 0 {
		return fmt.Errorf("%s: discard page of %d bytes is not a sector multiple", p.Name, p.DiscardPage)
	}
	return nil
}

// Parallelism reports how many requests a device with these parameters
// services concurrently; an unbounded channel pool reports fanHint.
func (p Params) Parallelism() int {
	if p.Channels > 0 {
		return p.Channels
	}
	return fanHint
}

// WriteHook is called once per validated write request with the device
// mutex held. The nanoseconds it returns are device-internal work the
// write forced: they are added to BusyNanos and to the clock after the
// request (after the batch's makespan in SubmitBlocks). An error fails
// the request before it is accounted.
type WriteHook func(lba int64, nsect int) (extraNs int64, err error)

// DiscardHook is called with the device mutex held, once per discard
// that covers at least one whole page, with exactly the pages covered.
type DiscardHook func(lba int64, nsect int) error

// PoisonByte fills every page a discard destroys. A real drive returns
// junk for a discarded range; writing the junk into the byte store makes
// a discard of a block something still points at a wrong read, a failed
// check and a crash state like any other, not an accounting event.
const PoisonByte = 0xDC

var (
	_ blockio.Target         = (*Device)(nil)
	_ blockio.BatchSubmitter = (*Device)(nil)
)

// Device is a flat logical sector address space over a byte store. It is
// safe for concurrent use: one mutex serializes the timing model,
// statistics, observers, the byte store, and the write hook's state.
type Device struct {
	p       Params
	clock   *sim.Clock
	store   disk.Store
	sectors int64
	onWrite WriteHook // nil when writes cost no more than reads

	poison    []byte      // one page of PoisonByte; nil when discards are ignored
	onDiscard DiscardHook // may be nil

	mu    sync.Mutex
	stats disk.Stats
	disk.Observers
}

// New builds a device of the given byte capacity (a sector multiple)
// over an existing byte store. Either hook may be nil.
func New(p Params, clock *sim.Clock, st disk.Store, capacity int64, onWrite WriteHook, onDiscard DiscardHook) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if capacity <= 0 || capacity%disk.SectorSize != 0 {
		return nil, fmt.Errorf("%s: capacity %d is not a positive sector multiple", p.Name, capacity)
	}
	d := &Device{
		p:       p,
		clock:   clock,
		store:   st,
		sectors: capacity / disk.SectorSize,
		onWrite: onWrite,
	}
	if p.DiscardPage > 0 {
		d.poison = bytes.Repeat([]byte{PoisonByte}, p.DiscardPage)
		d.onDiscard = onDiscard
	}
	d.Observers.Bind(&d.mu)
	return d, nil
}

// Mutex returns the device mutex, so an owner whose write hook keeps
// state (the ssd's FTL) guards it, in its other methods, with the one
// lock the hook already runs under.
func (d *Device) Mutex() *sync.Mutex { return &d.mu }

// Sectors implements blockio.Target.
func (d *Device) Sectors() int64 { return d.sectors }

// Clock implements blockio.Target.
func (d *Device) Clock() *sim.Clock { return d.clock }

// FlatCost implements blockio.Target with the two terms serviceNs
// charges: this is the one device family whose price is flat.
func (d *Device) FlatCost() (fixedNs, blockNs int64) {
	_, blockNs = d.serviceNs(blockio.SectorsPerBlock)
	return int64(d.p.Fixed * 1e9), blockNs
}

// Parallelism implements the optional device-parallelism probe.
func (d *Device) Parallelism() int { return d.p.Parallelism() }

// Stats implements blockio.Target.
func (d *Device) Stats() disk.Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats implements blockio.Target.
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = disk.Stats{}
}

// Close implements blockio.Target.
func (d *Device) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.store.Close()
}

// serviceNs returns one request's service time: the fixed cost plus
// streaming transfer. No positioning term, no distance dependence.
func (d *Device) serviceNs(nsect int) (svc, transfer int64) {
	transfer = int64(float64(nsect) * disk.SectorSize / d.p.Bandwidth * 1e9)
	return int64(d.p.Fixed*1e9) + transfer, transfer
}

// Check validates a sector range against the device bounds.
func (d *Device) Check(lba int64, nsect int) error {
	if nsect <= 0 {
		return fmt.Errorf("%s: request of %d sectors", d.p.Name, nsect)
	}
	if lba < 0 || lba+int64(nsect) > d.sectors {
		return fmt.Errorf("%s: request [%d,%d) outside device of %d sectors",
			d.p.Name, lba, lba+int64(nsect), d.sectors)
	}
	return nil
}

func sectorCount(name string, bufs [][]byte) (int, error) {
	total := 0
	for _, b := range bufs {
		if len(b) == 0 || len(b)%disk.SectorSize != 0 {
			return 0, fmt.Errorf("%s: transfer of %d bytes is not a positive sector multiple", name, len(b))
		}
		total += len(b) / disk.SectorSize
	}
	return total, nil
}

// ReadV implements blockio.Target: one request, one fixed cost,
// scattered into bufs. This is the path a grouped 64 KB read takes — the
// whole group costs a single fixed term.
func (d *Device) ReadV(lba int64, bufs [][]byte) error {
	return d.rw(lba, bufs, false, false)
}

// WriteV implements blockio.Target.
func (d *Device) WriteV(lba int64, bufs [][]byte) error {
	return d.rw(lba, bufs, true, false)
}

// WriteOrdered implements blockio.Target: timing is an ordinary write;
// the barrier is forwarded to the backing byte store when it
// distinguishes ordered writes (the fault injector does).
func (d *Device) WriteOrdered(lba int64, buf []byte) error {
	return d.rw(lba, [][]byte{buf}, true, true)
}

// begin validates one request and, with d.mu held, prices it, runs the
// write hook, and records it. It does not touch the clock; callers
// advance it by the request's completion model (serial or batched).
func (d *Device) begin(lba int64, bufs [][]byte, write bool) (svc, extra int64, err error) {
	nsect, err := sectorCount(d.p.Name, bufs)
	if err != nil {
		return 0, 0, err
	}
	if err := d.Check(lba, nsect); err != nil {
		return 0, 0, err
	}
	svc, transfer := d.serviceNs(nsect)
	if write && d.onWrite != nil {
		if extra, err = d.onWrite(lba, nsect); err != nil {
			return 0, 0, err
		}
	}
	if write {
		d.stats.Writes++
		d.stats.SectorsWrite += int64(nsect)
	} else {
		d.stats.Reads++
		d.stats.SectorsRead += int64(nsect)
	}
	d.stats.Requests++
	d.stats.BusyNanos += svc + extra
	d.stats.TransferNanos += transfer
	d.Observe(lba, nsect, write, svc)
	return svc, extra, nil
}

// move transfers one request's bytes to or from the byte store.
func (d *Device) move(off int64, bufs [][]byte, write, ordered bool) error {
	var os disk.OrderedStore
	if ordered {
		os, _ = d.store.(disk.OrderedStore)
	}
	for _, b := range bufs {
		var err error
		switch {
		case !write:
			err = d.store.ReadAt(b, off)
		case os != nil:
			err = os.WriteAtOrdered(b, off)
		default:
			err = d.store.WriteAt(b, off)
		}
		if err != nil {
			return err
		}
		off += int64(len(b))
	}
	return nil
}

// rw services one request end to end.
func (d *Device) rw(lba int64, bufs [][]byte, write, ordered bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	svc, extra, err := d.begin(lba, bufs, write)
	if err != nil {
		return err
	}
	d.clock.Advance(svc + extra)
	return d.move(lba*disk.SectorSize, bufs, write, ordered)
}

// Discard implements blockio.Target. A discard is a command, so it pays
// the fixed request term on the clock and in BusyNanos; it moves no
// data, so it is counted in Stats.Discards and not as a request, and it
// is not traced. Every whole page the range covers is overwritten with
// the poison page through the store's ordinary write: the recorder, the
// fault injector, a file image and every later read see destroyed data,
// and the byte store still holds exactly what the device would return.
// Then the discard hook unmaps the same pages.
func (d *Device) Discard(lba int64, nsect int) error {
	if err := d.Check(lba, nsect); err != nil {
		return err
	}
	if d.poison == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	fixed, _ := d.serviceNs(0)
	d.stats.Discards++
	d.stats.BusyNanos += fixed
	d.clock.Advance(fixed)
	spp := int64(len(d.poison) / disk.SectorSize)
	first := (lba + spp - 1) / spp * spp // round in: whole pages only
	end := (lba + int64(nsect)) / spp * spp
	for s := first; s < end; s += spp {
		if err := d.store.WriteAt(d.poison, s*disk.SectorSize); err != nil {
			return err
		}
	}
	if d.onDiscard == nil || first >= end {
		return nil
	}
	return d.onDiscard(first, int(end-first))
}

// SubmitBlocks implements blockio.BatchSubmitter. There is no head
// position and nothing to sweep, so scheduling reduces to two facts:
// contiguous same-direction runs coalesce into one request (capped at
// the 64 KB transfer limit so request sizes stay comparable with the
// disk backend), and the merged requests then service concurrently —
// batch cost is the makespan over channels, not the sum, with whatever
// the write hook charged serialized after it. Explicit grouping still
// matters here precisely because it makes a directory's blocks
// contiguous and therefore mergeable; without it every small file is
// its own full-cost request.
func (d *Device) SubmitBlocks(reqs []blockio.Req) (int, error) {
	if len(reqs) == 0 {
		return 0, nil
	}
	// Address order is meaningless for timing but is what makes merges
	// visible. The order is total — block, reads before writes, then
	// submission index — so two writes of one block land in the order
	// they were submitted and the last one is what the device keeps.
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := &reqs[order[a]], &reqs[order[b]]
		if ra.Block != rb.Block {
			return ra.Block < rb.Block
		}
		if ra.Write != rb.Write {
			return rb.Write
		}
		return order[a] < order[b]
	})
	type run struct {
		block int64
		write bool
		bufs  [][]byte
	}
	var runs []run
	for i := 0; i < len(order); {
		first := &reqs[order[i]]
		m := run{block: first.Block, write: first.Write}
		m.bufs = append(m.bufs, first.Bufs...)
		next := first.Block + int64(len(first.Bufs))
		j := i + 1
		for j < len(order) {
			r := &reqs[order[j]]
			if r.Write != m.write || r.Block != next ||
				len(m.bufs)+len(r.Bufs) > blockio.MaxTransferBlocks {
				break
			}
			m.bufs = append(m.bufs, r.Bufs...)
			next += int64(len(r.Bufs))
			j++
		}
		runs = append(runs, m)
		i = j
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	svcs := make([]int64, len(runs))
	var extraTotal int64
	for i, m := range runs {
		svc, extra, err := d.begin(m.block*int64(blockio.SectorsPerBlock), m.bufs, m.write)
		if err != nil {
			return 0, err
		}
		svcs[i] = svc
		extraTotal += extra
	}
	d.clock.Advance(d.makespan(svcs) + extraTotal)
	for _, m := range runs {
		if err := d.move(m.block*int64(blockio.BlockSize), m.bufs, m.write, false); err != nil {
			return 0, err
		}
	}
	return len(runs), nil
}

// makespan returns how long a batch of concurrently-issued requests
// occupies the device. Unbounded channels finish in the time of the
// slowest request; a bounded pool packs requests longest-first onto the
// least-loaded channel and finishes when the fullest channel drains.
func (d *Device) makespan(svcs []int64) int64 {
	var max int64
	if d.p.Channels <= 0 || len(svcs) <= d.p.Channels {
		for _, s := range svcs {
			if s > max {
				max = s
			}
		}
		return max
	}
	sorted := append([]int64(nil), svcs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	load := make([]int64, d.p.Channels)
	for _, s := range sorted {
		least := 0
		for c := 1; c < len(load); c++ {
			if load[c] < load[least] {
				least = c
			}
		}
		load[least] += s
	}
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}
