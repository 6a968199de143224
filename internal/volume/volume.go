// Package volume stripes N simulated disks into one logical block
// address space, the classic RAID-0 bandwidth multiplier: once a single
// spindle is saturated by grouped small-file transfers, the next factor
// of throughput comes from spreading consecutive stripe units across
// spindles and servicing them concurrently.
//
// The stripe unit defaults to 16 blocks (64 KB), matching both the
// driver's MAXPHYS transfer cap and — deliberately — C-FFS's explicit
// group size: the allocator places each group extent on a 16-block
// aligned boundary, so a whole group always lives inside one stripe
// unit and a group read never splits across spindles. Consecutive
// groups round-robin across disks, which is what lets batched
// group-granular traffic (write-behind clustering, group readahead)
// engage several arms at once.
//
// Timing model: every member disk keeps its own private clock and its
// own head/rotation state. A dispatch advances each touched member's
// clock to the shared (volume) time, issues that member's requests
// back-to-back on its private clock, then advances the shared clock to
// the maximum private time reached. Requests on the same spindle
// serialize; requests on different spindles overlap — the batch costs
// max over spindles, not the sum.
package volume

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cffs/internal/blockio"
	"cffs/internal/disk"
	"cffs/internal/obs"
	"cffs/internal/sched"
	"cffs/internal/sim"
)

// Config selects the stripe geometry.
type Config struct {
	// StripeBlocks is the stripe unit in file-system blocks. 0 means the
	// default of blockio.MaxTransferBlocks (16 blocks = 64 KB), which
	// equals the C-FFS group size; any explicit value must be a positive
	// multiple of 16 so a group-aligned 64 KB extent can never straddle
	// a unit boundary.
	StripeBlocks int
}

func (c Config) fill() Config {
	if c.StripeBlocks == 0 {
		c.StripeBlocks = blockio.MaxTransferBlocks
	}
	return c
}

func (c Config) validate() error {
	if c.StripeBlocks <= 0 || c.StripeBlocks%blockio.MaxTransferBlocks != 0 {
		return fmt.Errorf("volume: stripe unit of %d blocks is not a positive multiple of %d",
			c.StripeBlocks, blockio.MaxTransferBlocks)
	}
	return nil
}

// spindleObs holds one member disk's per-spindle instruments; all nil
// until SetMetrics attaches a registry (obs instruments are nil-safe).
type spindleObs struct {
	sink  func(disk.TraceEntry) // volume.disk<i>.* per-op sink
	busy  *obs.Counter          // volume.disk<i>.busy_ns
	queue *obs.Histogram        // volume.disk<i>.queue_depth per batch
}

// Volume is N equal disks presented as one logical sector address
// space. It implements blockio.Target and blockio.BatchSubmitter, so it
// plugs in wherever a single *disk.Disk does, and schedules queued
// batches itself with one C-LOOK sweep per spindle.
type Volume struct {
	cfg     Config
	shared  *sim.Clock
	members []*disk.Disk
	privs   []*sim.Clock
	sch     sched.Scheduler
	unit    int64 // stripe unit in sectors
	usable  int64 // logical sectors: whole stripes only

	mu      sync.Mutex // serializes dispatch: the clock dance and head state
	lastLBA []int64    // per-spindle head position for the per-disk C-LOOK sweep

	splits atomic.Int64 // logical requests that split across spindles

	// Observer state lives under its own lock: member trace/metrics
	// callbacks fire inside dispatch (which holds mu and the member's
	// request lock), so they must not need mu again. That is why this is
	// not a disk.Observers, which locks through its owner's request lock:
	// the volume fans its members' already-stamped entries in, and the op
	// source is forwarded to the members instead of queried here.
	obsMu       sync.Mutex
	trace       *[]disk.TraceEntry
	traceFunc   func(disk.TraceEntry)
	metricsFunc func(disk.TraceEntry)
	spindles    []spindleObs
	mSplits     *obs.Counter   // volume.split_requests
	mBatches    *obs.Counter   // volume.batches
	mFanout     *obs.Histogram // volume.fanout: spindles touched per batch
}

// New assembles a volume from existing member disks. Every member must
// have the same capacity and its own private clock — distinct from the
// shared clock and from every other member — because the parallel
// service-time model advances them independently between dispatches.
//
// The volume installs trace and metrics callbacks on the members; the
// caller must not overwrite them afterwards.
func New(shared *sim.Clock, members []*disk.Disk, cfg Config) (*Volume, error) {
	cfg = cfg.fill()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("volume: no member disks")
	}
	unit := int64(cfg.StripeBlocks) * blockio.SectorsPerBlock
	sectors := members[0].Sectors()
	for i, m := range members {
		if m.Sectors() != sectors {
			return nil, fmt.Errorf("volume: member %d has %d sectors, member 0 has %d",
				i, m.Sectors(), sectors)
		}
		if m.Clock() == shared {
			return nil, fmt.Errorf("volume: member %d shares the volume clock; members need private clocks", i)
		}
		for j := 0; j < i; j++ {
			if members[j].Clock() == m.Clock() {
				return nil, fmt.Errorf("volume: members %d and %d share a clock", j, i)
			}
		}
	}
	units := sectors / unit
	if units == 0 {
		return nil, fmt.Errorf("volume: member of %d sectors smaller than one stripe unit (%d)", sectors, unit)
	}
	v := &Volume{
		cfg:      cfg,
		shared:   shared,
		members:  members,
		sch:      sched.CLook{},
		unit:     unit,
		usable:   int64(len(members)) * units * unit,
		lastLBA:  make([]int64, len(members)),
		spindles: make([]spindleObs, len(members)),
	}
	v.privs = make([]*sim.Clock, len(members))
	for i, m := range members {
		v.privs[i] = m.Clock()
		i := i
		m.SetTraceFunc(func(e disk.TraceEntry) { v.memberTrace(i, e) })
		m.SetMetricsFunc(func(e disk.TraceEntry) { v.memberMetrics(i, e) })
	}
	return v, nil
}

// NewMem builds an n-disk volume of identical drives over in-memory
// stores, each member on its own private clock.
func NewMem(spec disk.Spec, n int, shared *sim.Clock, cfg Config) (*Volume, error) {
	members := make([]*disk.Disk, n)
	for i := range members {
		d, err := disk.NewMem(spec, sim.NewClock())
		if err != nil {
			return nil, err
		}
		members[i] = d
	}
	return New(shared, members, cfg)
}

// Build builds an n-disk volume of identical drives over one backing
// store of at least n x spec.Geom.Bytes(): member i owns the window at
// offset i x bytes. A single image file (or a single fault-injection
// recorder) thus backs the whole volume; the store remains owned by the
// caller.
func Build(spec disk.Spec, n int, shared *sim.Clock, st disk.Store, cfg Config) (*Volume, error) {
	bytes := spec.Geom.Bytes()
	members := make([]*disk.Disk, n)
	for i := range members {
		d, err := disk.New(spec, sim.NewClock(), disk.NewWindow(st, int64(i)*bytes, bytes))
		if err != nil {
			return nil, err
		}
		members[i] = d
	}
	return New(shared, members, cfg)
}

// locate maps a logical sector to (member disk, member sector): stripe
// units round-robin across spindles, and each member packs its units
// contiguously.
func (v *Volume) locate(lba int64) (int, int64) {
	u := lba / v.unit
	d := int(u % int64(len(v.members)))
	return d, (u/int64(len(v.members)))*v.unit + lba%v.unit
}

// Locate exposes the stripe address mapping (for tests and the
// group-placement invariant check).
func (v *Volume) Locate(lba int64) (diskIndex int, memberLBA int64) {
	return v.locate(lba)
}

// Sectors implements blockio.Target. Only whole stripes are presented:
// a trailing partial stripe on the members is unusable and excluded.
func (v *Volume) Sectors() int64 { return v.usable }

// Clock implements blockio.Target: the shared volume clock.
func (v *Volume) Clock() *sim.Clock { return v.shared }

// FlatCost implements blockio.Target: the members are mechanical disks,
// so the volume has no flat request price either.
func (v *Volume) FlatCost() (fixedNs, blockNs int64) { return 0, 0 }

// Discard implements blockio.Target: the members ignore it, so the
// volume does not bother splitting it across them.
func (v *Volume) Discard(lba int64, nsect int) error { return nil }

// Parallelism reports the spindle count. Layers above discover it by
// interface assertion to scale readahead fan-out and write-behind batch
// sizes; a plain *disk.Disk does not implement it.
func (v *Volume) Parallelism() int { return len(v.members) }

// StripeUnitBlocks returns the stripe unit in file-system blocks.
func (v *Volume) StripeUnitBlocks() int { return v.cfg.StripeBlocks }

// Members exposes the member disks (read-only use: specs, per-spindle
// stats in tests).
func (v *Volume) Members() []*disk.Disk { return v.members }

// Stats implements blockio.Target: the sum over member spindles.
func (v *Volume) Stats() disk.Stats {
	var s disk.Stats
	for _, m := range v.members {
		s = s.Add(m.Stats())
	}
	return s
}

// PerDisk returns each spindle's own Stats, index-aligned with the
// construction order.
func (v *Volume) PerDisk() []disk.Stats {
	out := make([]disk.Stats, len(v.members))
	for i, m := range v.members {
		out[i] = m.Stats()
	}
	return out
}

// ResetStats implements blockio.Target.
func (v *Volume) ResetStats() {
	for _, m := range v.members {
		m.ResetStats()
	}
}

// SplitRequests returns how many logical requests had to split across
// spindles. With group-aligned allocation and the default stripe unit
// this stays zero for grouped traffic — the invariant the tests assert.
func (v *Volume) SplitRequests() int64 { return v.splits.Load() }

// op is one member-disk request: a physically contiguous scatter/gather
// transfer on a single spindle.
type op struct {
	d       int
	lba     int64 // member LBA
	sectors int64
	write   bool
	ordered bool
	bufs    [][]byte
}

// probeSectors sizes the small leading read the batch scheduler splits
// off at each discontinuity in a spindle's issue stream. The probe
// reaches the new position quickly and opens the drive's on-board
// read-ahead window there; the drive streams the following sectors into
// its buffer while the probe's data crosses the bus, so the bulk of the
// batch then transfers at bus rate instead of media rate. This is the
// overlap a real driver gets for free from drive read-ahead on large
// sequential batches; when the window was already open the probe costs
// one extra per-request overhead.
const probeSectors = 2 * blockio.SectorsPerBlock

// probeSplit returns how many leading buffers (and the sectors they
// hold) make up a read probe, or (0, 0) when the transfer is too small
// to be worth splitting.
func probeSplit(bufs [][]byte) (nbufs int, nsect int64) {
	for i, b := range bufs {
		nsect += int64(len(b) / disk.SectorSize)
		if nsect >= probeSectors {
			if i+1 >= len(bufs) {
				return 0, 0
			}
			return i + 1, nsect
		}
	}
	return 0, 0
}

// split decomposes a logical transfer into member ops, cutting at
// stripe-unit boundaries and re-merging runs that stay member-contiguous
// (on a 1-disk volume this reconstructs the original single request, so
// striping with n=1 is I/O-identical to a raw disk). Each buffer must
// lie within one stripe unit; blockio's block-sized buffers always do.
func (v *Volume) split(lba int64, bufs [][]byte, write bool) ([]op, error) {
	ops := make([]op, 0, 1)
	cur := lba
	for _, b := range bufs {
		if len(b) == 0 || len(b)%disk.SectorSize != 0 {
			return nil, fmt.Errorf("volume: transfer of %d bytes is not a positive sector multiple", len(b))
		}
		ns := int64(len(b) / disk.SectorSize)
		if cur%v.unit+ns > v.unit {
			return nil, fmt.Errorf("volume: buffer at lba %d straddles a stripe unit boundary", cur)
		}
		d, mlba := v.locate(cur)
		if n := len(ops); n > 0 && ops[n-1].d == d && ops[n-1].lba+ops[n-1].sectors == mlba {
			ops[n-1].bufs = append(ops[n-1].bufs, b)
			ops[n-1].sectors += ns
		} else {
			ops = append(ops, op{d: d, lba: mlba, sectors: ns, write: write, bufs: [][]byte{b}})
		}
		cur += ns
	}
	if len(ops) > 1 {
		v.splits.Add(1)
		v.obsMu.Lock()
		v.mSplits.Inc()
		v.obsMu.Unlock()
	}
	return ops, nil
}

// dispatchLocked services ops with v.mu held, implementing the parallel
// service-time model. Ops must arrive grouped by member in service
// order: each member's ops run back-to-back on its private clock, all
// members starting from the shared time, and the shared clock then
// advances to the slowest member — max over spindles, not sum.
func (v *Volume) dispatchLocked(ops []op) error {
	if len(ops) == 0 {
		return nil
	}
	now := v.shared.Now()
	touched := make([]bool, len(v.members))
	for i := range ops {
		if !touched[ops[i].d] {
			touched[ops[i].d] = true
			v.privs[ops[i].d].AdvanceTo(now)
		}
	}
	var firstErr error
	for i := range ops {
		o := &ops[i]
		m := v.members[o.d]
		var err error
		switch {
		case o.ordered:
			err = m.WriteOrdered(o.lba, o.bufs[0])
		case o.write:
			err = m.WriteV(o.lba, o.bufs)
		default:
			err = m.ReadV(o.lba, o.bufs)
		}
		v.lastLBA[o.d] = o.lba + o.sectors
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	end := now
	for d, t := range touched {
		if t {
			if pt := v.privs[d].Now(); pt > end {
				end = pt
			}
		}
	}
	v.shared.AdvanceTo(end)
	return firstErr
}

// ReadV implements blockio.Target: one logical scatter/gather read,
// striped across whichever spindles the range touches and serviced in
// parallel.
func (v *Volume) ReadV(lba int64, bufs [][]byte) error {
	ops, err := v.split(lba, bufs, false)
	if err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.dispatchLocked(ops)
}

// WriteV implements blockio.Target: the gather-write mirror of ReadV.
func (v *Volume) WriteV(lba int64, bufs [][]byte) error {
	ops, err := v.split(lba, bufs, true)
	if err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.dispatchLocked(ops)
}

// WriteOrdered implements blockio.Target. The write is timed on its
// home spindle; the barrier reaches the backing store through that
// member, and when the members are windows over one ordered store
// (Build), it is a barrier across the whole volume's write stream.
func (v *Volume) WriteOrdered(lba int64, buf []byte) error {
	ops, err := v.split(lba, [][]byte{buf}, true)
	if err != nil {
		return err
	}
	ops[0].ordered = true
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.dispatchLocked(ops)
}

// SubmitBlocks implements blockio.BatchSubmitter: the queued-batch path.
// Requests are cut at stripe-unit boundaries, partitioned per spindle,
// ordered by each spindle's own C-LOOK sweep from that spindle's head
// position, merged up to the 64 KB transfer cap, and dispatched with the
// parallel service-time model. Returns the number of merged disk
// requests actually issued.
func (v *Volume) SubmitBlocks(reqs []blockio.Req) (int, error) {
	perDisk := make([][]op, len(v.members))
	for i := range reqs {
		ops, err := v.split(reqs[i].Block*blockio.SectorsPerBlock, reqs[i].Bufs, reqs[i].Write)
		if err != nil {
			return 0, err
		}
		for _, o := range ops {
			perDisk[o.d] = append(perDisk[o.d], o)
		}
	}

	v.mu.Lock()
	defer v.mu.Unlock()
	maxSectors := int64(blockio.MaxTransferBlocks * blockio.SectorsPerBlock)
	var all []op
	fanout := 0
	depths := make([]int64, len(v.members))
	for d, chunks := range perDisk {
		if len(chunks) == 0 {
			continue
		}
		fanout++
		items := make([]sched.Item, len(chunks))
		for i := range chunks {
			items[i] = sched.Item{LBA: chunks[i].lba, Sector: int(chunks[i].sectors)}
		}
		order := v.sch.Order(items, v.lastLBA[d])
		prevEnd := int64(-1)
		for i := 0; i < len(order); {
			merged := chunks[order[i]]
			merged.bufs = append([][]byte(nil), merged.bufs...)
			j := i + 1
			for j < len(order) {
				nxt := &chunks[order[j]]
				if nxt.write != merged.write || nxt.lba != merged.lba+merged.sectors ||
					merged.sectors+nxt.sectors > maxSectors {
					break
				}
				merged.bufs = append(merged.bufs, nxt.bufs...)
				merged.sectors += nxt.sectors
				j++
			}
			end := merged.lba + merged.sectors
			if nb, ns := probeSplit(merged.bufs); nb > 0 && !merged.write && merged.lba != prevEnd {
				probe, rest := merged, merged
				probe.sectors = ns
				probe.bufs = merged.bufs[:nb]
				rest.lba += ns
				rest.sectors -= ns
				rest.bufs = merged.bufs[nb:]
				all = append(all, probe, rest)
				depths[d] += 2
			} else {
				all = append(all, merged)
				depths[d]++
			}
			prevEnd = end
			i = j
		}
	}
	v.obsMu.Lock()
	v.mBatches.Inc()
	v.mFanout.Record(int64(fanout))
	for d := range depths {
		if depths[d] > 0 {
			v.spindles[d].queue.Record(depths[d])
		}
	}
	v.obsMu.Unlock()
	return len(all), v.dispatchLocked(all)
}

// SetMetrics attaches per-spindle instruments to r: for each member i,
// the volume.disk<i>.* per-op sink (requests/reads/writes/sectors/
// service_ns), volume.disk<i>.busy_ns, and the per-batch
// volume.disk<i>.queue_depth histogram; plus volume.batches,
// volume.fanout, and volume.split_requests. These are in addition to —
// not instead of — whatever aggregate sink the mount attaches through
// SetMetricsFunc, so -metrics-json reports both the combined disk.*
// stream and true per-spindle attribution.
func (v *Volume) SetMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	v.obsMu.Lock()
	defer v.obsMu.Unlock()
	for i := range v.spindles {
		p := fmt.Sprintf("volume.disk%d", i)
		v.spindles[i].sink = obs.NewDiskSinkNamed(r, p)
		v.spindles[i].busy = r.Counter(p + ".busy_ns")
		v.spindles[i].queue = r.Histogram(p + ".queue_depth")
	}
	v.mSplits = r.Counter("volume.split_requests")
	v.mBatches = r.Counter("volume.batches")
	v.mFanout = r.Histogram("volume.fanout")
}

// memberTrace fans a member's trace entry into the volume-level trace
// observers. Entries carry member-local LBAs in service order.
func (v *Volume) memberTrace(i int, e disk.TraceEntry) {
	v.obsMu.Lock()
	defer v.obsMu.Unlock()
	if v.trace != nil {
		*v.trace = append(*v.trace, e)
	}
	if v.traceFunc != nil {
		v.traceFunc(e)
	}
}

// memberMetrics records a member's stamped entry into its per-spindle
// instruments and forwards it to the volume-level metrics sink.
func (v *Volume) memberMetrics(i int, e disk.TraceEntry) {
	v.obsMu.Lock()
	defer v.obsMu.Unlock()
	s := &v.spindles[i]
	s.busy.Add(e.Nanos)
	if s.sink != nil {
		s.sink(e)
	}
	if v.metricsFunc != nil {
		v.metricsFunc(e)
	}
}

// SetTrace implements blockio.Target: entries from every spindle are
// appended to buf in service order.
func (v *Volume) SetTrace(buf *[]disk.TraceEntry) {
	v.obsMu.Lock()
	defer v.obsMu.Unlock()
	v.trace = buf
}

// SetTraceFunc implements blockio.Target.
func (v *Volume) SetTraceFunc(fn func(disk.TraceEntry)) {
	v.obsMu.Lock()
	defer v.obsMu.Unlock()
	v.traceFunc = fn
}

// SetOpSource implements blockio.Target: forwarded to every member, so
// per-op attribution survives striping.
func (v *Volume) SetOpSource(fn func() (kind uint8, id uint64)) {
	for _, m := range v.members {
		m.SetOpSource(fn)
	}
}

// SetMetricsFunc implements blockio.Target: the aggregate sink every
// mount attaches (disk.* instruments). Per-spindle sinks attach through
// SetMetrics and observe the same stream first.
func (v *Volume) SetMetricsFunc(fn func(disk.TraceEntry)) {
	v.obsMu.Lock()
	defer v.obsMu.Unlock()
	v.metricsFunc = fn
}

// Close implements blockio.Target: closes every member.
func (v *Volume) Close() error {
	var firstErr error
	for _, m := range v.members {
		if err := m.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
