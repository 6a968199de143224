package disk

import (
	"fmt"
	"math"
	"sync"

	"cffs/internal/sim"
)

// Disk is a simulated disk drive: a mechanical timing model over a byte
// Store, advancing a shared simulated clock on every access.
//
// Disk is safe for concurrent use: a single mutex serializes every
// request end to end (positioning model, statistics, trace, and the byte
// transfer), which is also the physically honest model — a drive has one
// arm and services one request at a time. Concurrent callers queue on
// the mutex exactly as their requests would queue at the drive.
type Disk struct {
	spec  Spec
	curve seekCurve
	clock *sim.Clock
	store Store

	revNs     float64 // nanoseconds per revolution
	secNs     []float64
	trackSkew []int // per zone, sectors
	cylSkew   []int // per zone, sectors

	// mu guards everything below (head position, cache segments, stats,
	// trace) plus the backing store during transfers.
	mu sync.Mutex

	curCyl  int
	curHead int

	cacheOn bool
	segs    []segment // on-board read-ahead segments, MRU first

	stats Stats
	Observers
}

// segment is one on-board cache segment holding LBAs [start, end).
type segment struct{ start, end int64 }

// New builds a simulated disk from a spec, clock and backing store. The
// store must be at least spec.Geom.Bytes() long (NewMem sizes it exactly).
func New(spec Spec, clock *sim.Clock, store Store) (*Disk, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	curve, err := fitSeekCurve(spec.SeekSingle, spec.SeekAvg, spec.SeekMax, spec.Geom.Cylinders())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	d := &Disk{
		spec:    spec,
		curve:   curve,
		clock:   clock,
		store:   store,
		revNs:   spec.RevTime() * 1e9,
		cacheOn: spec.CacheSegments > 0,
	}
	d.Observers.Bind(&d.mu)
	for zi, z := range spec.Geom.Zones {
		secNs := d.revNs / float64(z.SPT)
		d.secNs = append(d.secNs, secNs)
		d.trackSkew = append(d.trackSkew, skewSectors(spec.HeadSwitch*1e9, secNs, z.SPT))
		d.cylSkew = append(d.cylSkew, skewSectors(curve.at(1)*1e9, secNs, z.SPT))
		_ = zi
	}
	return d, nil
}

// NewMem builds a disk over a fresh in-memory store sized to the drive.
func NewMem(spec Spec, clock *sim.Clock) (*Disk, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return New(spec, clock, NewMemStore(spec.Geom.Bytes()))
}

// skewSectors returns how many sectors of angular offset are needed to
// hide a switch of the given duration.
func skewSectors(switchNs, secNs float64, spt int) int {
	s := int(math.Ceil(switchNs / secNs))
	if s >= spt {
		s = spt - 1
	}
	return s
}

// Spec returns the drive's parameter set.
func (d *Disk) Spec() Spec { return d.spec }

// Sectors returns the drive capacity in sectors.
func (d *Disk) Sectors() int64 { return d.spec.Geom.Sectors() }

// Clock returns the simulated clock the disk advances.
func (d *Disk) Clock() *sim.Clock { return d.clock }

// FlatCost reports that a mechanical disk has no flat request price:
// what a request costs depends on where the arm and the platter are.
func (d *Disk) FlatCost() (fixedNs, blockNs int64) { return 0, 0 }

// Discard implements blockio.Target: a disk overwrites in place and has
// no mapping to shrink, so the command is ignored.
func (d *Disk) Discard(lba int64, nsect int) error { return nil }

// Stats returns a copy of the accumulated counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the counters (the head position and cache are kept).
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// SetCacheEnabled turns the on-board read-ahead cache on or off; the
// model explorer disables it to measure raw mechanical access times.
func (d *Disk) SetCacheEnabled(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cacheOn = on && d.spec.CacheSegments > 0
	d.segs = nil
}

// Access performs the timing-only part of a request: it advances the
// clock by the service time of an nsect-sector access at lba and returns
// that service time in nanoseconds. Read/Write/ReadV/WriteV call this and
// then move the bytes.
func (d *Disk) Access(lba int64, nsect int, write bool) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.access(lba, nsect, write)
}

// access is Access with d.mu held.
func (d *Disk) access(lba int64, nsect int, write bool) int64 {
	if nsect <= 0 {
		panic(fmt.Sprintf("disk: access of %d sectors", nsect))
	}
	if lba < 0 || lba+int64(nsect) > d.Sectors() {
		panic(fmt.Sprintf("disk: access [%d,%d) outside drive of %d sectors", lba, lba+int64(nsect), d.Sectors()))
	}
	var svcNs int64
	if !write && d.cacheHit(lba, nsect) {
		// Satisfied from the on-board buffer at bus rate.
		bus := float64(nsect) * SectorSize / d.spec.BusRate * 1e9
		svcNs = int64(d.spec.Overhead*1e9 + bus)
		d.stats.CacheHits++
		d.stats.TransferNanos += svcNs
	} else {
		svcNs = d.mechanical(lba, nsect, write)
	}
	if write {
		d.cacheInvalidate(lba, nsect)
		d.stats.Writes++
		d.stats.SectorsWrite += int64(nsect)
	} else {
		d.cacheInstall(lba, nsect)
		d.stats.Reads++
		d.stats.SectorsRead += int64(nsect)
	}
	d.stats.Requests++
	d.stats.BusyNanos += svcNs
	d.Observe(lba, nsect, write, svcNs)
	d.clock.Advance(svcNs)
	return svcNs
}

// mechanical computes a full media access: overhead + seek + head switch
// + rotational latency + transfer (with track/cylinder crossings).
func (d *Disk) mechanical(lba int64, nsect int, write bool) int64 {
	loc := d.spec.Geom.Locate(lba)

	overheadNs := d.spec.Overhead * 1e9

	dist := loc.Cyl - d.curCyl
	if dist < 0 {
		dist = -dist
	}
	seekS := d.curve.at(dist)
	if write && dist > 0 {
		seekS += d.spec.WriteSettle
	}
	posNs := seekS * 1e9
	if loc.Head != d.curHead {
		// Head selection overlaps the seek; only the longer matters.
		hs := d.spec.HeadSwitch * 1e9
		if hs > posNs {
			posNs = hs
		}
	}

	// Rotational latency: the platter keeps spinning in simulated time,
	// so the angular position is simply a function of the clock.
	arrival := float64(d.clock.Now()) + overheadNs + posNs
	angleNow := math.Mod(arrival, d.revNs) / d.revNs
	phys := d.physSector(loc)
	angleTarget := float64(phys) / float64(loc.SPT)
	frac := angleTarget - angleNow
	if frac < 0 {
		frac++
	}
	rotNs := frac * d.revNs

	// Transfer, walking track and cylinder boundaries. Skews are chosen
	// to hide switch times, but the skew gap itself still passes under
	// the head, so each crossing costs its skew in sector times.
	transferNs := 0.0
	cur := loc
	remaining := nsect
	for remaining > 0 {
		secNs := d.secNs[cur.Zone]
		onTrack := cur.SPT - cur.Sector
		if onTrack > remaining {
			onTrack = remaining
		}
		transferNs += float64(onTrack) * secNs
		remaining -= onTrack
		cur.Sector += onTrack
		if remaining > 0 {
			cur.Sector = 0
			if cur.Head+1 < d.spec.Geom.Heads {
				cur.Head++
				transferNs += float64(d.trackSkew[cur.Zone]) * secNs
			} else {
				cur.Head = 0
				cur.Cyl++
				cur.Zone = d.spec.Geom.ZoneAt(cur.Cyl)
				cur.SPT = d.spec.Geom.Zones[cur.Zone].SPT
				transferNs += float64(d.cylSkew[cur.Zone]) * d.secNs[cur.Zone]
			}
		}
	}

	d.curCyl, d.curHead = cur.Cyl, cur.Head

	d.stats.SeekNanos += int64(posNs)
	d.stats.RotateNanos += int64(rotNs)
	d.stats.TransferNanos += int64(transferNs)
	return int64(overheadNs + posNs + rotNs + transferNs)
}

// physSector maps a logical on-track sector index to its angular slot,
// applying cumulative track and cylinder skew.
func (d *Disk) physSector(loc Chs) int {
	skew := loc.Cyl*d.cylSkew[loc.Zone] + loc.Head*d.trackSkew[loc.Zone]
	return (loc.Sector + skew) % loc.SPT
}

// cacheHit reports whether a read is fully contained in a segment.
func (d *Disk) cacheHit(lba int64, nsect int) bool {
	if !d.cacheOn {
		return false
	}
	end := lba + int64(nsect)
	for i, s := range d.segs {
		if lba >= s.start && end <= s.end {
			// Move to MRU position.
			copy(d.segs[1:i+1], d.segs[:i])
			d.segs[0] = s
			return true
		}
	}
	return false
}

// cacheInstall records a read-ahead segment covering the request plus the
// prefetch window. The drive fills the window during otherwise-idle time,
// so the prefetched sectors cost nothing here; a later sequential read
// finds them at bus rate. This reproduces the behaviour the paper relies
// on ("the disk prefetches sequential disk data into its on-board cache").
func (d *Disk) cacheInstall(lba int64, nsect int) {
	if !d.cacheOn {
		return
	}
	end := lba + int64(nsect) + int64(d.spec.CacheSegSectors)
	if end > d.Sectors() {
		end = d.Sectors()
	}
	seg := segment{start: lba, end: end}
	// Drop overlapping segments, insert at MRU, trim to segment count.
	kept := d.segs[:0]
	for _, s := range d.segs {
		if s.end <= seg.start || s.start >= seg.end {
			kept = append(kept, s)
		}
	}
	d.segs = append([]segment{seg}, kept...)
	if len(d.segs) > d.spec.CacheSegments {
		d.segs = d.segs[:d.spec.CacheSegments]
	}
}

// cacheInvalidate drops any segment overlapping a written range (the
// catalog drives are write-through with no write caching, the safe and
// typical configuration of the era).
func (d *Disk) cacheInvalidate(lba int64, nsect int) {
	if len(d.segs) == 0 {
		return
	}
	end := lba + int64(nsect)
	kept := d.segs[:0]
	for _, s := range d.segs {
		if s.end <= lba || s.start >= end {
			kept = append(kept, s)
		}
	}
	d.segs = kept
}

// Read performs a timed read of len(buf) bytes (a sector multiple) at lba.
func (d *Disk) Read(lba int64, buf []byte) error {
	n := sectorCount(len(buf))
	d.mu.Lock()
	defer d.mu.Unlock()
	d.access(lba, n, false)
	return d.store.ReadAt(buf, lba*SectorSize)
}

// Write performs a timed write of len(buf) bytes (a sector multiple) at lba.
func (d *Disk) Write(lba int64, buf []byte) error {
	n := sectorCount(len(buf))
	d.mu.Lock()
	defer d.mu.Unlock()
	d.access(lba, n, true)
	return d.store.WriteAt(buf, lba*SectorSize)
}

// WriteOrdered performs a timed write that is also an ordering barrier:
// the file system asserts that every write it issued before this one
// must be durable before it, and that it must be durable before any
// later write. The timing model is identical to Write; the barrier is
// forwarded to the backing store when it implements OrderedStore, so a
// fault-injecting store can pin down which writes a simulated crash may
// still lose or reorder.
func (d *Disk) WriteOrdered(lba int64, buf []byte) error {
	n := sectorCount(len(buf))
	d.mu.Lock()
	defer d.mu.Unlock()
	d.access(lba, n, true)
	if os, ok := d.store.(OrderedStore); ok {
		return os.WriteAtOrdered(buf, lba*SectorSize)
	}
	return d.store.WriteAt(buf, lba*SectorSize)
}

// ReadV performs one timed read of a physically contiguous range starting
// at lba, scattering the data into bufs in order. This is the
// scatter/gather path explicit grouping depends on: one request, many
// cache blocks.
func (d *Disk) ReadV(lba int64, bufs [][]byte) error {
	total := 0
	for _, b := range bufs {
		total += sectorCount(len(b))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.access(lba, total, false)
	off := lba * SectorSize
	for _, b := range bufs {
		if err := d.store.ReadAt(b, off); err != nil {
			return err
		}
		off += int64(len(b))
	}
	return nil
}

// WriteV performs one timed write of a physically contiguous range
// starting at lba, gathering the data from bufs in order.
func (d *Disk) WriteV(lba int64, bufs [][]byte) error {
	total := 0
	for _, b := range bufs {
		total += sectorCount(len(b))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.access(lba, total, true)
	off := lba * SectorSize
	for _, b := range bufs {
		if err := d.store.WriteAt(b, off); err != nil {
			return err
		}
		off += int64(len(b))
	}
	return nil
}

// Close releases the backing store.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.store.Close()
}

func sectorCount(bytes int) int {
	if bytes <= 0 || bytes%SectorSize != 0 {
		panic(fmt.Sprintf("disk: transfer of %d bytes is not a positive sector multiple", bytes))
	}
	return bytes / SectorSize
}

// TraceEntry records one serviced request for diagnostics. OpKind and
// OpID attribute the request to the file-system operation that issued
// it; they are raw values (not obs types) because the disk model stays
// dependency-free — obs.NewDiskSink and the trace package give them
// meaning. Both are zero when no op source is installed or no operation
// is in scope (mkfs, background work).
type TraceEntry struct {
	LBA    int64
	Count  int
	Write  bool
	Nanos  int64
	OpKind uint8
	OpID   uint64
}

// Observers is the per-request observer set of a simulated device: a
// trace buffer, a trace sink, a metrics sink, and the operation source
// that stamps entries. A device embeds it, binds it to its own request
// lock, and calls Observe once per serviced request with that lock held;
// the setters take the same lock, so hooks change only between requests.
type Observers struct {
	mu          *sync.Mutex // the owning device's request lock
	trace       *[]TraceEntry
	traceFunc   func(TraceEntry)
	opSource    func() (kind uint8, id uint64)
	metricsFunc func(TraceEntry)
}

// Bind names the owning device's request lock. Call once, at construction.
func (o *Observers) Bind(mu *sync.Mutex) { o.mu = mu }

// Observe stamps one serviced request with the current operation and
// hands it to every installed observer. The owner's lock must be held.
func (o *Observers) Observe(lba int64, nsect int, write bool, ns int64) {
	if o.trace == nil && o.traceFunc == nil && o.metricsFunc == nil {
		return
	}
	e := TraceEntry{LBA: lba, Count: nsect, Write: write, Nanos: ns}
	if o.opSource != nil {
		e.OpKind, e.OpID = o.opSource()
	}
	if o.trace != nil {
		*o.trace = append(*o.trace, e)
	}
	if o.traceFunc != nil {
		o.traceFunc(e)
	}
	if o.metricsFunc != nil {
		o.metricsFunc(e)
	}
}

// SetTrace enables (or disables, with nil) request tracing into buf. The
// buffer is appended to under the device's request lock, but the caller
// must not read it while requests may still be in flight; for concurrent
// capture use SetTraceFunc with a trace.Collector instead.
func (o *Observers) SetTrace(buf *[]TraceEntry) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.trace = buf
}

// SetTraceFunc installs (or removes, with nil) a per-request trace sink,
// invoked under the device's request lock in service order. Sinks must be
// fast and must not call back into the device.
func (o *Observers) SetTraceFunc(fn func(TraceEntry)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.traceFunc = fn
}

// SetOpSource installs (or removes, with nil) the operation-context
// source used to stamp OpKind/OpID onto trace entries. It is queried
// under the device's request lock, on the goroutine that issued the
// request, once per request — obs.CurrentOpRaw is the intended source.
func (o *Observers) SetOpSource(fn func() (kind uint8, id uint64)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.opSource = fn
}

// SetMetricsFunc installs (or removes, with nil) a metrics sink invoked
// with each stamped entry under the device's request lock. It is
// independent of SetTrace/SetTraceFunc so metrics collection never
// competes with trace capture (bench experiments use both at once).
func (o *Observers) SetMetricsFunc(fn func(TraceEntry)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.metricsFunc = fn
}
