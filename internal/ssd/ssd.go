// Package ssd simulates a flash device: every request pays a small
// fixed cost (protocol plus flash access, microseconds rather than the
// disk's milliseconds), transfers stream at a per-channel bandwidth,
// and there is no positioning state — address distance never enters the
// timing. Requests on distinct channels service concurrently, and
// beneath the flat logical address space an erase-block FTL tracks the
// out-of-place write costs the interface hides: garbage collection,
// write amplification, and erase wear, all charged on the simulated
// clock.
//
// The device exists to test where the paper's bet breaks. C-FFS wins on
// a mechanical disk for two separable reasons: grouped placement turns
// many seeks into one (locality), and grouped transfer turns many
// requests into one (batching). Flash deletes the first reason — the
// seek-locality half of the read speedup evaporates — but keeps the
// second: each request still carries a fixed price, so grouping a
// directory's files into one 64 KB transfer still divides the request
// count by the group size. The fresh-vs-aged experiment matrix adds the
// FTL's own axis: on an aged device GC taxes every write with migration
// and erase time, which favors file systems that write less metadata.
//
// The request engine — validation, timing, batching across channels,
// statistics — is internal/flatdev, shared with objstore; this package
// is its microsecond parameter set plus the FTL on its write and
// discard hooks. Unlike the disk and objstore models, the ssd carries
// state that timing depends on (the FTL mapping); like them, it is
// fully deterministic, so aged-image benchmarks reproduce bit-for-bit.
package ssd

import (
	"fmt"
	"sync"

	"cffs/internal/disk"
	"cffs/internal/flatdev"
	"cffs/internal/obs"
	"cffs/internal/sim"
)

// Spec parameterizes the flash device's timing model and FTL geometry.
type Spec struct {
	Name string

	// ReqOverhead is the fixed per-request cost in seconds: command
	// submission, flash array access, and completion. Microseconds, not
	// the disk's milliseconds — but still the term explicit grouping
	// amortizes.
	ReqOverhead float64

	// Bandwidth is the streaming rate of one request in bytes/second
	// once the fixed cost is paid.
	Bandwidth float64

	// Channels bounds how many requests service concurrently; 0 means
	// unbounded.
	Channels int

	// PageBytes is the flash page size, the FTL's mapping granularity.
	// Must be a positive sector multiple.
	PageBytes int

	// PagesPerBlock is the erase-block size in pages.
	PagesPerBlock int

	// OverProvision is the fraction of spare erase blocks beyond the
	// logical capacity (raised to the GC progress minimum if smaller).
	OverProvision float64

	// GCReserve is the free-block floor: GC collects until at least
	// this many blocks are free (minimum 2 for progress).
	GCReserve int

	// Erase is the time to erase one block, in seconds.
	Erase float64

	// PreDirty ages the FTL at open: every logical page is programmed
	// once so the log is wrapped and GC runs at steady state from the
	// first write, like a drive that has been through many fill cycles.
	// A fresh FTL on a benchmark-sized device never wraps its log, so
	// GC stays silent and write amplification is exactly 1.0.
	PreDirty bool
}

// DefaultSpec models a mid-range NVMe-class device: 30 µs per request,
// 200 MB/s per channel, 8 channels, 4 KB pages in 256 KB erase blocks
// with 12.5% over-provisioning and 2 ms erases. At these numbers a 1 KB
// read costs ~35 µs and a full 64 KB group read ~360 µs — the fixed
// cost still dominates single-file traffic, but by 2 orders of
// magnitude less than a disk seek.
func DefaultSpec() Spec {
	return Spec{
		Name:          "ssd",
		ReqOverhead:   30e-6,
		Bandwidth:     200e6,
		Channels:      8,
		PageBytes:     4096,
		PagesPerBlock: 64,
		OverProvision: 0.125,
		GCReserve:     4,
		Erase:         2e-3,
	}
}

// Validate checks the spec for usable values.
func (s Spec) Validate() error {
	if err := s.params().Validate(); err != nil {
		return err
	}
	if s.PageBytes <= 0 || s.PageBytes%disk.SectorSize != 0 {
		return fmt.Errorf("ssd: page size %d is not a positive sector multiple", s.PageBytes)
	}
	if s.PagesPerBlock <= 0 {
		return fmt.Errorf("ssd: %d pages per erase block", s.PagesPerBlock)
	}
	if s.OverProvision < 0 {
		return fmt.Errorf("ssd: negative over-provisioning %g", s.OverProvision)
	}
	if s.Erase < 0 {
		return fmt.Errorf("ssd: negative erase time %g", s.Erase)
	}
	return nil
}

// params is the spec's share of the flat-cost request engine.
func (s Spec) params() flatdev.Params {
	return flatdev.Params{Name: "ssd", Fixed: s.ReqOverhead, Bandwidth: s.Bandwidth, Channels: s.Channels,
		DiscardPage: s.PageBytes}
}

// Parallelism reports how many requests a device with this spec
// services concurrently.
func (s Spec) Parallelism() int { return s.params().Parallelism() }

// Store is a simulated flash device presenting a flat logical sector
// address space over a byte store: the flat-cost request engine, which
// supplies blockio.Target, blockio.BatchSubmitter and the Parallelism
// probe, with the FTL attached as its write and discard hooks. It is safe for
// concurrent use; the engine's one mutex serializes the timing model,
// the FTL, and statistics.
//
// The FTL is accounting, not a data path: the byte store always holds
// logical data at logical offsets, so fsck, fault injection, and
// crash-state reconstruction work on the ssd backend unchanged. A
// discard (blockio.Target.Discard, the engine's) keeps that true the
// only way it can: the pages the FTL forgets are overwritten with the
// engine's poison page, which is what the logical address now reads.
type Store struct {
	*flatdev.Device
	spec Spec
	mu   *sync.Mutex // the engine's mutex; guards ftl and the instruments
	ftl  *ftl

	// ssd.* instruments; nil (no-op) until SetMetrics attaches a registry.
	mHostPages *obs.Counter // ssd.pages.host
	mFlashPg   *obs.Counter // ssd.pages.flash
	mGCRuns    *obs.Counter // ssd.gc.runs
	mGCMoved   *obs.Counter // ssd.gc.pages_moved
	mGCErases  *obs.Counter // ssd.gc.erases
	mGCNanos   *obs.Counter // ssd.gc.ns
	mTrims     *obs.Counter // ssd.trims
	gWriteAmp  *obs.Gauge   // ssd.writeamp_x100
	gFreeBlks  *obs.Gauge   // ssd.blocks.free
	gEraseMax  *obs.Gauge   // ssd.erase.max
}

// New builds a flash device of the given byte capacity (a sector
// multiple) over an existing byte store.
func New(spec Spec, clock *sim.Clock, st disk.Store, capacity int64) (*Store, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := &Store{spec: spec}
	k, err := flatdev.New(spec.params(), clock, st, capacity, d.ftlWrite, d.ftlDiscard)
	if err != nil {
		return nil, err
	}
	d.Device, d.mu = k, k.Mutex()
	nLogical := int((capacity + int64(spec.PageBytes) - 1) / int64(spec.PageBytes))
	if d.ftl, err = newFTL(nLogical, spec.PagesPerBlock, spec.GCReserve, spec.OverProvision); err != nil {
		return nil, err
	}
	if spec.PreDirty {
		d.ftl.fill()
	}
	return d, nil
}

// NewMem builds a flash device over a fresh in-memory image.
func NewMem(spec Spec, clock *sim.Clock, capacity int64) (*Store, error) {
	return New(spec, clock, disk.NewMemStore(capacity), capacity)
}

// Spec returns the timing parameters.
func (d *Store) Spec() Spec { return d.spec }

// SetMetrics attaches a registry for the device's FTL instruments.
// Counters: ssd.pages.host, ssd.pages.flash, ssd.gc.runs,
// ssd.gc.pages_moved, ssd.gc.erases, ssd.gc.ns, ssd.trims. Gauges:
// ssd.writeamp_x100, ssd.blocks.free, ssd.erase.max. Families are
// created eagerly so they appear in snapshots even before GC first
// runs. Call before concurrent use.
func (d *Store) SetMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mHostPages = r.Counter("ssd.pages.host")
	d.mFlashPg = r.Counter("ssd.pages.flash")
	d.mGCRuns = r.Counter("ssd.gc.runs")
	d.mGCMoved = r.Counter("ssd.gc.pages_moved")
	d.mGCErases = r.Counter("ssd.gc.erases")
	d.mGCNanos = r.Counter("ssd.gc.ns")
	d.mTrims = r.Counter("ssd.trims")
	d.gWriteAmp = r.Gauge("ssd.writeamp_x100")
	d.gFreeBlks = r.Gauge("ssd.blocks.free")
	d.gEraseMax = r.Gauge("ssd.erase.max")
	d.updateGauges()
}

// updateGauges publishes the FTL's current levels, with d.mu held.
func (d *Store) updateGauges() {
	d.gWriteAmp.Set(int64(d.ftl.writeAmp() * 100))
	d.gFreeBlks.Set(int64(d.ftl.freeBlocks()))
	d.gEraseMax.Set(int64(d.ftl.maxErase))
}

// FTLStats is a point-in-time copy of the FTL's accounting, for
// benchmark gates and tests.
type FTLStats struct {
	HostPages  int64   // pages the host wrote
	FlashPages int64   // pages actually programmed (host + migrated)
	Moved      int64   // pages relocated by GC
	Erases     int64   // erase operations
	GCRuns     int64   // GC activations
	Trims      int64   // mapped logical pages a discard unmapped
	WriteAmp   float64 // FlashPages / HostPages
	MaxErase   int32   // highest per-block erase count
	FreeBlocks int     // current free pool size
}

// FTL returns the current FTL accounting.
func (d *Store) FTL() FTLStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return FTLStats{
		HostPages:  d.ftl.hostPages,
		FlashPages: d.ftl.flashPages,
		Moved:      d.ftl.moved,
		Erases:     d.ftl.eraseOps,
		GCRuns:     d.ftl.gcRuns,
		Trims:      d.ftl.trims,
		WriteAmp:   d.ftl.writeAmp(),
		MaxErase:   d.ftl.maxErase,
		FreeBlocks: d.ftl.freeBlocks(),
	}
}

// gcNs prices one GC round: migrated pages stream at the device
// bandwidth, erases pay the fixed erase time.
func (d *Store) gcNs(cost gcCost) int64 {
	if cost.moved == 0 && cost.erases == 0 {
		return 0
	}
	program := int64(float64(cost.moved) * float64(d.spec.PageBytes) / d.spec.Bandwidth * 1e9)
	return program + cost.erases*int64(d.spec.Erase*1e9)
}

// ftlWrite is the engine's write hook, so it runs with d.mu held: every
// page the write touches is programmed out-of-place, and any GC the
// write forced is priced and counted. It returns the GC time to charge
// on the clock. Reads never come here — flash reads are in-place.
func (d *Store) ftlWrite(lba int64, nsect int) (int64, error) {
	spp := int64(d.spec.PageBytes / disk.SectorSize)
	first := lba / spp
	last := (lba + int64(nsect) - 1) / spp
	var cost gcCost
	var runs int64
	for lpn := first; lpn <= last; lpn++ {
		c, err := d.ftl.write(int(lpn))
		if err != nil {
			return 0, err
		}
		cost.moved += c.moved
		cost.erases += c.erases
		if c.moved > 0 || c.erases > 0 {
			runs++
		}
	}
	pages := last - first + 1
	gc := d.gcNs(cost)
	d.mHostPages.Add(pages)
	d.mFlashPg.Add(pages + cost.moved)
	d.mGCRuns.Add(runs)
	d.mGCMoved.Add(cost.moved)
	d.mGCErases.Add(cost.erases)
	d.mGCNanos.Add(gc)
	d.updateGauges()
	return gc, nil
}

// ftlDiscard is the engine's discard hook, so it runs with d.mu held
// and is handed whole pages: the FTL unmaps them, so GC never migrates
// their contents again. ssd.trims counts the pages that were mapped —
// discarding a page twice is not work done twice. The command's cost
// and the destroyed bytes are the engine's (flatdev.Device.Discard).
func (d *Store) ftlDiscard(lba int64, nsect int) error {
	spp := int64(d.spec.PageBytes / disk.SectorSize)
	before := d.ftl.trims
	for lpn, end := lba/spp, (lba+int64(nsect))/spp; lpn < end; lpn++ {
		if err := d.ftl.trim(int(lpn)); err != nil {
			return err
		}
	}
	d.mTrims.Add(d.ftl.trims - before)
	d.updateGauges()
	return nil
}
