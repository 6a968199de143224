// Package blockio is the block device driver sitting between the file
// systems and the simulated disk. It converts block-sized transfers to
// sector runs, schedules queued batches (C-LOOK, like the paper's
// NetBSD-derived driver), merges physically adjacent transfers up to the
// MAXPHYS-era 64 KB cap, and supports scatter/gather so one disk request
// can fill or drain many buffer-cache blocks.
package blockio

import (
	"fmt"
	"sync"

	"cffs/internal/disk"
	"cffs/internal/obs"
	"cffs/internal/sched"
	"cffs/internal/sim"
)

// BlockSize is the file system block size. The paper's C-FFS uses 4 KB
// allocation units with no fragments; everything above this layer counts
// in these blocks.
const BlockSize = 4096

// SectorsPerBlock is the sector run length of one block.
const SectorsPerBlock = BlockSize / disk.SectorSize

// MaxTransferBlocks caps a single merged disk request at 16 blocks
// (64 KB), matching the MAXPHYS transfer limit of mid-90s BSD drivers —
// and, not coincidentally, the explicit-grouping group size.
const MaxTransferBlocks = 16

// Req is one queued block request: a contiguous run of blocks starting at
// Block, with one buffer per block (scatter/gather).
type Req struct {
	Write bool
	Block int64
	Bufs  [][]byte
}

func (r *Req) blocks() int { return len(r.Bufs) }

// Target is what a Device drives: a single simulated disk or a striped
// multi-disk volume (internal/volume) presenting one logical sector
// address space. *disk.Disk satisfies it as-is; everything above the
// driver talks to whichever is plugged in through this interface.
//
// FlatCost declares the device's flat request price: fixedNs for
// issuing a request of any size plus blockNs for each block it moves.
// Zeros mean the device is not flat-priced — a request costs what the
// head's position makes it cost, and no two numbers describe that. It
// is a method of the interface, not an optional one found by assertion,
// because interposers wrap a Target by embedding this interface: a
// wrapper forwards every method declared here and silently hides any
// that is not, so a policy that read the price by assertion would change
// whenever the device is merely being observed.
//
// Discard tells the device that the sectors hold nothing the host will
// read again, so a flash device can stop migrating them. It is declared
// here for the same interposer reason. A device that keeps no mapping
// (the disk, the volume, the object store) ignores the call; one that
// acts on it may return junk for the range from then on, so the caller
// must already be allowed to overwrite it.
type Target interface {
	Sectors() int64
	Clock() *sim.Clock
	FlatCost() (fixedNs, blockNs int64)
	Discard(lba int64, nsect int) error
	Stats() disk.Stats
	ResetStats()
	ReadV(lba int64, bufs [][]byte) error
	WriteV(lba int64, bufs [][]byte) error
	WriteOrdered(lba int64, buf []byte) error
	SetTrace(buf *[]disk.TraceEntry)
	SetTraceFunc(fn func(disk.TraceEntry))
	SetOpSource(fn func() (kind uint8, id uint64))
	SetMetricsFunc(fn func(disk.TraceEntry))
	Close() error
}

// BatchSubmitter is a Target that schedules and services whole request
// batches itself. Submit delegates to it when present: a striped volume
// partitions the batch per spindle, runs each spindle's own C-LOOK
// sweep, and services the spindles in parallel on the simulated clock —
// decisions the single-queue sweep below cannot make. It returns the
// number of merged disk requests actually issued, for the driver's
// merge-factor counters.
type BatchSubmitter interface {
	SubmitBlocks(reqs []Req) (issued int, err error)
}

// Device is a block device over a simulated disk (or volume). It is safe
// for concurrent use: single-block transfers serialize at the target, and
// a queued batch (Submit) holds the device lock for its whole sweep so
// the scheduler's C-LOOK order is not interleaved with other traffic.
type Device struct {
	tgt Target
	sch sched.Scheduler

	mu      sync.Mutex // guards lastLBA and batch submission
	lastLBA int64

	// Submit merge observers; nil (no-op) until SetMetrics attaches a
	// registry. issued/reqs is the driver's merge factor.
	batches *obs.Counter // Submit calls
	reqs    *obs.Counter // block requests handed to Submit
	issued  *obs.Counter // merged disk requests actually issued
}

// NewDevice wraps a disk or volume with a scheduler.
func NewDevice(t Target, s sched.Scheduler) *Device {
	return &Device{tgt: t, sch: s}
}

// Blocks returns the number of whole blocks on the device.
func (dev *Device) Blocks() int64 { return dev.tgt.Sectors() / SectorsPerBlock }

// Disk exposes the underlying target (for stats and the clock). The name
// predates multi-disk volumes; the result may be a *disk.Disk or a
// *volume.Volume.
func (dev *Device) Disk() Target { return dev.tgt }

// Scheduler returns the active scheduler.
func (dev *Device) Scheduler() sched.Scheduler { return dev.sch }

// SetMetrics attaches a registry for the driver's merge counters:
// blockio.submit.batches, blockio.submit.reqs, blockio.submit.issued.
// Call it before concurrent use.
func (dev *Device) SetMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	dev.batches = r.Counter("blockio.submit.batches")
	dev.reqs = r.Counter("blockio.submit.reqs")
	dev.issued = r.Counter("blockio.submit.issued")
}

// ReadBlocks issues one disk request reading len(bufs) contiguous blocks
// starting at block, scattering them into bufs.
func (dev *Device) ReadBlocks(block int64, bufs [][]byte) error {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	return dev.readBlocks(block, bufs)
}

// readBlocks is ReadBlocks with dev.mu held.
func (dev *Device) readBlocks(block int64, bufs [][]byte) error {
	if err := dev.check(block, bufs); err != nil {
		return err
	}
	lba := block * SectorsPerBlock
	dev.lastLBA = lba + int64(len(bufs)*SectorsPerBlock)
	return dev.tgt.ReadV(lba, bufs)
}

// WriteBlocks issues one disk request writing len(bufs) contiguous blocks
// starting at block, gathered from bufs.
func (dev *Device) WriteBlocks(block int64, bufs [][]byte) error {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	return dev.writeBlocks(block, bufs)
}

// writeBlocks is WriteBlocks with dev.mu held.
func (dev *Device) writeBlocks(block int64, bufs [][]byte) error {
	if err := dev.check(block, bufs); err != nil {
		return err
	}
	lba := block * SectorsPerBlock
	dev.lastLBA = lba + int64(len(bufs)*SectorsPerBlock)
	return dev.tgt.WriteV(lba, bufs)
}

// WriteBlockOrdered writes a single block as an ordering barrier: all
// writes submitted before it are durable before it, and it is durable
// before anything submitted after. This is the synchronous metadata
// write of the integrity argument (cache.WriteSync issues it); the
// explicit edge lets a fault-injecting store bound crash reordering.
func (dev *Device) WriteBlockOrdered(block int64, buf []byte) error {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	if err := dev.check(block, [][]byte{buf}); err != nil {
		return err
	}
	lba := block * SectorsPerBlock
	dev.lastLBA = lba + SectorsPerBlock
	return dev.tgt.WriteOrdered(lba, buf)
}

// DiscardBlocks declares n blocks starting at block dead, as one
// command. The file systems call it from their block-free path, at the
// point where their own write ordering already lets the blocks be
// reallocated and overwritten — the only point at which losing the
// contents is safe. It moves no data and no head, so it neither takes
// the batch lock nor updates the sweep position.
func (dev *Device) DiscardBlocks(block int64, n int) error {
	if n <= 0 || block < 0 || block+int64(n) > dev.Blocks() {
		return fmt.Errorf("blockio: discard [%d,%d) outside device of %d blocks",
			block, block+int64(n), dev.Blocks())
	}
	return dev.tgt.Discard(block*SectorsPerBlock, n*SectorsPerBlock)
}

// DiscardRun coalesces the discards of physically adjacent blocks into
// one command each. It belongs to the one function that frees many
// blocks at a stretch (bmap.Tree.Shrink, under every truncate), which
// starts it empty and flushes it before returning: a run never outlives
// the operation that freed its blocks, so it can never hold a block
// that has since been reallocated and written.
type DiscardRun struct {
	start int64
	n     int
}

// Add appends block to the run, first issuing the run if block does not
// extend it.
func (r *DiscardRun) Add(dev *Device, block int64) error {
	if r.n > 0 && block == r.start+int64(r.n) {
		r.n++
		return nil
	}
	err := r.Flush(dev)
	r.start, r.n = block, 1
	return err
}

// Flush issues the pending run, if any.
func (r *DiscardRun) Flush(dev *Device) error {
	if r.n == 0 {
		return nil
	}
	n := r.n
	r.n = 0
	return dev.DiscardBlocks(r.start, n)
}

// ReadBlock reads a single block.
func (dev *Device) ReadBlock(block int64, buf []byte) error {
	return dev.ReadBlocks(block, [][]byte{buf})
}

// WriteBlock writes a single block.
func (dev *Device) WriteBlock(block int64, buf []byte) error {
	return dev.WriteBlocks(block, [][]byte{buf})
}

// Submit services a batch of requests: the scheduler picks the sweep
// order from the current head position, then physically adjacent
// same-direction requests are merged into single disk requests up to
// MaxTransferBlocks. This is where delayed-write clustering happens —
// for C-FFS, the dirty blocks of a group come out of the queue as one
// 64 KB write.
func (dev *Device) Submit(reqs []Req) error {
	if len(reqs) == 0 {
		return nil
	}
	dev.mu.Lock()
	defer dev.mu.Unlock()
	dev.batches.Inc()
	dev.reqs.Add(int64(len(reqs)))
	items := make([]sched.Item, len(reqs))
	for i := range reqs {
		if err := dev.check(reqs[i].Block, reqs[i].Bufs); err != nil {
			return err
		}
		items[i] = sched.Item{
			LBA:    reqs[i].Block * SectorsPerBlock,
			Sector: reqs[i].blocks() * SectorsPerBlock,
		}
	}
	if bs, ok := dev.tgt.(BatchSubmitter); ok {
		// A multi-spindle target schedules the batch itself: one C-LOOK
		// sweep per spindle from that spindle's own head position, spindles
		// serviced in parallel. The single global sweep below would order
		// by logical address, which interleaves the per-disk queues.
		issued, err := bs.SubmitBlocks(reqs)
		dev.issued.Add(int64(issued))
		return err
	}
	order := dev.sch.Order(items, dev.lastLBA)

	for i := 0; i < len(order); {
		first := &reqs[order[i]]
		start := first.Block
		write := first.Write
		bufs := make([][]byte, 0, len(first.Bufs))
		bufs = append(bufs, first.Bufs...)
		next := start + int64(first.blocks())
		j := i + 1
		for j < len(order) {
			r := &reqs[order[j]]
			if r.Write != write || r.Block != next ||
				len(bufs)+r.blocks() > MaxTransferBlocks {
				break
			}
			bufs = append(bufs, r.Bufs...)
			next += int64(r.blocks())
			j++
		}
		dev.issued.Inc()
		var err error
		if write {
			err = dev.writeBlocks(start, bufs)
		} else {
			err = dev.readBlocks(start, bufs)
		}
		if err != nil {
			return err
		}
		i = j
	}
	return nil
}

func (dev *Device) check(block int64, bufs [][]byte) error {
	if len(bufs) == 0 {
		return fmt.Errorf("blockio: empty request at block %d", block)
	}
	for _, b := range bufs {
		if len(b) != BlockSize {
			return fmt.Errorf("blockio: buffer of %d bytes, want %d", len(b), BlockSize)
		}
	}
	if block < 0 || block+int64(len(bufs)) > dev.Blocks() {
		return fmt.Errorf("blockio: request [%d,%d) outside device of %d blocks",
			block, block+int64(len(bufs)), dev.Blocks())
	}
	return nil
}
