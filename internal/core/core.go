// Package core implements C-FFS, the co-locating fast file system of
// Ganger & Kaashoek (USENIX 1997): embedded inodes and explicit grouping.
//
// Embedded inodes: the inode of a single-link regular file lives inside
// its directory, in the same 256-byte entry slot as its name — and never
// crossing a sector boundary, so the name/inode pair is updated
// atomically by a single disk write. Directories and multi-link files
// keep externalized inodes in a growable inode file (like the BSD-LFS
// IFILE). One disk request fetches a directory's names *and* all of its
// embedded inodes.
//
// Explicit grouping: data blocks of small files named by the same
// directory are allocated inside a physically contiguous, aligned group
// of 16 blocks (64 KB) and moved between memory and disk as one request:
// reading any block of a group brings in the whole group (scattered into
// the cache by physical address), and delayed writes to a group leave
// the queue as one clustered write.
//
// Both techniques are independent Options flags, giving the paper's
// four-way comparison grid: conventional (both off), embedded-only,
// grouping-only, and C-FFS (both on) — all sharing every other line of
// this package.
package core

import (
	"cffs/internal/bmap"
	"encoding/binary"
	"fmt"
	"sync"

	"cffs/internal/blockio"
	"cffs/internal/cache"
	"cffs/internal/layout"
	"cffs/internal/obs"
	"cffs/internal/sim"
	"cffs/internal/vfs"
	"cffs/internal/writeback"
)

// Magic identifies a C-FFS superblock.
const Magic = 0x0CFF_5C01

// Mode selects the metadata integrity strategy (same semantics as the
// baseline: ModeSync orders metadata with synchronous writes, ModeDelayed
// emulates soft updates with delayed writes, as the paper's Figure 6
// does).
type Mode int

const (
	ModeSync Mode = iota
	ModeDelayed
)

func (m Mode) String() string {
	if m == ModeSync {
		return "sync"
	}
	return "delayed"
}

const (
	// mapBlocks is the size of the inode-map region: each map block
	// holds 1024 pointers to inode-file blocks, each of which holds 32
	// inodes, so 8 map blocks address 256Ki external inodes.
	mapBlocks = 8

	// GroupBlocks is the explicit-grouping group size: 16 blocks =
	// 64 KB, matching the paper and the driver's transfer cap.
	GroupBlocks = 16

	// agHeaderOff* lay out the allocation-group header block.
	agBmapOff = 64  // block bitmap
	agDescOff = 320 // group descriptor table (8 bytes per group)
)

// Options configures mkfs/mount. EmbedInodes and Grouping are persisted
// in the superblock at mkfs time; Mount verifies they match.
type Options struct {
	EmbedInodes bool
	Grouping    bool
	// Immediate stores files that fit the inode's spare bytes
	// (layout.InlineSize) inside the inode itself — immediate files
	// [Mullender84], the earlier co-location technique the paper
	// relates to. With embedding on, a tiny file then lives entirely
	// inside its directory block. Reads understand inline data
	// regardless of this flag; the flag gates its creation.
	Immediate bool
	// Readahead, when positive, prefetches up to this many physically
	// contiguous blocks of a file on a read miss (one scatter request).
	// The paper's prototype "currently does not support prefetching";
	// this is the natural extension for large-file reads, where grouping
	// deliberately does nothing.
	Readahead int
	// AdaptiveGroupRead fetches a whole group only on the second recent
	// touch of that group; the first touch reads the request's own
	// contiguous blocks. Directory scans still get group reads (from the
	// second file on), while uniformly random traffic — where fetching
	// 64 KB per 4 KB wanted thrashes the cache — degrades gracefully to
	// per-request reads. The paper moves groups "as a unit ... in most
	// cases"; this is one such policy. Off by default: on a device that
	// declares no request cost the default is the paper's unconditional
	// group read, and on one that does (ssd, objstore) the mount measures
	// whether group reads pay and applies this rule only while they do
	// not (groupread.go). Setting it pins the rule on any device.
	AdaptiveGroupRead bool
	// GroupReadahead widens a group read: along with the demand group,
	// up to this many further group extents owned by the same directory
	// are fetched in the same scheduled batch. On a striped volume,
	// consecutive extents live on different spindles, so the batch
	// engages several arms at once — this is what converts spindle count
	// into small-file *read* bandwidth (writes get their parallelism
	// from write-behind clustering). 0, the default, auto-sizes to
	// twice the device's parallelism: plain single disks get no
	// readahead (the paper-faithful behaviour), an N-disk volume gets a
	// fan of 2N extents — enough to keep every arm busy and feed each
	// drive's on-board read-ahead a second extent to stream into.
	// Negative disables it outright.
	GroupReadahead int
	Mode           Mode
	CacheBlocks    int // buffer cache capacity; default 2048 (8 MB)
	AGBlocks       int // blocks per allocation group; default 2048 (8 MB)
	// DirIndexBlocks is the directory size, in blocks, above which a
	// bucketized name-hash index is maintained next to the directory
	// (see dirindex.go): 0 means the default (8 blocks = 128 slots),
	// negative disables indexing entirely. The index is redundant and
	// rebuildable; images written with and without it interoperate.
	DirIndexBlocks int
	// PathCache is the capacity of the sharded full-path→ino lookup
	// cache serving vfs.Walk (see pathcache.go): 0 means the default
	// (32768 entries), negative disables it.
	PathCache int
	// Metrics, when non-nil, instruments the whole mount: per-operation
	// disk-request attribution, cache/driver counters, and the C-FFS
	// mechanism instruments (embedded-inode hits, group-read fill). Nil
	// costs one predictable branch per recording site.
	Metrics *obs.Registry
	// Recorder, when non-nil, attaches a flight recorder
	// (internal/flight) to the mount: every vfs operation's begin/end is
	// observed and every stamped disk request is routed to the in-flight
	// operation that issued it. Works with or without Metrics.
	Recorder obs.OpRecorder
	// Writeback configures the asynchronous write-behind daemon
	// (internal/writeback). Disabled (the zero value), dirty blocks
	// leave the cache only through Sync/Flush, WriteSync, or eviction
	// pressure — the synchronous-mount behaviour. Enabled, a background
	// daemon drains dirty buffers as clustered writes at dirty-ratio
	// water marks and simulated-clock ticks, and mutating operations
	// throttle at the hard dirty limit.
	Writeback writeback.Config
}

func (o *Options) fill() error {
	if o.CacheBlocks == 0 {
		o.CacheBlocks = 2048
	}
	if o.AGBlocks == 0 {
		o.AGBlocks = 2048
	}
	if o.AGBlocks < 64 || o.AGBlocks > 16384 {
		return fmt.Errorf("cffs: AGBlocks %d outside [64,16384]", o.AGBlocks)
	}
	return nil
}

// Config returns the paper's name for an option combination.
func (o Options) Config() string {
	switch {
	case o.EmbedInodes && o.Grouping:
		return "C-FFS"
	case o.EmbedInodes:
		return "embedded-only"
	case o.Grouping:
		return "grouping-only"
	}
	return "conventional"
}

// super is the on-disk superblock (block 0).
type super struct {
	NBlocks   int64
	AGBlocks  int
	NAG       int
	ExtBlocks int // allocated inode-file blocks
	Embed     bool
	Grouping  bool
	// Dirty is the unclean-mount marker: set (synchronously) by the
	// first mutating operation of a mount, cleared by Close after the
	// final sync and by a successful fsck repair. Directory indexes are
	// written lazily, so they may only be trusted when the previous
	// mount ended cleanly — this flag is how a mount knows.
	Dirty bool
}

func (s *super) agStart(ag int) int64 { return int64(1+mapBlocks) + int64(ag)*int64(s.AGBlocks) }

// dataStart is the first groupable block of an allocation group (right
// after its header block).
func (s *super) dataStart(ag int) int64 { return s.agStart(ag) + 1 }

// groupBase is the first group-extent block of an allocation group: the
// first GroupBlocks-aligned block at or after dataStart. Group extents
// are laid out from here in aligned 64 KB units, so an extent always
// fits one MAXPHYS transfer and — on a striped volume whose stripe unit
// is a multiple of GroupBlocks — never straddles a stripe-unit
// boundary (a group read must engage exactly one spindle). The blocks
// between dataStart and groupBase are ungrouped filler, handed out only
// by the first-fit fallback.
func (s *super) groupBase(ag int) int64 {
	d := s.dataStart(ag)
	return (d + GroupBlocks - 1) / GroupBlocks * GroupBlocks
}

// groupsPerAG is how many aligned group extents fit the data area.
// Alignment can pad up to GroupBlocks-1 blocks before the first extent,
// so one group's worth is reserved; for the default 2048-block AGs this
// still yields 127 extents, the same as the pre-alignment layout.
func (s *super) groupsPerAG() int { return (s.AGBlocks - GroupBlocks) / GroupBlocks }

func (s *super) encode(p []byte) {
	le := binary.LittleEndian
	le.PutUint32(p[0:], Magic)
	le.PutUint64(p[8:], uint64(s.NBlocks))
	le.PutUint32(p[16:], uint32(s.AGBlocks))
	le.PutUint32(p[20:], uint32(s.NAG))
	le.PutUint32(p[24:], uint32(s.ExtBlocks))
	var flags uint32
	if s.Embed {
		flags |= 1
	}
	if s.Grouping {
		flags |= 2
	}
	if s.Dirty {
		flags |= 4
	}
	le.PutUint32(p[28:], flags)
}

func (s *super) decode(p []byte) error {
	le := binary.LittleEndian
	if le.Uint32(p[0:]) != Magic {
		return fmt.Errorf("cffs: bad superblock magic %#x", le.Uint32(p[0:]))
	}
	s.NBlocks = int64(le.Uint64(p[8:]))
	s.AGBlocks = int(le.Uint32(p[16:]))
	s.NAG = int(le.Uint32(p[20:]))
	s.ExtBlocks = int(le.Uint32(p[24:]))
	flags := le.Uint32(p[28:])
	s.Embed = flags&1 != 0
	s.Grouping = flags&2 != 0
	s.Dirty = flags&4 != 0
	return nil
}

// FS is a mounted C-FFS. It is safe for concurrent use; see lock.go for
// the lock hierarchy.
type FS struct {
	dev  *blockio.Device
	c    *cache.Cache
	clk  *sim.Clock
	sb   super
	opts Options

	// devParallel is the spindle count under dev (1 for a plain disk);
	// it auto-sizes group readahead and the write-behind batch.
	devParallel int

	// mu is the FS-level lock: read operations (Lookup, ReadDir, Stat,
	// ReadAt, ...) share it, mutating operations hold it exclusively.
	// It protects every field below except the adaptive window, plus
	// the Data of all cached metadata and file blocks against
	// concurrent mutation.
	mu sync.RWMutex

	extFree    []uint64 // in-memory free bitmap over external inode slots
	extBlkPhys []int64  // physical location of each inode-file block
	sbDirty    bool     // superblock fields changed since last writeSuper
	dirRotor   int      // next allocation group for a new directory

	// wasClean records whether the previous mount of this image ended
	// cleanly (always true for a fresh Mkfs); it is immutable after
	// mount and gates trust in on-disk directory indexes. dirtyMarked
	// tracks whether this mount has already written the unclean marker;
	// it is only touched under mu held exclusively.
	wasClean    bool
	dirtyMarked bool

	// idxFresh names directories whose index this (uncleanly started)
	// mount has rebuilt and may therefore trust; nil when wasClean.
	// idxMu guards it: the map is read on the shared lookup path.
	idxMu    sync.Mutex
	idxFresh map[vfs.Ino]struct{}

	// pc is the full-path lookup cache, nil when disabled; see
	// pathcache.go for its place in the lock hierarchy.
	pc *pathCache

	// tree maps file blocks through this mount's allocator (bmap.go).
	tree *bmap.Tree

	// gr decides which misses fetch a whole group (see
	// groupReadWanted); adaptMu guards everything in it that changes.
	adaptMu sync.Mutex
	gr      groupReadPolicy

	// Observability, immutable after mount; all no-ops when
	// Options.Metrics is nil. The mechanism counters measure the
	// paper's two techniques directly: where inode reads are served
	// from, and how many blocks each group read brings in.
	trk            *obs.OpTracker
	mEmbHits       *obs.Counter // inode reads served from a directory block
	mExtReads      *obs.Counter // inode reads that went to the inode file
	mGroupReads    *obs.Counter // ReadRun group fetches issued
	mGroupBlocks   *obs.Counter // blocks requested by those fetches
	mGroupPrefetch *obs.Counter // sibling extents carried by readahead
	mIdxProbes     *obs.Counter // directory-index bucket probes
	mIdxRebuilds   *obs.Counter // directory-index (re)builds

	// wb is the write-behind daemon, nil on synchronous mounts. Its
	// flush rounds take fs.mu exclusively (it is a writer like any
	// other); mutating entry points call wb.Admit before fs.mu, so a
	// throttled writer never blocks the daemon. See lock.go.
	wb *writeback.Daemon
}

var _ vfs.FileSystem = (*FS)(nil)
var _ vfs.Flusher = (*FS)(nil)

// RootIno is the root directory's inode number (external slot 0).
const RootIno vfs.Ino = 1

// deviceParallelism discovers the spindle count under a device by
// interface assertion: a striped volume reports its member count, a
// plain disk (which has no Parallelism method) reports 1.
func deviceParallelism(dev *blockio.Device) int {
	if p, ok := dev.Disk().(interface{ Parallelism() int }); ok && p.Parallelism() > 0 {
		return p.Parallelism()
	}
	return 1
}

// groupReadFan is the effective group-readahead fan-out; see
// Options.GroupReadahead.
func (fs *FS) groupReadFan() int {
	switch {
	case fs.opts.GroupReadahead > 0:
		return fs.opts.GroupReadahead
	case fs.opts.GroupReadahead == 0:
		if fs.devParallel == 1 {
			return 0
		}
		return 2 * fs.devParallel
	default:
		return 0
	}
}

// startWriteback launches the write-behind daemon with the batch size
// scaled to the device's parallelism (unless the caller pinned one).
func (fs *FS) startWriteback(opts Options) {
	cfg := opts.Writeback
	if cfg.Parallelism == 0 {
		cfg.Parallelism = fs.devParallel
	}
	fs.wb = writeback.Start(fs.c, fs.clk, &fs.mu, cfg, opts.Metrics)
}

// Mkfs initializes a C-FFS on the device and returns it mounted.
func Mkfs(dev *blockio.Device, opts Options) (*FS, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	nblocks := dev.Blocks()
	nag := int((nblocks - int64(1+mapBlocks)) / int64(opts.AGBlocks))
	if nag < 1 {
		return nil, fmt.Errorf("cffs: device of %d blocks too small", nblocks)
	}
	fs := &FS{
		dev:         dev,
		c:           cache.New(dev, opts.CacheBlocks),
		clk:         dev.Disk().Clock(),
		opts:        opts,
		devParallel: deviceParallelism(dev),
		gr:          groupReadPolicy{breakEven: groupReadBreakEven(dev)},
		wasClean:    true, // a fresh image has no stale indexes
		sb: super{
			NBlocks:  nblocks,
			AGBlocks: opts.AGBlocks,
			NAG:      nag,
			Embed:    opts.EmbedInodes,
			Grouping: opts.Grouping,
		},
	}
	fs.pc = newPathCache(opts.PathCache, opts.Metrics)
	fs.tree = fs.newTree()
	fs.attachMetrics(opts.Metrics, opts.Recorder)
	// Zero the inode map.
	for blk := int64(1); blk <= mapBlocks; blk++ {
		b, err := fs.c.Alloc(blk)
		if err != nil {
			return nil, err
		}
		for i := range b.Data {
			b.Data[i] = 0
		}
		fs.c.MarkDirty(b)
		b.Release()
	}
	// Allocation-group headers: the header block itself is allocated.
	for ag := 0; ag < nag; ag++ {
		hdr, err := fs.c.Alloc(fs.sb.agStart(ag))
		if err != nil {
			return nil, err
		}
		for i := range hdr.Data {
			hdr.Data[i] = 0
		}
		fs.blockBitmap(hdr).Set(0)
		fs.c.MarkDirty(hdr)
		hdr.Release()
	}
	// Root directory at external slot 0.
	rootIdx, err := fs.allocExtInode(0)
	if err != nil {
		return nil, err
	}
	if rootIdx != 0 {
		return nil, fmt.Errorf("cffs: root allocated ext slot %d, want 0", rootIdx)
	}
	root := layout.Inode{Type: vfs.TypeDir, Nlink: 2, Mtime: fs.clk.Now()}
	if err := fs.initDirData(&root, RootIno, RootIno); err != nil {
		return nil, err
	}
	if err := fs.putInode(RootIno, &root, false); err != nil {
		return nil, err
	}
	fs.sbDirty = true
	if err := fs.writeSuper(); err != nil {
		return nil, err
	}
	if err := fs.c.Sync(); err != nil {
		return nil, err
	}
	fs.startWriteback(opts)
	return fs, nil
}

// Mount opens an existing C-FFS. The EmbedInodes/Grouping options are
// taken from the superblock; Mode and cache size from opts.
func Mount(dev *blockio.Device, opts Options) (*FS, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	fs := &FS{
		dev:         dev,
		c:           cache.New(dev, opts.CacheBlocks),
		clk:         dev.Disk().Clock(),
		opts:        opts,
		devParallel: deviceParallelism(dev),
		gr:          groupReadPolicy{breakEven: groupReadBreakEven(dev)},
	}
	fs.attachMetrics(opts.Metrics, opts.Recorder)
	sb, err := fs.c.Read(0)
	if err != nil {
		return nil, err
	}
	err = fs.sb.decode(sb.Data)
	sb.Release()
	if err != nil {
		return nil, err
	}
	fs.opts.EmbedInodes = fs.sb.Embed
	fs.opts.Grouping = fs.sb.Grouping
	fs.wasClean = !fs.sb.Dirty
	fs.pc = newPathCache(opts.PathCache, opts.Metrics)
	fs.tree = fs.newTree()
	if err := fs.scanExtInodes(); err != nil {
		return nil, err
	}
	fs.startWriteback(opts)
	return fs, nil
}

// markUnclean stamps the unclean marker into the superblock before the
// first mutation of this mount takes effect. The write is synchronous
// regardless of mode: directory-index blocks are delayed writes, and
// the marker reaching disk first is what licenses the next mount to
// distrust them after a crash. Called with fs.mu held exclusively.
func (fs *FS) markUnclean() error {
	if fs.dirtyMarked {
		return nil
	}
	b, err := fs.c.Read(0)
	if err != nil {
		return err
	}
	fs.sb.Dirty = true
	fs.sb.encode(b.Data)
	if err := fs.c.WriteSync(b); err != nil {
		b.Release()
		return err
	}
	b.Release()
	fs.dirtyMarked = true
	return nil
}

// markClean clears the unclean marker after everything else is on disk.
// Called with fs.mu held exclusively, after a full sync.
func (fs *FS) markClean() error {
	if !fs.dirtyMarked {
		return nil
	}
	b, err := fs.c.Read(0)
	if err != nil {
		return err
	}
	fs.sb.Dirty = false
	fs.sb.encode(b.Data)
	if err := fs.c.WriteSync(b); err != nil {
		b.Release()
		return err
	}
	b.Release()
	fs.dirtyMarked = false
	return nil
}

// writeSuper rewrites the cached superblock (delayed). It is a no-op
// unless a superblock field actually changed — a cold Sync must not pay
// a seek to block 0 for nothing.
func (fs *FS) writeSuper() error {
	if !fs.sbDirty {
		return nil
	}
	b, err := fs.c.Read(0)
	if err != nil {
		return err
	}
	defer b.Release()
	fs.sb.encode(b.Data)
	fs.c.MarkDirty(b)
	fs.sbDirty = false
	return nil
}

// Root implements vfs.FileSystem.
func (fs *FS) Root() vfs.Ino { return RootIno }

// Options returns the active configuration.
func (fs *FS) Options() Options { return fs.opts }

// Cache returns the buffer cache.
func (fs *FS) Cache() *cache.Cache { return fs.c }

// Device returns the block device.
func (fs *FS) Device() *blockio.Device { return fs.dev }

// sync implements Sync; the FS write lock is held.
func (fs *FS) sync() error {
	if err := fs.writeSuper(); err != nil {
		return err
	}
	return fs.c.Sync()
}

// flush implements Flush; the FS write lock is held.
func (fs *FS) flush() error {
	if err := fs.writeSuper(); err != nil {
		return err
	}
	return fs.c.Flush()
}

// syncMeta writes a metadata buffer through in ModeSync, or leaves it
// delayed in ModeDelayed.
func (fs *FS) syncMeta(b *cache.Buf) error {
	fs.c.MarkDirty(b)
	if fs.opts.Mode == ModeSync {
		return fs.c.WriteSync(b)
	}
	return nil
}

// attachMetrics wires Options.Metrics and Options.Recorder through
// every layer of this mount: op tracking at the vfs boundary, the
// mechanism counters, the cache and driver instruments, and the disk's
// per-op request sink (chained through the recorder when one is
// attached, so the recorder sees every stamped request).
func (fs *FS) attachMetrics(r *obs.Registry, rec obs.OpRecorder) {
	fs.trk = obs.NewOpTracker(r)
	if rec != nil {
		fs.trk.Observe(rec)
	}
	if r == nil && rec == nil {
		return
	}
	if r != nil {
		fs.mEmbHits = r.Counter("core.inode.embedded_hits")
		fs.mExtReads = r.Counter("core.inode.external_reads")
		fs.mGroupReads = r.Counter("core.groupread.reads")
		fs.mGroupBlocks = r.Counter("core.groupread.blocks")
		fs.mGroupPrefetch = r.Counter("core.groupread.prefetch_extents")
		fs.mIdxProbes = r.Counter("core.dirindex.probes")
		fs.mIdxRebuilds = r.Counter("core.dirindex.rebuilds")
		fs.c.SetMetrics(r)
		fs.dev.SetMetrics(r)
	}
	sink := obs.NewDiskSink(r)
	if rec != nil {
		sink = rec.DiskSink(sink)
	}
	fs.dev.Disk().SetOpSource(obs.CurrentOpRaw)
	fs.dev.Disk().SetMetricsFunc(sink)
}

// debugLoc reports where an inode's first data block and the inode
// itself live on disk; experiment diagnostics only.
func (fs *FS) debugLoc(ino vfs.Ino) (dataBlock, inodeBlock int64) {
	in, err := fs.getInode(ino)
	if err != nil {
		return -1, -1
	}
	b, _, err := fs.inodeBuf(ino)
	if err != nil {
		return int64(in.Direct[0]), -1
	}
	phys := b.Block
	b.Release()
	return int64(in.Direct[0]), phys
}
