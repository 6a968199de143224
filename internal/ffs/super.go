// Package ffs implements the conventional baseline: a McKusick-style
// fast file system with cylinder groups, statically allocated inode
// tables, allocation bitmaps, and FFS placement policy (inodes near
// their directory, data near its inode — locality, but no adjacency).
//
// It exists so the paper's comparison has a genuinely independent
// conventional implementation: the C-FFS package can also be configured
// with both techniques off, and the two are cross-checked in tests.
package ffs

import (
	"cffs/internal/bmap"
	"encoding/binary"
	"fmt"

	"cffs/internal/blockio"
	"cffs/internal/cache"
	"cffs/internal/layout"
	"cffs/internal/obs"
	"cffs/internal/sim"
	"cffs/internal/vfs"
	"cffs/internal/writeback"
)

// Magic identifies an FFS superblock.
const Magic = 0x0019_9701

// Mode selects the metadata integrity strategy.
type Mode int

const (
	// ModeSync orders create/delete metadata with synchronous writes,
	// like 1990s FFS. This is the paper's default configuration.
	ModeSync Mode = iota
	// ModeDelayed uses delayed writes for all metadata, emulating soft
	// updates the same way the paper's Figure 6 does.
	ModeDelayed
)

func (m Mode) String() string {
	if m == ModeSync {
		return "sync"
	}
	return "delayed"
}

// Options configures mkfs/mount.
type Options struct {
	Mode        Mode
	CacheBlocks int // buffer cache capacity; default 2048 (8 MB)
	CGBlocks    int // blocks per cylinder group; default 2048 (8 MB)
	InodesPerCG int // static inodes per group; default 512
	// Metrics, when non-nil, instruments the mount with the same
	// registry wiring as C-FFS, so experiment tables carry comparable
	// per-op request counts for the baseline.
	Metrics *obs.Registry
	// Recorder, when non-nil, attaches a flight recorder to the mount;
	// same wiring as C-FFS, so slow-op capture works on the baseline too.
	Recorder obs.OpRecorder
	// Writeback configures the write-behind daemon with the same policy
	// knobs as C-FFS, for comparable async-mount measurements. FFS is
	// single-threaded, so the daemon always runs inline: flushes borrow
	// the operation thread at the same admission points.
	Writeback writeback.Config
}

func (o *Options) fill() error {
	if o.CacheBlocks == 0 {
		o.CacheBlocks = 2048
	}
	if o.CGBlocks == 0 {
		o.CGBlocks = 2048
	}
	if o.InodesPerCG == 0 {
		o.InodesPerCG = 512
	}
	if o.CGBlocks < 64 || o.CGBlocks > 16384 {
		return fmt.Errorf("ffs: CGBlocks %d outside [64,16384]", o.CGBlocks)
	}
	if o.InodesPerCG < layout.InodesPerBlock || o.InodesPerCG > 2048 ||
		o.InodesPerCG%layout.InodesPerBlock != 0 {
		return fmt.Errorf("ffs: InodesPerCG %d invalid", o.InodesPerCG)
	}
	if o.InodesPerCG/layout.InodesPerBlock+1 >= o.CGBlocks/2 {
		return fmt.Errorf("ffs: inode table would consume half the group")
	}
	return nil
}

// super is the on-disk superblock (block 0).
type super struct {
	NBlocks     int64
	CGBlocks    int
	NCG         int
	InodesPerCG int
}

func (s *super) inodeBlocksPerCG() int { return s.InodesPerCG / layout.InodesPerBlock }
func (s *super) cgStart(cg int) int64  { return 1 + int64(cg)*int64(s.CGBlocks) }
func (s *super) dataStart(cg int) int64 {
	return s.cgStart(cg) + 1 + int64(s.inodeBlocksPerCG())
}

func (s *super) encode(p []byte) {
	le := binary.LittleEndian
	le.PutUint32(p[0:], Magic)
	le.PutUint64(p[8:], uint64(s.NBlocks))
	le.PutUint32(p[16:], uint32(s.CGBlocks))
	le.PutUint32(p[20:], uint32(s.NCG))
	le.PutUint32(p[24:], uint32(s.InodesPerCG))
}

func (s *super) decode(p []byte) error {
	le := binary.LittleEndian
	if le.Uint32(p[0:]) != Magic {
		return fmt.Errorf("ffs: bad superblock magic %#x", le.Uint32(p[0:]))
	}
	s.NBlocks = int64(le.Uint64(p[8:]))
	s.CGBlocks = int(le.Uint32(p[16:]))
	s.NCG = int(le.Uint32(p[20:]))
	s.InodesPerCG = int(le.Uint32(p[24:]))
	return nil
}

// Cylinder-group header block layout: block bitmap at cgBmapOff, inode
// bitmap after it.
const cgBmapOff = 64

// FS is the mounted file system.
type FS struct {
	dev  *blockio.Device
	c    *cache.Cache
	clk  *sim.Clock
	sb   super
	opts Options

	tree *bmap.Tree // block mapping over allocBlock/freeBlock (inode.go)

	dirRotor int // next cylinder group for a new directory

	trk *obs.OpTracker // op attribution; disabled when Options.Metrics is nil

	wb *writeback.Daemon // inline write-behind; nil on synchronous mounts
}

// startWriteback attaches the (inline) write-behind daemon after the
// cache exists. ffs has no FS-level lock, so a background flusher would
// race the single-threaded operation stream; Inline is forced.
func (fs *FS) startWriteback() {
	cfg := fs.opts.Writeback
	cfg.Inline = true
	fs.wb = writeback.Start(fs.c, fs.clk, nil, cfg, fs.opts.Metrics)
}

// attachMetrics wires Options.Metrics and Options.Recorder through the
// mount, mirroring the C-FFS wiring so the two report comparable
// instruments.
func (fs *FS) attachMetrics(r *obs.Registry, rec obs.OpRecorder) {
	fs.trk = obs.NewOpTracker(r)
	if rec != nil {
		fs.trk.Observe(rec)
	}
	if r == nil && rec == nil {
		return
	}
	if r != nil {
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

var _ vfs.FileSystem = (*FS)(nil)
var _ vfs.Flusher = (*FS)(nil)

// Mkfs initializes an FFS on the device and returns it mounted.
func Mkfs(dev *blockio.Device, opts Options) (*FS, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	nblocks := dev.Blocks()
	ncg := int((nblocks - 1) / int64(opts.CGBlocks))
	if ncg < 1 {
		return nil, fmt.Errorf("ffs: device of %d blocks too small for one %d-block group", nblocks, opts.CGBlocks)
	}
	fs := &FS{
		dev:  dev,
		c:    cache.New(dev, opts.CacheBlocks),
		clk:  dev.Disk().Clock(),
		opts: opts,
		sb: super{
			NBlocks:     nblocks,
			CGBlocks:    opts.CGBlocks,
			NCG:         ncg,
			InodesPerCG: opts.InodesPerCG,
		},
	}
	fs.tree = fs.newTree()
	fs.attachMetrics(opts.Metrics, opts.Recorder)
	// Superblock.
	sb, err := fs.c.Alloc(0)
	if err != nil {
		return nil, err
	}
	fs.sb.encode(sb.Data)
	fs.c.MarkDirty(sb)
	sb.Release()
	// Cylinder group headers: mark the header and inode-table blocks as
	// allocated; clear the rest.
	reserved := 1 + fs.sb.inodeBlocksPerCG()
	for cg := 0; cg < ncg; cg++ {
		hdr, err := fs.c.Alloc(fs.sb.cgStart(cg))
		if err != nil {
			return nil, err
		}
		bm := fs.blockBitmap(hdr)
		for i := 0; i < reserved; i++ {
			bm.Set(i)
		}
		fs.c.MarkDirty(hdr)
		hdr.Release()
	}
	// Root directory: inode 1 in cylinder group 0.
	rootIno, err := fs.allocInode(0)
	if err != nil {
		return nil, err
	}
	if rootIno != RootIno {
		return nil, fmt.Errorf("ffs: root allocated ino %d, want %d", rootIno, RootIno)
	}
	now := fs.clk.Now()
	root := layout.Inode{Type: vfs.TypeDir, Nlink: 2, Mtime: now}
	if err := fs.initDirData(&root, rootIno, rootIno); err != nil {
		return nil, err
	}
	if err := fs.putInode(rootIno, &root, false); err != nil {
		return nil, err
	}
	if err := fs.c.Sync(); err != nil {
		return nil, err
	}
	fs.startWriteback()
	return fs, nil
}

// Mount opens an existing FFS.
func Mount(dev *blockio.Device, opts Options) (*FS, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	fs := &FS{
		dev:  dev,
		c:    cache.New(dev, opts.CacheBlocks),
		clk:  dev.Disk().Clock(),
		opts: opts,
	}
	fs.tree = fs.newTree()
	fs.attachMetrics(opts.Metrics, opts.Recorder)
	sb, err := fs.c.Read(0)
	if err != nil {
		return nil, err
	}
	defer sb.Release()
	if err := fs.sb.decode(sb.Data); err != nil {
		return nil, err
	}
	fs.startWriteback()
	return fs, nil
}

// RootIno is the root directory's inode number.
const RootIno vfs.Ino = 1

// Root implements vfs.FileSystem.
func (fs *FS) Root() vfs.Ino { return RootIno }

// Mode returns the metadata integrity mode.
func (fs *FS) Mode() Mode { return fs.opts.Mode }

// Cache returns the buffer cache (benchmarks inspect its stats).
func (fs *FS) Cache() *cache.Cache { return fs.c }

// Device returns the block device.
func (fs *FS) Device() *blockio.Device { return fs.dev }

// Sync implements vfs.FileSystem.
func (fs *FS) Sync() error {
	defer fs.trk.Begin(obs.OpSync).End()
	return fs.c.Sync()
}

// Flush implements vfs.Flusher: write everything back and empty the
// cache, so the next access pattern starts cold.
func (fs *FS) Flush() error {
	defer fs.trk.Begin(obs.OpFlush).End()
	return fs.c.Flush()
}

// Close implements vfs.FileSystem.
func (fs *FS) Close() error {
	fs.wb.Close()
	return fs.c.Sync()
}

// syncMeta writes a metadata buffer through immediately in ModeSync and
// leaves it delayed in ModeDelayed. It is the single point where the two
// integrity strategies differ.
func (fs *FS) syncMeta(b *cache.Buf) error {
	fs.c.MarkDirty(b)
	if fs.opts.Mode == ModeSync {
		return fs.c.WriteSync(b)
	}
	return nil
}
