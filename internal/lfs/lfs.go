// Package lfs implements a log-structured file system in the style of
// Sprite LFS [Rosenblum92] — the design the paper positions itself
// against: "delay, remap and cluster all modified blocks, only writing
// large chunks to the disk ... the design is based on the assumption
// that file caches will absorb all read activity".
//
// It exists so the comparison the paper argues qualitatively can be
// measured here: LFS matches or beats C-FFS on write-dominated phases
// (everything leaves as sequential segment writes) but its read
// performance depends on the read order matching the write order, and
// it pays a cleaner.
//
// The implementation is a deliberately compact LFS:
//
//   - all writes append to the current segment (data blocks get their
//     log address when written; inodes, inode-map blocks, and the
//     checkpoint follow at Sync, as in Sprite's segment writes);
//   - the inode map (ino -> inode location) is itself logged; the
//     checkpoint block at a fixed address anchors it;
//   - a greedy cleaner copies live blocks out of low-utilization
//     segments when free segments run out;
//   - crash recovery rolls back to the last checkpoint (no roll-forward).
//
// Metadata ordering modes do not apply: LFS is delayed-write by nature.
package lfs

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

// Magic identifies an LFS checkpoint block.
const Magic = 0x1F5_9201

const (
	// SegBlocks is the segment size: 128 blocks = 512 KB, in Sprite's
	// range.
	SegBlocks = 128

	// imapBlocks bounds the inode map: 64 blocks x 1024 entries.
	imapBlocks = 64

	// InosPerImapBlock inode locations per inode-map block.
	inosPerImapBlock = blockio.BlockSize / 4

	// MaxInodes is the inode-map capacity.
	MaxInodes = imapBlocks * inosPerImapBlock

	// reservedBlocks at the front of the disk hold the checkpoint.
	reservedBlocks = 1

	// cleanReserve is the number of segments the allocator keeps free;
	// dropping below it triggers the cleaner.
	cleanReserve = 3
)

// Options configures mkfs/mount.
type Options struct {
	CacheBlocks int // buffer cache capacity; default 2048
	// Metrics, when non-nil, instruments the mount with the same
	// registry wiring as C-FFS and FFS, so every comparison carries
	// per-op request counts.
	Metrics *obs.Registry
	// Recorder, when non-nil, attaches a flight recorder to the mount;
	// same wiring as C-FFS and FFS.
	Recorder obs.OpRecorder
	// Writeback configures the write-behind daemon, always inline (lfs
	// is single-threaded). Dirty log blocks already carry their final
	// log addresses, so early write-back streams them to the log tail;
	// durability is unchanged — the checkpoint still lands only at Sync,
	// and a crash before it rolls back regardless of what was flushed.
	Writeback writeback.Config
}

func (o *Options) fill() {
	if o.CacheBlocks == 0 {
		o.CacheBlocks = 2048
	}
}

// owner records who a live log block belongs to, so the cleaner can
// repoint its reference when it moves the block (the role of Sprite's
// segment summary blocks, kept in memory and rebuilt at mount).
type owner struct {
	ino  vfs.Ino
	kind ownerKind
	idx  int64 // data: file block index; indir2: slot in DIndir
}

type ownerKind uint8

const (
	ownData ownerKind = iota
	ownIndir1
	ownIndir2 // second-level indirect block; idx = slot in DIndir
	ownDIndir
	ownInodeBlock // a logged block of inodes; idx = inode-block seq
	ownImapBlock  // a logged inode-map block; idx = imap block number
)

// FS is a mounted log-structured file system.
type FS struct {
	dev  *blockio.Device
	c    *cache.Cache
	clk  *sim.Clock
	opts Options

	nsegs    int
	segStart int64 // first block of segment 0

	// Log head.
	curSeg int
	curOff int

	// Per-segment live-block counts and the reverse map.
	usage  []int
	owners map[int64]owner // log block -> owner

	// emptied marks segments whose last live block died during this
	// mount. Sync discards them once its checkpoint is durable
	// (discardEmptied).
	emptied []bool

	// The inode map and in-memory inode cache. imap[idx] is the log
	// address of the inode's current on-disk copy (0 = never flushed).
	imap      []uint32
	imapHome  [imapBlocks]uint32 // log address of each imap block's copy
	imapDirty [imapBlocks]bool
	inodes    map[vfs.Ino]*layout.Inode
	dirty     map[vfs.Ino]bool
	inoRefs   map[int64]int // logged inode block -> live inode count
	free      []vfs.Ino     // free inode numbers

	// tree resolves file blocks and frees them on truncate. Writers do
	// not map through it: updateFileBlock remaps a block to the log head
	// on every write, which is the layout, so only the tree's read side
	// and its free loop are shared with the update-in-place layouts.
	tree *bmap.Tree

	cleaning bool // reentrancy guard for the cleaner

	trk *obs.OpTracker // op attribution; disabled when Options.Metrics is nil

	wb *writeback.Daemon // inline write-behind; nil on synchronous mounts
}

var _ vfs.FileSystem = (*FS)(nil)
var _ vfs.Flusher = (*FS)(nil)

// RootIno is the root directory's inode number.
const RootIno vfs.Ino = 1

// Mkfs initializes an LFS on the device and returns it mounted.
func Mkfs(dev *blockio.Device, opts Options) (*FS, error) {
	opts.fill()
	fs := newFS(dev, opts)
	if fs.nsegs < cleanReserve+2 {
		return nil, fmt.Errorf("lfs: device too small for %d segments", fs.nsegs)
	}
	ino, err := fs.allocIno()
	if err != nil {
		return nil, err
	}
	if ino != RootIno {
		return nil, fmt.Errorf("lfs: root allocated ino %d", ino)
	}
	root := &layout.Inode{Type: vfs.TypeDir, Nlink: 2, Mtime: fs.clk.Now()}
	fs.inodes[RootIno] = root
	fs.dirty[RootIno] = true
	if err := fs.initDirData(root, RootIno, RootIno); err != nil {
		return nil, err
	}
	return fs, fs.Sync()
}

func newFS(dev *blockio.Device, opts Options) *FS {
	segStart := int64(reservedBlocks)
	nsegs := int((dev.Blocks() - segStart) / SegBlocks)
	fs := &FS{
		dev:      dev,
		c:        cache.New(dev, opts.CacheBlocks),
		clk:      dev.Disk().Clock(),
		opts:     opts,
		nsegs:    nsegs,
		segStart: segStart,
		usage:    make([]int, nsegs),
		emptied:  make([]bool, nsegs),
		owners:   make(map[int64]owner),
		imap:     make([]uint32, MaxInodes),
		inodes:   make(map[vfs.Ino]*layout.Inode),
		dirty:    make(map[vfs.Ino]bool),
		inoRefs:  make(map[int64]int),
	}
	// Freed blocks are not discarded one by one: a dead block stays
	// reachable from the durable checkpoint until the next one lands
	// (discardEmptied), so Free leaves the truncate's discard run empty.
	fs.tree = bmap.New(fs.c, bmap.Alloc{Free: func(addr int64, _ *blockio.DiscardRun) error {
		fs.dead(addr)
		return nil
	}})
	for ino := vfs.Ino(MaxInodes); ino >= 1; ino-- {
		fs.free = append(fs.free, ino)
	}
	fs.trk = obs.NewOpTracker(opts.Metrics)
	if opts.Recorder != nil {
		fs.trk.Observe(opts.Recorder)
	}
	if opts.Metrics != nil {
		fs.c.SetMetrics(opts.Metrics)
		dev.SetMetrics(opts.Metrics)
	}
	if opts.Metrics != nil || opts.Recorder != nil {
		sink := obs.NewDiskSink(opts.Metrics)
		if opts.Recorder != nil {
			sink = opts.Recorder.DiskSink(sink)
		}
		dev.Disk().SetOpSource(obs.CurrentOpRaw)
		dev.Disk().SetMetricsFunc(sink)
	}
	cfg := opts.Writeback
	cfg.Inline = true // lfs is single-threaded; flushes borrow the op thread
	fs.wb = writeback.Start(fs.c, fs.clk, nil, cfg, opts.Metrics)
	return fs
}

// Mount opens an existing LFS from its checkpoint and rebuilds the
// in-memory segment usage and reverse map by walking the namespace.
func Mount(dev *blockio.Device, opts Options) (*FS, error) {
	opts.fill()
	fs := newFS(dev, opts)
	cp, err := fs.c.Read(0)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	if le.Uint32(cp.Data[0:]) != Magic {
		cp.Release()
		return nil, fmt.Errorf("lfs: bad checkpoint magic %#x", le.Uint32(cp.Data[0:]))
	}
	fs.curSeg = int(le.Uint32(cp.Data[4:]))
	fs.curOff = int(le.Uint32(cp.Data[8:]))
	for i := 0; i < imapBlocks; i++ {
		fs.imapHome[i] = le.Uint32(cp.Data[16+i*4:])
	}
	cp.Release()
	// Load the inode map.
	for i := 0; i < imapBlocks; i++ {
		home := fs.imapHome[i]
		if home == 0 {
			continue
		}
		b, err := fs.c.Read(int64(home))
		if err != nil {
			return nil, err
		}
		for s := 0; s < inosPerImapBlock; s++ {
			fs.imap[i*inosPerImapBlock+s] = binary.LittleEndian.Uint32(b.Data[s*4:])
		}
		b.Release()
		fs.account(int64(home), owner{kind: ownImapBlock, idx: int64(i)})
	}
	if err := fs.rebuild(); err != nil {
		return nil, err
	}
	return fs, nil
}

// rebuild reconstructs segment usage, the reverse map, and the free
// inode list from the inode map (the mount-time walk that substitutes
// for segment summaries).
func (fs *FS) rebuild() error {
	fs.free = fs.free[:0]
	for idx := MaxInodes - 1; idx >= 0; idx-- {
		ino := vfs.Ino(idx + 1)
		if fs.imap[idx] == 0 {
			fs.free = append(fs.free, ino)
			continue
		}
		in, err := fs.loadInode(ino)
		if err != nil {
			return err
		}
		if !in.Alive() {
			fs.imap[idx] = 0
			fs.free = append(fs.free, ino)
			continue
		}
		if err := fs.accountInode(ino, in); err != nil {
			return err
		}
	}
	return nil
}

// accountInode claims every log block reachable from an inode.
func (fs *FS) accountInode(ino vfs.Ino, in *layout.Inode) error {
	nblocks := (in.Size + blockio.BlockSize - 1) / blockio.BlockSize
	for lb := int64(0); lb < nblocks; lb++ {
		addr, err := fs.tree.Resolve(in, lb)
		if err != nil {
			return err
		}
		if addr != 0 {
			fs.account(addr, owner{ino: ino, kind: ownData, idx: lb})
		}
	}
	if in.Indir != 0 {
		fs.account(int64(in.Indir), owner{ino: ino, kind: ownIndir1})
	}
	if in.DIndir != 0 {
		fs.account(int64(in.DIndir), owner{ino: ino, kind: ownDIndir})
		db, err := fs.c.Read(int64(in.DIndir))
		if err != nil {
			return err
		}
		for s := 0; s < layout.PtrsPerBlock; s++ {
			if p := binary.LittleEndian.Uint32(db.Data[s*4:]); p != 0 {
				fs.account(int64(p), owner{ino: ino, kind: ownIndir2, idx: int64(s)})
			}
		}
		db.Release()
	}
	// The inode's own on-disk block.
	if e := fs.imap[int(ino)-1]; e != 0 {
		home, _ := imapAddr(e)
		if _, ok := fs.owners[home]; !ok {
			fs.account(home, owner{kind: ownInodeBlock})
		}
		fs.inoRefs[home]++
	}
	return nil
}

// Root implements vfs.FileSystem.
func (fs *FS) Root() vfs.Ino { return RootIno }

// Device returns the block device (stats, clock).
func (fs *FS) Device() *blockio.Device { return fs.dev }

// Cache returns the buffer cache.
func (fs *FS) Cache() *cache.Cache { return fs.c }

// Sync implements vfs.FileSystem: flush data, then logged inodes, then
// the inode map, then the checkpoint — one forward pass of segment
// writes plus a checkpoint write, the LFS discipline.
func (fs *FS) Sync() error {
	defer fs.trk.Begin(obs.OpSync).End()
	// 1. Data blocks (addresses were assigned at write time, in log
	// order, so the scheduler merges them into large sequential writes).
	if err := fs.c.Sync(); err != nil {
		return err
	}
	// 2. Dirty inodes, packed into logged inode blocks.
	if err := fs.flushInodes(); err != nil {
		return err
	}
	// 3. Dirty imap blocks.
	if err := fs.flushImap(); err != nil {
		return err
	}
	if err := fs.c.Sync(); err != nil {
		return err
	}
	// 4. Checkpoint.
	if err := fs.writeCheckpoint(); err != nil {
		return err
	}
	return fs.discardEmptied()
}

// Flush implements vfs.Flusher.
func (fs *FS) Flush() error {
	defer fs.trk.Begin(obs.OpFlush).End()
	if err := fs.Sync(); err != nil {
		return err
	}
	return fs.c.Flush()
}

// Close implements vfs.FileSystem.
func (fs *FS) Close() error {
	fs.wb.Close()
	return fs.Sync()
}

// writeCheckpoint persists the log head and imap locations.
func (fs *FS) writeCheckpoint() error {
	cp, err := fs.c.Alloc(0)
	if err != nil {
		return err
	}
	le := binary.LittleEndian
	le.PutUint32(cp.Data[0:], Magic)
	le.PutUint32(cp.Data[4:], uint32(fs.curSeg))
	le.PutUint32(cp.Data[8:], uint32(fs.curOff))
	for i := 0; i < imapBlocks; i++ {
		le.PutUint32(cp.Data[16+i*4:], fs.imapHome[i])
	}
	err = fs.c.WriteSync(cp)
	cp.Release()
	return err
}
