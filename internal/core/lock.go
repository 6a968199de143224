package core

import (
	"cffs/internal/obs"
	"cffs/internal/vfs"
)

// Concurrency control for C-FFS.
//
// Every vfs.FileSystem method is a thin locking wrapper here over an
// unexported implementation; the implementations never call the public
// entry points (Rename removes an existing destination with unlink, not
// Unlink), so the lock is not re-entered.
//
// The lock hierarchy, outermost first:
//
//	FS lock (fs.mu)        reader/writer; readers are Lookup, ReadDir,
//	                       Stat, ReadAt, GroupOwner, FreeBlocks,
//	                       DebugLoc — everything that mutates no FS
//	                       state and no block contents. All other
//	                       operations are writers.
//	adaptMu                the group-read policy (fs.gr: controller state
//	                       and recency window), the one FS field
//	                       mutated on the (shared) read path.
//	idxMu                  the per-mount index-trust set (idxFresh),
//	                       read on the shared lookup path after an
//	                       unclean mount.
//	path-cache shard locks internal to pathcache.go: probed without
//	                       fs.mu, inserted into under fs.mu shared,
//	                       invalidated under fs.mu exclusive — never
//	                       held while acquiring anything above.
//	buffer cache locks     internal to internal/cache: shard → idMu →
//	                       stateMu.
//	device, disk, clock    internal to internal/blockio, internal/disk,
//	                       internal/sim.
//
// Locks are only ever taken downwards in this order, and disk I/O is
// issued below the cache's locks, so the hierarchy is deadlock-free.
//
// The write-behind daemon (fs.wb, internal/writeback) participates as
// an ordinary writer: each of its flush rounds takes fs.mu exclusively.
// Mutating entry points call fs.wb.Admit *before* fs.mu — a writer
// throttled at the hard dirty limit holds no locks while it waits, so
// the daemon can always acquire fs.mu and drain. Admit on a synchronous
// mount is a nil-receiver no-op.
//
// Why writer-exclusive at the FS level: cached block contents (Buf.Data)
// are shared byte slices, and every mutating operation — including
// delayed-write flushes forced by eviction — reads or writes them. The
// exclusive writer lock is what licenses those unguarded Data accesses.
// Read operations run concurrently with each other: cache hits
// parallelize fully, and misses serialize only at the (single-armed)
// simulated disk, which matches the hardware the model simulates. There
// is no per-directory tier: namespace operations are writers, so fs.mu
// already excludes them from each other and from every reader.

// Lookup implements vfs.FileSystem.
func (fs *FS) Lookup(dir vfs.Ino, name string) (vfs.Ino, error) {
	defer fs.trk.Begin(obs.OpLookup).End()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.lookup(dir, name)
}

// Create implements vfs.FileSystem.
func (fs *FS) Create(dir vfs.Ino, name string) (vfs.Ino, error) {
	defer fs.trk.Begin(obs.OpCreate).End()
	fs.wb.Admit()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.markUnclean(); err != nil {
		return 0, err
	}
	return fs.create(dir, name)
}

// Mkdir implements vfs.FileSystem.
func (fs *FS) Mkdir(dir vfs.Ino, name string) (vfs.Ino, error) {
	defer fs.trk.Begin(obs.OpMkdir).End()
	fs.wb.Admit()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.markUnclean(); err != nil {
		return 0, err
	}
	return fs.mkdir(dir, name)
}

// Link implements vfs.FileSystem.
func (fs *FS) Link(dir vfs.Ino, name string, target vfs.Ino) error {
	defer fs.trk.Begin(obs.OpLink).End()
	fs.wb.Admit()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.markUnclean(); err != nil {
		return err
	}
	retired, err := fs.link(dir, name, target)
	fs.pc.invalidate(retired)
	return err
}

// Unlink implements vfs.FileSystem.
func (fs *FS) Unlink(dir vfs.Ino, name string) error {
	defer fs.trk.Begin(obs.OpUnlink).End()
	fs.wb.Admit()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.markUnclean(); err != nil {
		return err
	}
	victim, err := fs.unlink(dir, name)
	fs.pc.invalidate(victim)
	return err
}

// Rmdir implements vfs.FileSystem.
func (fs *FS) Rmdir(dir vfs.Ino, name string) error {
	defer fs.trk.Begin(obs.OpRmdir).End()
	fs.wb.Admit()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.markUnclean(); err != nil {
		return err
	}
	victim, err := fs.rmdir(dir, name)
	fs.pc.invalidate(victim)
	return err
}

// Rename implements vfs.FileSystem. Invalidation by the moved entry's
// ino is also the prefix invalidation: every cached path that resolved
// through a moved directory carried its ino in its chain.
func (fs *FS) Rename(sdir vfs.Ino, sname string, ddir vfs.Ino, dname string) error {
	defer fs.trk.Begin(obs.OpRename).End()
	fs.wb.Admit()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.markUnclean(); err != nil {
		return err
	}
	moved, replaced, err := fs.rename(sdir, sname, ddir, dname)
	fs.pc.invalidate(moved)
	fs.pc.invalidate(replaced)
	return err
}

// ReadDir implements vfs.FileSystem.
func (fs *FS) ReadDir(dir vfs.Ino) ([]vfs.DirEntry, error) {
	defer fs.trk.Begin(obs.OpReadDir).End()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.readDir(dir)
}

// Stat implements vfs.FileSystem.
func (fs *FS) Stat(ino vfs.Ino) (vfs.Stat, error) {
	defer fs.trk.Begin(obs.OpStat).End()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.stat(ino)
}

// Truncate implements vfs.FileSystem.
func (fs *FS) Truncate(ino vfs.Ino, size int64) error {
	defer fs.trk.Begin(obs.OpTruncate).End()
	fs.wb.Admit()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.markUnclean(); err != nil {
		return err
	}
	return fs.truncateTo(ino, size)
}

// ReadAt implements vfs.FileSystem.
func (fs *FS) ReadAt(ino vfs.Ino, p []byte, off int64) (int, error) {
	defer fs.trk.Begin(obs.OpReadAt).End()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.readAt(ino, p, off)
}

// WriteAt implements vfs.FileSystem.
func (fs *FS) WriteAt(ino vfs.Ino, p []byte, off int64) (int, error) {
	defer fs.trk.Begin(obs.OpWriteAt).End()
	fs.wb.Admit()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.markUnclean(); err != nil {
		return 0, err
	}
	return fs.writeAt(ino, p, off)
}

// Sync implements vfs.FileSystem.
func (fs *FS) Sync() error {
	defer fs.trk.Begin(obs.OpSync).End()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.sync()
}

// Flush implements vfs.Flusher.
func (fs *FS) Flush() error {
	defer fs.trk.Begin(obs.OpFlush).End()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.flush()
}

// Close implements vfs.FileSystem. The write-behind daemon is stopped
// first (releasing any throttled writers), then the final sync drains
// everything it had not yet written; only after that full sync is the
// superblock's unclean marker cleared, so a crash anywhere before the
// marker write leaves the image marked dirty (and its directory
// indexes distrusted) — never the other way around.
func (fs *FS) Close() error {
	fs.wb.Close()
	defer fs.trk.Begin(obs.OpSync).End()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.sync(); err != nil {
		return err
	}
	return fs.markClean()
}

// FreeBlocks counts free blocks (tests and df-style tools).
func (fs *FS) FreeBlocks() (int64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.countFree()
}

// GroupWith sets dir as the grouping owner of file; see groupWith for
// the full contract.
func (fs *FS) GroupWith(file, dir vfs.Ino) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.markUnclean(); err != nil {
		return err
	}
	return fs.groupWith(file, dir)
}

// GroupOwner reports the current grouping owner of a file and whether
// any of its blocks are placed in one of the owner's groups.
func (fs *FS) GroupOwner(file vfs.Ino) (vfs.Ino, bool, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.groupOwner(file)
}

// DebugLoc reports where an inode's first data block and the inode
// itself live on disk; experiment diagnostics only.
func (fs *FS) DebugLoc(ino vfs.Ino) (dataBlock, inodeBlock int64) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.debugLoc(ino)
}

// Root, Options, Cache, and Device are immutable after mount and need no
// lock; they are declared in core.go.
