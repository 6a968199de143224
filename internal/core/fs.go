package core

import (
	"fmt"

	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// Namespace operations. With embedded inodes, a create or delete of a
// single-link regular file touches exactly one metadata block — the
// directory block holding both the name and the inode — so ModeSync pays
// one ordered write where the conventional scheme pays two.

// lookup implements Lookup; the FS lock is held.
func (fs *FS) lookup(dir vfs.Ino, name string) (vfs.Ino, error) {
	din, err := fs.dirInode(dir)
	if err != nil {
		return 0, err
	}
	b, e, err := fs.dirLookup(&din, dir, name)
	if err != nil {
		return 0, err
	}
	b.Release()
	return e.ino(), nil
}

// dirInode fetches an inode and checks it is a directory.
func (fs *FS) dirInode(dir vfs.Ino) (layout.Inode, error) {
	din, err := fs.getLiveInode(dir)
	if err != nil {
		return din, err
	}
	if din.Type != vfs.TypeDir {
		return din, fmt.Errorf("cffs: inode %#x: %w", uint64(dir), vfs.ErrNotDir)
	}
	return din, nil
}

// parentDir reports what a directory's ".." names, from its inode.
func (fs *FS) parentDir(dir vfs.Ino) (vfs.Ino, error) {
	din, err := fs.dirInode(dir)
	return vfs.Ino(din.Parent), err
}

// create implements Create; the FS write lock is held.
func (fs *FS) create(dir vfs.Ino, name string) (vfs.Ino, error) {
	if err := vfs.CheckName(name); err != nil {
		return 0, err
	}
	din, err := fs.dirInode(dir)
	if err != nil {
		return 0, err
	}
	now := fs.clk.Now()
	in := layout.Inode{Type: vfs.TypeReg, Nlink: 1, Mtime: now, Parent: uint32(dir)}

	if fs.opts.EmbedInodes {
		// One pass finds the slot and proves the name free; then one
		// ordered write lands name and inode together.
		b, slot, err := fs.dirPrepareCreate(&din, dir, name)
		if err != nil {
			return 0, err
		}
		writeSlotEmbedded(b.Data, slot.slot*slotSize, name, &in)
		if err := fs.syncMeta(b); err != nil {
			b.Release()
			return 0, err
		}
		b.Release()
		if err := fs.idxInsert(&din, dir, name, idxLoc(slot.block, slot.slot)); err != nil {
			return 0, err
		}
		din.Mtime = now
		if err := fs.putInode(dir, &din, false); err != nil {
			return 0, err
		}
		return embedIno(slot.block, slot.slot), nil
	}

	// Conventional two ordered writes: inode first, then the name.
	b, slot, err := fs.dirPrepareCreate(&din, dir, name)
	if err != nil {
		return 0, err
	}
	idx, err := fs.allocExtInode(fs.homeAG(&din, dir))
	if err != nil {
		b.Release()
		return 0, err
	}
	ino := vfs.Ino(idx + 1)
	if err := fs.putInode(ino, &in, true); err != nil {
		b.Release()
		return 0, err
	}
	writeSlotExternal(b.Data, slot.slot*slotSize, name, ino, vfs.TypeReg)
	if err := fs.syncMeta(b); err != nil {
		b.Release()
		return 0, err
	}
	b.Release()
	if err := fs.idxInsert(&din, dir, name, idxLoc(slot.block, slot.slot)); err != nil {
		return 0, err
	}
	din.Mtime = now
	return ino, fs.putInode(dir, &din, false)
}

// mkdir implements Mkdir; the FS write lock is held. Directory inodes are always external
// (they are pointed to by "." and ".." and may be multiply referenced).
func (fs *FS) mkdir(dir vfs.Ino, name string) (vfs.Ino, error) {
	if err := vfs.CheckName(name); err != nil {
		return 0, err
	}
	din, err := fs.dirInode(dir)
	if err != nil {
		return 0, err
	}
	b, slot, err := fs.dirPrepareCreate(&din, dir, name)
	if err != nil {
		return 0, err
	}
	idx, err := fs.allocExtInode(fs.pickDirAG())
	if err != nil {
		b.Release()
		return 0, err
	}
	ino := vfs.Ino(idx + 1)
	now := fs.clk.Now()
	in := layout.Inode{Type: vfs.TypeDir, Nlink: 2, Mtime: now, Parent: uint32(dir)}
	if err := fs.initDirData(&in, ino, dir); err != nil {
		b.Release()
		return 0, err
	}
	if fs.opts.Mode == ModeSync {
		// Child block before child inode before parent entry.
		phys, err := fs.tree.Resolve(&in, 0)
		if err != nil {
			b.Release()
			return 0, err
		}
		cb, err := fs.c.Read(phys)
		if err != nil {
			b.Release()
			return 0, err
		}
		if err := fs.c.WriteSync(cb); err != nil {
			cb.Release()
			b.Release()
			return 0, err
		}
		cb.Release()
	}
	if err := fs.putInode(ino, &in, true); err != nil {
		b.Release()
		return 0, err
	}
	writeSlotExternal(b.Data, slot.slot*slotSize, name, ino, vfs.TypeDir)
	if err := fs.syncMeta(b); err != nil {
		b.Release()
		return 0, err
	}
	b.Release()
	if err := fs.idxInsert(&din, dir, name, idxLoc(slot.block, slot.slot)); err != nil {
		return 0, err
	}
	din.Nlink++
	din.Mtime = now
	return ino, fs.putInode(dir, &din, false)
}

// externalize moves an embedded inode into the inode file, rewriting its
// directory entry as an external reference. Multi-link files need a
// location-independent inode; this is the paper's escape hatch.
func (fs *FS) externalize(old vfs.Ino) (vfs.Ino, error) {
	in, err := fs.getLiveInode(old)
	if err != nil {
		return 0, err
	}
	block, slot := embedLoc(old)
	b, err := fs.c.Read(block)
	if err != nil {
		return 0, err
	}
	// The name outlives this pin (the entry is rewritten below, after
	// the external copy is durable), so it is copied out of the block.
	name := string(slotName(b.Data, slot*slotSize))
	b.Release()

	idx, err := fs.allocExtInode(int(mix64(uint64(in.Parent)) % uint64(fs.sb.NAG)))
	if err != nil {
		return 0, err
	}
	ino := vfs.Ino(idx + 1)
	// External copy reaches disk before the entry stops embedding it.
	if err := fs.putInode(ino, &in, true); err != nil {
		return 0, err
	}
	b, err = fs.c.Read(block)
	if err != nil {
		return 0, err
	}
	writeSlotExternal(b.Data, slot*slotSize, name, ino, in.Type)
	if err := fs.syncMeta(b); err != nil {
		b.Release()
		return 0, err
	}
	b.Release()
	return ino, nil
}

// link implements Link; the FS write lock is held. When the target was
// embedded it is externalized and its ino changes; the retired embedded
// ino is returned so the caller can invalidate cached paths to it.
func (fs *FS) link(dir vfs.Ino, name string, target vfs.Ino) (retired vfs.Ino, err error) {
	if err := vfs.CheckName(name); err != nil {
		return 0, err
	}
	din, err := fs.dirInode(dir)
	if err != nil {
		return 0, err
	}
	tin, err := fs.getLiveInode(target)
	if err != nil {
		return 0, err
	}
	if tin.Type == vfs.TypeDir {
		return 0, vfs.ErrIsDir
	}
	// One pass proves the name free and pins its future slot. The slot
	// stays valid across externalize below: that rewrites the target's
	// own entry in place and never moves or fills other slots.
	b, slot, err := fs.dirPrepareCreate(&din, dir, name)
	if err != nil {
		return 0, err
	}
	if isEmbedded(target) {
		retired = target
		target, err = fs.externalize(target)
		if err != nil {
			b.Release()
			return 0, err
		}
		tin, err = fs.getLiveInode(target)
		if err != nil {
			b.Release()
			return 0, err
		}
	}
	tin.Nlink++
	if err := fs.putInode(target, &tin, true); err != nil {
		b.Release()
		return 0, err
	}
	writeSlotExternal(b.Data, slot.slot*slotSize, name, target, vfs.TypeReg)
	if err := fs.syncMeta(b); err != nil {
		b.Release()
		return 0, err
	}
	b.Release()
	if err := fs.idxInsert(&din, dir, name, idxLoc(slot.block, slot.slot)); err != nil {
		return 0, err
	}
	din.Mtime = fs.clk.Now()
	return retired, fs.putInode(dir, &din, false)
}

// unlink implements Unlink; the FS write lock is held. It returns the
// ino the removed entry referenced (which may still be alive through
// other links) for path-cache invalidation.
func (fs *FS) unlink(dir vfs.Ino, name string) (vfs.Ino, error) {
	if name == "." || name == ".." {
		return 0, vfs.ErrInvalid
	}
	din, err := fs.dirInode(dir)
	if err != nil {
		return 0, err
	}
	b, e, err := fs.dirLookup(&din, dir, name)
	if err != nil {
		return 0, err
	}
	if e.ftype == vfs.TypeDir {
		b.Release()
		return 0, vfs.ErrIsDir
	}
	victim := e.ino()

	if e.embedded {
		// Kill name and inode together with a single ordered write, then
		// free the data (bitmap updates are delayed writes). The ordered
		// clear must come first: once a block free is visible it can be
		// reallocated, and a crash before the entry clear was durable
		// would leave the old inode claiming a reused block.
		var in layout.Inode
		in.Decode(b.Data[e.slot*slotSize+slotInodeOff:])
		clearSlot(b.Data, e.slot*slotSize)
		if err := fs.syncMeta(b); err != nil {
			b.Release()
			return 0, err
		}
		b.Release()
		if err := fs.idxRemove(&din, dir, name, idxLoc(e.block, e.slot)); err != nil {
			return 0, err
		}
		if err := fs.truncate(&in, e.ino(), 0); err != nil {
			return 0, err
		}
		din.Mtime = fs.clk.Now()
		return victim, fs.putInode(dir, &din, false)
	}

	// External: conventional two ordered writes.
	clearSlot(b.Data, e.slot*slotSize)
	if err := fs.syncMeta(b); err != nil {
		b.Release()
		return 0, err
	}
	b.Release()
	if err := fs.idxRemove(&din, dir, name, idxLoc(e.block, e.slot)); err != nil {
		return 0, err
	}
	din.Mtime = fs.clk.Now()
	if err := fs.putInode(dir, &din, false); err != nil {
		return 0, err
	}
	ino := e.ino()
	tin, err := fs.getLiveInode(ino)
	if err != nil {
		return 0, err
	}
	tin.Nlink--
	if tin.Nlink > 0 {
		return victim, fs.putInode(ino, &tin, true)
	}
	if err := fs.truncate(&tin, ino, 0); err != nil {
		return 0, err
	}
	tin = layout.Inode{}
	if err := fs.putInode(ino, &tin, true); err != nil {
		return 0, err
	}
	fs.freeExtInode(extIdx(ino))
	return victim, nil
}

// rmdir implements Rmdir; the FS write lock is held. It returns the
// removed directory's ino for path-cache invalidation.
func (fs *FS) rmdir(dir vfs.Ino, name string) (vfs.Ino, error) {
	if name == "." || name == ".." {
		return 0, vfs.ErrInvalid
	}
	din, err := fs.dirInode(dir)
	if err != nil {
		return 0, err
	}
	b, e, err := fs.dirLookup(&din, dir, name)
	if err != nil {
		return 0, err
	}
	b.Release()
	if e.ftype != vfs.TypeDir {
		return 0, vfs.ErrNotDir
	}
	ino := e.ino()
	cin, err := fs.getLiveInode(ino)
	if err != nil {
		return 0, err
	}
	empty, err := fs.dirIsEmpty(&cin, ino)
	if err != nil {
		return 0, err
	}
	if !empty {
		return 0, vfs.ErrNotEmpty
	}
	b, err = fs.c.Read(e.block)
	if err != nil {
		return 0, err
	}
	clearSlot(b.Data, e.slot*slotSize)
	if err := fs.syncMeta(b); err != nil {
		b.Release()
		return 0, err
	}
	b.Release()
	if err := fs.idxRemove(&din, dir, name, idxLoc(e.block, e.slot)); err != nil {
		return 0, err
	}
	din.Nlink--
	din.Mtime = fs.clk.Now()
	if err := fs.putInode(dir, &din, false); err != nil {
		return 0, err
	}
	// The child's own index lives outside its bmap tree; truncate will
	// not find those blocks, so detach and free them here.
	if err := fs.idxDrop(&cin, ino, fs.idxTrusted(ino)); err != nil {
		return 0, err
	}
	if err := fs.truncate(&cin, ino, 0); err != nil {
		return 0, err
	}
	cin = layout.Inode{}
	if err := fs.putInode(ino, &cin, true); err != nil {
		return 0, err
	}
	fs.freeExtInode(extIdx(ino))
	return ino, nil
}

// rename implements Rename; the FS write lock is held. An embedded inode physically moves
// with its entry, so the file's Ino changes; callers re-Lookup, exactly
// as the cache's dual indexing anticipates. It returns the moved
// entry's (pre-move) ino and the replaced destination's ino, if any,
// for path-cache invalidation.
func (fs *FS) rename(sdir vfs.Ino, sname string, ddir vfs.Ino, dname string) (moved, replaced vfs.Ino, err error) {
	if sname == "." || sname == ".." {
		return 0, 0, vfs.ErrInvalid
	}
	if err := vfs.CheckName(dname); err != nil {
		return 0, 0, err
	}
	sin, err := fs.dirInode(sdir)
	if err != nil {
		return 0, 0, err
	}
	b, se, err := fs.dirLookup(&sin, sdir, sname)
	if err != nil {
		return 0, 0, err
	}
	var embeddedCopy layout.Inode
	if se.embedded {
		embeddedCopy.Decode(b.Data[se.slot*slotSize+slotInodeOff:])
	}
	b.Release()
	moved = se.ino()
	din, err := fs.dirInode(ddir)
	if err != nil {
		return 0, 0, err
	}
	if se.ftype == vfs.TypeDir && sdir != ddir {
		if err := vfs.CheckNotBelow(moved, ddir, RootIno, fs.parentDir); err != nil {
			return 0, 0, err
		}
	}
	if b, de, err := fs.dirLookup(&din, ddir, dname); err == nil {
		b.Release()
		if de.block == se.block && de.slot == se.slot {
			return 0, 0, nil // renaming onto itself
		}
		if de.ftype == vfs.TypeDir {
			return 0, 0, vfs.ErrIsDir
		}
		replaced, err = fs.unlink(ddir, dname)
		if err != nil {
			return 0, 0, err
		}
		din, err = fs.dirInode(ddir)
		if err != nil {
			return 0, 0, err
		}
	}

	// Install the destination entry first: two names briefly, never zero.
	nb, slot, err := fs.dirFindFree(&din, ddir)
	if err != nil {
		return 0, 0, err
	}
	if se.embedded {
		embeddedCopy.Parent = uint32(ddir)
		writeSlotEmbedded(nb.Data, slot.slot*slotSize, dname, &embeddedCopy)
	} else {
		writeSlotExternal(nb.Data, slot.slot*slotSize, dname, vfs.Ino(se.ref), se.ftype)
	}
	if err := fs.syncMeta(nb); err != nil {
		nb.Release()
		return moved, replaced, err
	}
	nb.Release()
	if err := fs.idxInsert(&din, ddir, dname, idxLoc(slot.block, slot.slot)); err != nil {
		return moved, replaced, err
	}
	din.Mtime = fs.clk.Now()
	if err := fs.putInode(ddir, &din, false); err != nil {
		return moved, replaced, err
	}

	// Remove the source entry.
	if sdir == ddir {
		sin, err = fs.dirInode(sdir)
		if err != nil {
			return moved, replaced, err
		}
	}
	rb, err := fs.c.Read(se.block)
	if err != nil {
		return moved, replaced, err
	}
	clearSlot(rb.Data, se.slot*slotSize)
	if err := fs.syncMeta(rb); err != nil {
		rb.Release()
		return moved, replaced, err
	}
	rb.Release()
	if err := fs.idxRemove(&sin, sdir, sname, idxLoc(se.block, se.slot)); err != nil {
		return moved, replaced, err
	}
	sin.Mtime = fs.clk.Now()
	if err := fs.putInode(sdir, &sin, false); err != nil {
		return moved, replaced, err
	}

	// A directory changing parents repoints ".." and the link counts.
	if se.ftype == vfs.TypeDir && sdir != ddir {
		child := vfs.Ino(se.ref)
		cin, err := fs.getLiveInode(child)
		if err != nil {
			return moved, replaced, err
		}
		cb, dd, err := fs.dirLookup(&cin, child, "..")
		if err != nil {
			return moved, replaced, err
		}
		writeSlotExternal(cb.Data, dd.slot*slotSize, "..", ddir, vfs.TypeDir)
		fs.c.MarkDirty(cb)
		cb.Release()
		cin.Parent = uint32(ddir)
		if err := fs.putInode(child, &cin, false); err != nil {
			return moved, replaced, err
		}
		sin.Nlink--
		if err := fs.putInode(sdir, &sin, false); err != nil {
			return moved, replaced, err
		}
		din, err = fs.dirInode(ddir)
		if err != nil {
			return moved, replaced, err
		}
		din.Nlink++
		if err := fs.putInode(ddir, &din, false); err != nil {
			return moved, replaced, err
		}
	}
	return moved, replaced, nil
}

// readDir implements ReadDir; the FS lock is held. With embedded inodes the entries'
// inodes arrive in the same blocks — a Stat after ReadDir is free of
// disk I/O, which is what accelerates attribute-scan workloads.
func (fs *FS) readDir(dir vfs.Ino) ([]vfs.DirEntry, error) {
	din, err := fs.dirInode(dir)
	if err != nil {
		return nil, err
	}
	return fs.dirList(&din, dir)
}

// stat implements Stat; the FS lock is held.
func (fs *FS) stat(ino vfs.Ino) (vfs.Stat, error) {
	in, err := fs.getLiveInode(ino)
	if err != nil {
		return vfs.Stat{}, err
	}
	return in.Stat(ino), nil
}

// truncateTo implements Truncate; the FS write lock is held.
func (fs *FS) truncateTo(ino vfs.Ino, size int64) error {
	in, err := fs.getLiveInode(ino)
	if err != nil {
		return err
	}
	if in.Type == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	if err := fs.truncate(&in, ino, size); err != nil {
		return err
	}
	return fs.putInode(ino, &in, false)
}
