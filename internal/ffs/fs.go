package ffs

import (
	"fmt"

	"cffs/internal/layout"
	"cffs/internal/obs"
	"cffs/internal/vfs"
)

// Namespace operations. In ModeSync these follow the conventional
// synchronous-write sequencing [Ganger94]: an inode is initialized on
// disk before the directory entry naming it (create), and a directory
// entry is removed on disk before its inode is freed (delete). Each such
// arrow is one synchronous write — the cost embedded inodes remove.

// Lookup implements vfs.FileSystem.
func (fs *FS) Lookup(dir vfs.Ino, name string) (vfs.Ino, error) {
	defer fs.trk.Begin(obs.OpLookup).End()
	din, err := fs.dirInode(dir)
	if err != nil {
		return 0, err
	}
	b, e, err := fs.dirLookup(&din, dir, name)
	if err != nil {
		return 0, err
	}
	b.Release()
	return vfs.Ino(e.Ino), nil
}

// dirInode fetches an inode and checks it is a directory.
func (fs *FS) dirInode(dir vfs.Ino) (layout.Inode, error) {
	din, err := fs.getLiveInode(dir)
	if err == nil && din.Type != vfs.TypeDir {
		err = fmt.Errorf("ffs: inode %d: %w", dir, vfs.ErrNotDir)
	}
	return din, err
}

// parentDir reports what a directory's ".." entry names.
func (fs *FS) parentDir(dir vfs.Ino) (vfs.Ino, error) {
	din, err := fs.dirInode(dir)
	if err != nil {
		return 0, err
	}
	b, e, err := fs.dirLookup(&din, dir, "..")
	if err != nil {
		return 0, err
	}
	b.Release()
	return vfs.Ino(e.Ino), nil
}

// Create implements vfs.FileSystem.
func (fs *FS) Create(dir vfs.Ino, name string) (vfs.Ino, error) {
	defer fs.trk.Begin(obs.OpCreate).End()
	fs.wb.Admit()
	if err := vfs.CheckName(name); err != nil {
		return 0, err
	}
	din, err := fs.dirInode(dir)
	if err != nil {
		return 0, err
	}
	// One scan: existence check and free-slot search together. The
	// buffer stays pinned (slots cannot move) across the inode writes.
	b, slot, existing, err := fs.dirPrepareAdd(&din, dir, name)
	if err != nil {
		return 0, err
	}
	if existing != nil {
		b.Release()
		return 0, fmt.Errorf("ffs: create %q: %w", name, vfs.ErrExist)
	}
	ino, err := fs.allocInode(fs.cgOfIno(dir))
	if err != nil {
		b.Release()
		return 0, err
	}
	in := layout.Inode{Type: vfs.TypeReg, Nlink: 1, Mtime: fs.clk.Now()}
	// Ordering point 1: the initialized inode reaches disk before the
	// name that references it.
	if err := fs.putInode(ino, &in, true); err != nil {
		b.Release()
		return 0, err
	}
	if err := layout.InsertDirent(b.Data, slot, ino, vfs.TypeReg, name); err != nil {
		b.Release()
		return 0, err
	}
	din.Mtime = fs.clk.Now()
	// Ordering point 2: the directory entry.
	if err := fs.syncMeta(b); err != nil {
		b.Release()
		return 0, err
	}
	b.Release()
	return ino, fs.putInode(dir, &din, false)
}

// Mkdir implements vfs.FileSystem.
func (fs *FS) Mkdir(dir vfs.Ino, name string) (vfs.Ino, error) {
	defer fs.trk.Begin(obs.OpMkdir).End()
	fs.wb.Admit()
	if err := vfs.CheckName(name); err != nil {
		return 0, err
	}
	din, err := fs.dirInode(dir)
	if err != nil {
		return 0, err
	}
	b, slot, existing, err := fs.dirPrepareAdd(&din, dir, name)
	if err != nil {
		return 0, err
	}
	if existing != nil {
		b.Release()
		return 0, fmt.Errorf("ffs: mkdir %q: %w", name, vfs.ErrExist)
	}
	ino, err := fs.allocInode(fs.pickDirCG())
	if err != nil {
		b.Release()
		return 0, err
	}
	in := layout.Inode{Type: vfs.TypeDir, Nlink: 2, Mtime: fs.clk.Now()}
	if err := fs.initDirData(&in, ino, dir); err != nil {
		b.Release()
		return 0, err
	}
	// Child block, then child inode, then parent entry — the mkdir
	// ordering chain.
	if fs.opts.Mode == ModeSync {
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
	if err := layout.InsertDirent(b.Data, slot, ino, vfs.TypeDir, name); err != nil {
		b.Release()
		return 0, err
	}
	din.Mtime = fs.clk.Now()
	if err := fs.syncMeta(b); err != nil {
		b.Release()
		return 0, err
	}
	b.Release()
	din.Nlink++ // ".." of the child
	return ino, fs.putInode(dir, &din, false)
}

// Link implements vfs.FileSystem.
func (fs *FS) Link(dir vfs.Ino, name string, target vfs.Ino) error {
	defer fs.trk.Begin(obs.OpLink).End()
	fs.wb.Admit()
	if err := vfs.CheckName(name); err != nil {
		return err
	}
	din, err := fs.dirInode(dir)
	if err != nil {
		return err
	}
	tin, err := fs.getLiveInode(target)
	if err != nil {
		return err
	}
	if tin.Type == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	b, slot, existing, err := fs.dirPrepareAdd(&din, dir, name)
	if err != nil {
		return err
	}
	if existing != nil {
		b.Release()
		return fmt.Errorf("ffs: link %q: %w", name, vfs.ErrExist)
	}
	tin.Nlink++
	// The incremented link count must be stable before the new name.
	if err := fs.putInode(target, &tin, true); err != nil {
		b.Release()
		return err
	}
	if err := layout.InsertDirent(b.Data, slot, target, vfs.TypeReg, name); err != nil {
		b.Release()
		return err
	}
	din.Mtime = fs.clk.Now()
	if err := fs.syncMeta(b); err != nil {
		b.Release()
		return err
	}
	b.Release()
	return fs.putInode(dir, &din, false)
}

// Unlink implements vfs.FileSystem.
func (fs *FS) Unlink(dir vfs.Ino, name string) error {
	defer fs.trk.Begin(obs.OpUnlink).End()
	fs.wb.Admit()
	if name == "." || name == ".." {
		return vfs.ErrInvalid
	}
	din, err := fs.dirInode(dir)
	if err != nil {
		return err
	}
	b, e, err := fs.dirLookup(&din, dir, name)
	if err != nil {
		return err
	}
	if e.Type == vfs.TypeDir {
		b.Release()
		return vfs.ErrIsDir
	}
	b.Release()
	b, err = fs.dirRemove(&din, dir, name)
	if err != nil {
		return err
	}
	// Ordering point 1: the name disappears before the inode dies.
	if err := fs.syncMeta(b); err != nil {
		b.Release()
		return err
	}
	b.Release()
	if err := fs.putInode(dir, &din, false); err != nil {
		return err
	}

	ino := vfs.Ino(e.Ino)
	tin, err := fs.getLiveInode(ino)
	if err != nil {
		return err
	}
	tin.Nlink--
	if tin.Nlink > 0 {
		return fs.putInode(ino, &tin, true)
	}
	if err := fs.tree.Truncate(&tin, 0); err != nil {
		return err
	}
	// Ordering point 2: the cleared inode.
	tin = layout.Inode{}
	if err := fs.putInode(ino, &tin, true); err != nil {
		return err
	}
	return fs.freeInode(ino)
}

// Rmdir implements vfs.FileSystem.
func (fs *FS) Rmdir(dir vfs.Ino, name string) error {
	defer fs.trk.Begin(obs.OpRmdir).End()
	fs.wb.Admit()
	if name == "." || name == ".." {
		return vfs.ErrInvalid
	}
	din, err := fs.dirInode(dir)
	if err != nil {
		return err
	}
	b, e, err := fs.dirLookup(&din, dir, name)
	if err != nil {
		return err
	}
	b.Release()
	if e.Type != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	ino := vfs.Ino(e.Ino)
	cin, err := fs.getLiveInode(ino)
	if err != nil {
		return err
	}
	empty, err := fs.dirIsEmpty(&cin, ino)
	if err != nil {
		return err
	}
	if !empty {
		return vfs.ErrNotEmpty
	}
	b, err = fs.dirRemove(&din, dir, name)
	if err != nil {
		return err
	}
	if err := fs.syncMeta(b); err != nil {
		b.Release()
		return err
	}
	b.Release()
	din.Nlink--
	if err := fs.putInode(dir, &din, false); err != nil {
		return err
	}
	if err := fs.tree.Truncate(&cin, 0); err != nil {
		return err
	}
	cin = layout.Inode{}
	if err := fs.putInode(ino, &cin, true); err != nil {
		return err
	}
	return fs.freeInode(ino)
}

// Rename implements vfs.FileSystem. Only regular files can be replaced.
func (fs *FS) Rename(sdir vfs.Ino, sname string, ddir vfs.Ino, dname string) error {
	defer fs.trk.Begin(obs.OpRename).End()
	fs.wb.Admit()
	if sname == "." || sname == ".." {
		return vfs.ErrInvalid
	}
	if err := vfs.CheckName(dname); err != nil {
		return err
	}
	sin, err := fs.dirInode(sdir)
	if err != nil {
		return err
	}
	b, se, err := fs.dirLookup(&sin, sdir, sname)
	if err != nil {
		return err
	}
	b.Release()
	if sdir == ddir && sname == dname {
		return nil // self-rename is a no-op
	}
	din, err := fs.dirInode(ddir)
	if err != nil {
		return err
	}
	if se.Type == vfs.TypeDir && sdir != ddir {
		if err := vfs.CheckNotBelow(vfs.Ino(se.Ino), ddir, RootIno, fs.parentDir); err != nil {
			return err
		}
	}
	// One scan resolves the destination: either the name exists (handled
	// below) or the scan already found the free slot for the new entry.
	nb, slot, existing, err := fs.dirPrepareAdd(&din, ddir, dname)
	if err != nil {
		return err
	}
	if existing != nil {
		nb.Release()
		if existing.Type == vfs.TypeDir {
			return vfs.ErrIsDir
		}
		if err := fs.Unlink(ddir, dname); err != nil {
			return err
		}
		din, err = fs.getLiveInode(ddir)
		if err != nil {
			return err
		}
		if nb, slot, existing, err = fs.dirPrepareAdd(&din, ddir, dname); err != nil {
			return err
		}
		if existing != nil {
			nb.Release()
			return fmt.Errorf("ffs: rename %q: %w", dname, vfs.ErrExist)
		}
	}
	// Add the new name first (a moment with two names is safe; a moment
	// with zero is not).
	if err := layout.InsertDirent(nb.Data, slot, vfs.Ino(se.Ino), se.Type, dname); err != nil {
		nb.Release()
		return err
	}
	din.Mtime = fs.clk.Now()
	if err := fs.syncMeta(nb); err != nil {
		nb.Release()
		return err
	}
	nb.Release()
	if err := fs.putInode(ddir, &din, false); err != nil {
		return err
	}
	if sdir == ddir {
		sin, err = fs.getLiveInode(sdir)
		if err != nil {
			return err
		}
	}
	rb, err := fs.dirRemove(&sin, sdir, sname)
	if err != nil {
		return err
	}
	if err := fs.syncMeta(rb); err != nil {
		rb.Release()
		return err
	}
	rb.Release()
	if err := fs.putInode(sdir, &sin, false); err != nil {
		return err
	}
	// Directories changing parents must repoint "..".
	if se.Type == vfs.TypeDir && sdir != ddir {
		cin, err := fs.getLiveInode(vfs.Ino(se.Ino))
		if err != nil {
			return err
		}
		cb, err := fs.dirRemove(&cin, vfs.Ino(se.Ino), "..")
		if err != nil {
			return err
		}
		cb.Release()
		cb, err = fs.dirAdd(&cin, vfs.Ino(se.Ino), "..", ddir, vfs.TypeDir)
		if err != nil {
			return err
		}
		fs.c.MarkDirty(cb)
		cb.Release()
		if err := fs.putInode(vfs.Ino(se.Ino), &cin, false); err != nil {
			return err
		}
		sin.Nlink--
		if err := fs.putInode(sdir, &sin, false); err != nil {
			return err
		}
		din, err = fs.getLiveInode(ddir)
		if err != nil {
			return err
		}
		din.Nlink++
		if err := fs.putInode(ddir, &din, false); err != nil {
			return err
		}
	}
	return nil
}

// ReadDir implements vfs.FileSystem.
func (fs *FS) ReadDir(dir vfs.Ino) ([]vfs.DirEntry, error) {
	defer fs.trk.Begin(obs.OpReadDir).End()
	din, err := fs.dirInode(dir)
	if err != nil {
		return nil, err
	}
	return fs.dirList(&din, dir)
}

// Stat implements vfs.FileSystem.
func (fs *FS) Stat(ino vfs.Ino) (vfs.Stat, error) {
	defer fs.trk.Begin(obs.OpStat).End()
	in, err := fs.getLiveInode(ino)
	if err != nil {
		return vfs.Stat{}, err
	}
	return in.Stat(ino), nil
}

// Truncate implements vfs.FileSystem.
func (fs *FS) Truncate(ino vfs.Ino, size int64) error {
	defer fs.trk.Begin(obs.OpTruncate).End()
	fs.wb.Admit()
	in, err := fs.getLiveInode(ino)
	if err != nil {
		return err
	}
	if in.Type == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	if err := fs.tree.Truncate(&in, size); err != nil {
		return err
	}
	in.Mtime = fs.clk.Now()
	return fs.putInode(ino, &in, false)
}
