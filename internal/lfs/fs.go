package lfs

import (
	"errors"
	"fmt"

	"cffs/internal/blockio"
	"cffs/internal/fsck"
	"cffs/internal/layout"
	"cffs/internal/obs"
	"cffs/internal/vfs"
)

// Namespace operations. Everything is delayed-write: durability comes
// from Sync's checkpoint, which is the LFS model.

// Lookup implements vfs.FileSystem.
func (fs *FS) Lookup(dir vfs.Ino, name string) (vfs.Ino, error) {
	defer fs.trk.Begin(obs.OpLookup).End()
	din, err := fs.dirInode(dir)
	if err != nil {
		return 0, err
	}
	e, _, err := fs.dirLookup(din, name)
	if err != nil {
		return 0, err
	}
	return vfs.Ino(e.Ino), nil
}

func (fs *FS) dirInode(dir vfs.Ino) (*layout.Inode, error) {
	din, err := fs.getLiveInode(dir)
	if err != nil {
		return nil, err
	}
	if din.Type != vfs.TypeDir {
		return nil, fmt.Errorf("lfs: inode %d: %w", dir, vfs.ErrNotDir)
	}
	return din, nil
}

// parentDir reports what a directory's ".." entry names.
func (fs *FS) parentDir(dir vfs.Ino) (vfs.Ino, error) {
	din, err := fs.dirInode(dir)
	if err != nil {
		return 0, err
	}
	e, _, err := fs.dirLookup(din, "..")
	return vfs.Ino(e.Ino), err
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
	// One scan: existence check and free-slot search together.
	slot, grow, err := fs.dirPrepareAdd(din, name)
	if err != nil {
		return 0, err
	}
	ino, err := fs.allocIno()
	if err != nil {
		return 0, err
	}
	in := &layout.Inode{Type: vfs.TypeReg, Nlink: 1, Mtime: fs.clk.Now()}
	fs.inodes[ino] = in
	fs.dirty[ino] = true
	fs.imap[int(ino)-1] = 0
	if err := fs.dirInsertAt(din, dir, slot, grow, ino, vfs.TypeReg, name); err != nil {
		return 0, err
	}
	din.Mtime = fs.clk.Now()
	fs.dirty[dir] = true
	return ino, nil
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
	slot, grow, err := fs.dirPrepareAdd(din, name)
	if err != nil {
		return 0, err
	}
	ino, err := fs.allocIno()
	if err != nil {
		return 0, err
	}
	in := &layout.Inode{Type: vfs.TypeDir, Nlink: 2, Mtime: fs.clk.Now()}
	fs.inodes[ino] = in
	fs.dirty[ino] = true
	if err := fs.initDirData(in, ino, dir); err != nil {
		return 0, err
	}
	if err := fs.dirInsertAt(din, dir, slot, grow, ino, vfs.TypeDir, name); err != nil {
		return 0, err
	}
	din.Nlink++
	din.Mtime = fs.clk.Now()
	fs.dirty[dir] = true
	return ino, nil
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
	slot, grow, err := fs.dirPrepareAdd(din, name)
	if err != nil {
		return err
	}
	if err := fs.dirInsertAt(din, dir, slot, grow, target, vfs.TypeReg, name); err != nil {
		return err
	}
	tin.Nlink++
	fs.dirty[target] = true
	din.Mtime = fs.clk.Now()
	fs.dirty[dir] = true
	return nil
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
	e, _, err := fs.dirLookup(din, name)
	if err != nil {
		return err
	}
	if e.Type == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	if err := fs.dirRemove(din, dir, name); err != nil {
		return err
	}
	ino := vfs.Ino(e.Ino)
	tin, err := fs.getLiveInode(ino)
	if err != nil {
		return err
	}
	tin.Nlink--
	if tin.Nlink > 0 {
		fs.dirty[ino] = true
		return nil
	}
	if err := fs.truncate(tin, ino, 0); err != nil {
		return err
	}
	fs.freeIno(ino)
	return nil
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
	e, _, err := fs.dirLookup(din, name)
	if err != nil {
		return err
	}
	if e.Type != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	ino := vfs.Ino(e.Ino)
	cin, err := fs.getLiveInode(ino)
	if err != nil {
		return err
	}
	empty, err := fs.dirIsEmpty(cin)
	if err != nil {
		return err
	}
	if !empty {
		return vfs.ErrNotEmpty
	}
	if err := fs.dirRemove(din, dir, name); err != nil {
		return err
	}
	din.Nlink--
	fs.dirty[dir] = true
	if err := fs.truncate(cin, ino, 0); err != nil {
		return err
	}
	fs.freeIno(ino)
	return nil
}

// Rename implements vfs.FileSystem.
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
	se, _, err := fs.dirLookup(sin, sname)
	if err != nil {
		return err
	}
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
	// One scan resolves the destination; only the replace path (name
	// taken) pays a second look to learn what it is replacing.
	slot, grow, err := fs.dirPrepareAdd(din, dname)
	if errors.Is(err, vfs.ErrExist) {
		de, _, lerr := fs.dirLookup(din, dname)
		if lerr != nil {
			return lerr
		}
		if de.Type == vfs.TypeDir {
			return vfs.ErrIsDir
		}
		if err := fs.Unlink(ddir, dname); err != nil {
			return err
		}
		slot, grow, err = fs.dirPrepareAdd(din, dname)
	}
	if err != nil {
		return err
	}
	if err := fs.dirInsertAt(din, ddir, slot, grow, vfs.Ino(se.Ino), se.Type, dname); err != nil {
		return err
	}
	if err := fs.dirRemove(sin, sdir, sname); err != nil {
		return err
	}
	din.Mtime = fs.clk.Now()
	fs.dirty[ddir] = true
	fs.dirty[sdir] = true
	if se.Type == vfs.TypeDir && sdir != ddir {
		child := vfs.Ino(se.Ino)
		cin, err := fs.getLiveInode(child)
		if err != nil {
			return err
		}
		if err := fs.dirRemove(cin, child, ".."); err != nil {
			return err
		}
		if err := fs.dirAdd(cin, child, "..", ddir, vfs.TypeDir); err != nil {
			return err
		}
		fs.dirty[child] = true
		sin.Nlink--
		din.Nlink++
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
	return fs.dirList(din)
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
	return fs.truncate(in, ino, size)
}

// FreeBlocks reports reclaimable log capacity (dead blocks plus free
// segments), for df-style tools and the aging controller.
func (fs *FS) FreeBlocks() (int64, error) {
	live := int64(len(fs.owners))
	total := int64(fs.nsegs) * SegBlocks
	return total - live, nil
}

// Check mounts the image (which walks the whole namespace rebuilding
// liveness) and cross-verifies the rebuilt accounting: segment usage
// must equal the per-segment count of owned blocks, and every owned
// block must fall inside a valid segment. It is the LFS analogue of the
// other file systems' fsck.
//
// Mounting from the checkpoint IS the LFS recovery path — everything
// after the last checkpoint rolls back — so with repair set, Check
// persists the recovered state with a fresh checkpoint write, making
// the repair durable.
func Check(dev *blockio.Device, repair bool) (*fsck.Report, error) {
	fs, err := Mount(dev, Options{})
	if err != nil {
		return nil, err
	}
	r := &fsck.Report{FS: "lfs"}
	counts := make([]int, fs.nsegs)
	for addr := range fs.owners {
		seg := fs.segOf(addr)
		if seg < 0 || seg >= fs.nsegs {
			r.Problems = append(r.Problems, fmt.Sprintf("live block %d outside the log", addr))
			continue
		}
		counts[seg]++
	}
	for s, want := range counts {
		if fs.usage[s] != want {
			r.Problems = append(r.Problems,
				fmt.Sprintf("segment %d usage %d, recount %d", s, fs.usage[s], want))
		}
	}
	for idx, e := range fs.imap {
		if e == 0 {
			continue
		}
		addr, _ := imapAddr(e)
		if _, ok := fs.owners[addr]; !ok {
			r.Problems = append(r.Problems,
				fmt.Sprintf("inode %d's block %d not accounted live", idx+1, addr))
		}
		in, err := fs.getInode(vfs.Ino(idx + 1))
		if err != nil || !in.Alive() {
			r.Problems = append(r.Problems, fmt.Sprintf("imap entry %d points at a dead inode", idx+1))
			continue
		}
		if in.Type == vfs.TypeDir {
			r.Dirs++
		} else {
			r.Files++
		}
	}
	r.UsedBlocks = len(fs.owners)
	if repair && !r.Clean() {
		if err := fs.Sync(); err != nil {
			return nil, err
		}
		r.RepairsMade = len(r.Problems)
	}
	return r, nil
}
