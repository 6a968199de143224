package lfs

import (
	"fmt"

	"cffs/internal/blockio"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// Directories are the classic variable-length records of
// layout/dirent.go, the same format as the FFS baseline. What is lfs's
// own is how a block changes: scans are read-only through the cache,
// and every mutation goes through updateFileBlock, so directory blocks
// follow the log like any data.

// recLoc places a record: the directory block holding it and its offset.
type recLoc struct {
	lb  int64
	off int
}

// initDirData writes "." and ".." into a new directory's first block.
func (fs *FS) initDirData(in *layout.Inode, self, parent vfs.Ino) error {
	err := fs.updateFileBlock(in, self, 0, func(p []byte) error {
		layout.InitDirDots(p, self, parent)
		return nil
	})
	if err != nil {
		return err
	}
	in.Size = blockio.BlockSize
	fs.dirty[self] = true
	return nil
}

// forEachDirent walks every record; fn returning true stops the walk
// and reports found.
func (fs *FS) forEachDirent(in *layout.Inode, fn func(lb int64, e layout.Dirent) bool) (bool, error) {
	nblocks := in.Size / blockio.BlockSize
	for lb := int64(0); lb < nblocks; lb++ {
		addr, err := fs.tree.Resolve(in, lb)
		if err != nil {
			return false, err
		}
		if addr == 0 {
			return false, fmt.Errorf("lfs: directory hole at block %d", lb)
		}
		b, err := fs.c.Read(addr)
		if err != nil {
			return false, err
		}
		found, err := layout.EachDirent(b.Data, func(e layout.Dirent) bool { return fn(lb, e) })
		b.Release()
		if found || err != nil {
			return found, err
		}
	}
	return false, nil
}

// dirLookup finds a live entry by name.
func (fs *FS) dirLookup(in *layout.Inode, name string) (layout.Dirent, recLoc, error) {
	var found layout.Dirent
	var at recLoc
	ok, err := fs.forEachDirent(in, func(lb int64, e layout.Dirent) bool {
		if e.Ino != 0 && e.Name == name {
			found, at = e, recLoc{lb, e.Off}
			return true
		}
		return false
	})
	if err != nil {
		return layout.Dirent{}, recLoc{}, err
	}
	if !ok {
		return layout.Dirent{}, recLoc{}, fmt.Errorf("lfs: %q: %w", name, vfs.ErrNotExist)
	}
	return found, at, nil
}

// dirPrepareAdd runs the existence check and the free-slot search as
// one scan, so a create pays one directory traversal instead of two.
// grow=true means no slot fits and dirInsertAt must append a block;
// a present name returns ErrExist.
func (fs *FS) dirPrepareAdd(in *layout.Inode, name string) (free recLoc, grow bool, err error) {
	need := layout.DirentSize(len(name))
	grow = true
	found, err := fs.forEachDirent(in, func(lb int64, e layout.Dirent) bool {
		if e.Ino != 0 && e.Name == name {
			return true
		}
		if grow && e.Fits(need) {
			free, grow = recLoc{lb, e.Off}, false
		}
		return false
	})
	if err != nil {
		return recLoc{}, false, err
	}
	if found {
		return recLoc{}, false, fmt.Errorf("lfs: %q: %w", name, vfs.ErrExist)
	}
	return free, grow, nil
}

// dirInsertAt writes a live entry into the place dirPrepareAdd found.
func (fs *FS) dirInsertAt(in *layout.Inode, dir vfs.Ino, at recLoc, grow bool, ino vfs.Ino, ftype vfs.FileType, name string) error {
	if !grow {
		return fs.updateFileBlock(in, dir, at.lb, func(p []byte) error {
			return layout.InsertDirent(p, at.off, ino, ftype, name)
		})
	}
	err := fs.updateFileBlock(in, dir, in.Size/blockio.BlockSize, func(p []byte) error {
		layout.InitDirBlock(p)
		return layout.InsertDirent(p, 0, ino, ftype, name)
	})
	if err != nil {
		return err
	}
	in.Size += blockio.BlockSize
	in.Mtime = fs.clk.Now()
	fs.dirty[dir] = true
	return nil
}

// dirAdd inserts a live entry, growing the directory when needed. The
// caller has already ruled out a duplicate name (or, as with rename's
// ".." rewrite, knows there is none).
func (fs *FS) dirAdd(in *layout.Inode, dir vfs.Ino, name string, ino vfs.Ino, ftype vfs.FileType) error {
	need := layout.DirentSize(len(name))
	var at recLoc
	ok, err := fs.forEachDirent(in, func(lb int64, e layout.Dirent) bool {
		at = recLoc{lb, e.Off}
		return e.Fits(need)
	})
	if err != nil {
		return err
	}
	return fs.dirInsertAt(in, dir, at, !ok, ino, ftype, name)
}

// dirRemove deletes a live entry by name.
func (fs *FS) dirRemove(in *layout.Inode, dir vfs.Ino, name string) error {
	_, at, err := fs.dirLookup(in, name)
	if err != nil {
		return err
	}
	err = fs.updateFileBlock(in, dir, at.lb, func(p []byte) error {
		return layout.RemoveDirent(p, at.off)
	})
	if err != nil {
		return err
	}
	in.Mtime = fs.clk.Now()
	fs.dirty[dir] = true
	return nil
}

// dirIsEmpty reports whether only "." and ".." remain.
func (fs *FS) dirIsEmpty(in *layout.Inode) (bool, error) {
	found, err := fs.forEachDirent(in, func(_ int64, e layout.Dirent) bool {
		return e.Ino != 0 && e.Name != "." && e.Name != ".."
	})
	return !found, err
}

// dirList collects live entries, excluding dot entries.
func (fs *FS) dirList(in *layout.Inode) ([]vfs.DirEntry, error) {
	var ents []vfs.DirEntry
	_, err := fs.forEachDirent(in, func(_ int64, e layout.Dirent) bool {
		if e.Ino != 0 && e.Name != "." && e.Name != ".." {
			ents = append(ents, vfs.DirEntry{Name: e.Name, Ino: vfs.Ino(e.Ino), Type: e.Type})
		}
		return false
	})
	return ents, err
}
