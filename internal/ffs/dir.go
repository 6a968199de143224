package ffs

import (
	"fmt"

	"cffs/internal/blockio"
	"cffs/internal/cache"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// Directories are the classic variable-length records of
// layout/dirent.go. What is ffs's own is the I/O discipline around
// them: scans hand back the block pinned, so a mutation and the ordered
// write that publishes it act on the buffer the scan found.

// initDirData writes the initial "." and ".." entries of a new
// directory into its first data block.
func (fs *FS) initDirData(in *layout.Inode, self, parent vfs.Ino) error {
	phys, err := fs.tree.Map(in, self, 0)
	if err != nil {
		return err
	}
	b, err := fs.c.Alloc(phys)
	if err != nil {
		return err
	}
	defer b.Release()
	layout.InitDirDots(b.Data, self, parent)
	fs.c.MarkDirty(b)
	in.Size = blockio.BlockSize
	return nil
}

// forEachDirent walks every record (live and free) of a directory,
// calling fn with the block buffer and decoded entry. fn returning true
// stops the walk with the buffer pinned and returned to the caller.
func (fs *FS) forEachDirent(in *layout.Inode, dir vfs.Ino, fn func(b *cache.Buf, e layout.Dirent) bool) (*cache.Buf, error) {
	nblocks := in.Size / blockio.BlockSize
	for lb := int64(0); lb < nblocks; lb++ {
		phys, err := fs.tree.Resolve(in, lb)
		if err != nil {
			return nil, err
		}
		if phys == 0 {
			return nil, fmt.Errorf("ffs: directory %d has a hole at block %d", dir, lb)
		}
		b, err := fs.c.Read(phys)
		if err != nil {
			return nil, err
		}
		stopped, err := layout.EachDirent(b.Data, func(e layout.Dirent) bool { return fn(b, e) })
		if stopped {
			return b, nil
		}
		b.Release()
		if err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// dirLookup finds a live entry by name; the returned buffer is pinned.
func (fs *FS) dirLookup(in *layout.Inode, dir vfs.Ino, name string) (*cache.Buf, layout.Dirent, error) {
	var found layout.Dirent
	b, err := fs.forEachDirent(in, dir, func(_ *cache.Buf, e layout.Dirent) bool {
		if e.Ino != 0 && e.Name == name {
			found = e
			return true
		}
		return false
	})
	if err != nil {
		return nil, layout.Dirent{}, err
	}
	if b == nil {
		return nil, layout.Dirent{}, fmt.Errorf("ffs: %q in dir %d: %w", name, dir, vfs.ErrNotExist)
	}
	return b, found, nil
}

// dirGrow appends one fresh directory block. Under synchronous metadata
// the block and the directory inode reaching it must be durable before
// an entry lands in the block, or a crash orphans the entry.
func (fs *FS) dirGrow(in *layout.Inode, dir vfs.Ino) (*cache.Buf, error) {
	lb := in.Size / blockio.BlockSize
	phys, err := fs.tree.Map(in, dir, lb)
	if err != nil {
		return nil, err
	}
	b, err := fs.c.Alloc(phys)
	if err != nil {
		return nil, err
	}
	layout.InitDirBlock(b.Data)
	in.Size += blockio.BlockSize
	in.Mtime = fs.clk.Now()
	if fs.opts.Mode == ModeSync {
		if err := fs.c.WriteSync(b); err != nil {
			b.Release()
			return nil, err
		}
		if err := fs.putInode(dir, in, true); err != nil {
			b.Release()
			return nil, err
		}
	} else {
		fs.c.MarkDirty(b)
	}
	return b, nil
}

// dirPrepareAdd runs the existence check and the free-slot search as a
// single scan, so a create pays one directory traversal instead of two.
// When name is already present the returned buffer is pinned at its
// block and existing describes the entry; otherwise the buffer is
// pinned at a block with room (grown if need be) and slot is the offset
// of the record layout.InsertDirent will take or split.
func (fs *FS) dirPrepareAdd(in *layout.Inode, dir vfs.Ino, name string) (b *cache.Buf, slot int, existing *layout.Dirent, err error) {
	need := layout.DirentSize(len(name))
	var freeBlock int64
	haveFree := false
	var found layout.Dirent
	b, err = fs.forEachDirent(in, dir, func(fb *cache.Buf, e layout.Dirent) bool {
		if e.Ino != 0 && e.Name == name {
			found = e
			return true
		}
		if !haveFree && e.Fits(need) {
			freeBlock, slot, haveFree = fb.Block, e.Off, true
		}
		return false
	})
	if err != nil {
		return nil, 0, nil, err
	}
	if b != nil {
		return b, 0, &found, nil
	}
	if haveFree {
		// The block was scanned moments ago; this re-read is a cache hit.
		fb, err := fs.c.Read(freeBlock)
		if err != nil {
			return nil, 0, nil, err
		}
		return fb, slot, nil, nil
	}
	if b, err = fs.dirGrow(in, dir); err != nil {
		return nil, 0, nil, err
	}
	return b, 0, nil, nil
}

// dirAdd inserts a live entry, growing the directory by one block when
// no slot fits. The caller has already ruled out a duplicate name (or,
// as with rename's ".." rewrite, knows there is none). The caller
// supplies the parent inode and writes it back. The modified block is
// returned pinned for the caller to order its write (sync or delayed).
func (fs *FS) dirAdd(in *layout.Inode, dir vfs.Ino, name string, ino vfs.Ino, ftype vfs.FileType) (*cache.Buf, error) {
	need := layout.DirentSize(len(name))
	slot := 0
	b, err := fs.forEachDirent(in, dir, func(_ *cache.Buf, e layout.Dirent) bool {
		slot = e.Off
		return e.Fits(need)
	})
	if err != nil {
		return nil, err
	}
	if b == nil {
		if b, err = fs.dirGrow(in, dir); err != nil {
			return nil, err
		}
		slot = 0
	}
	if err := layout.InsertDirent(b.Data, slot, ino, ftype, name); err != nil {
		b.Release()
		return nil, err
	}
	in.Mtime = fs.clk.Now()
	return b, nil
}

// dirRemove deletes a live entry by name. The modified block is
// returned pinned.
func (fs *FS) dirRemove(in *layout.Inode, dir vfs.Ino, name string) (*cache.Buf, error) {
	b, target, err := fs.dirLookup(in, dir, name)
	if err != nil {
		return nil, err
	}
	if err := layout.RemoveDirent(b.Data, target.Off); err != nil {
		b.Release()
		return nil, err
	}
	in.Mtime = fs.clk.Now()
	return b, nil
}

// dirIsEmpty reports whether the directory holds only "." and "..".
func (fs *FS) dirIsEmpty(in *layout.Inode, dir vfs.Ino) (bool, error) {
	b, err := fs.forEachDirent(in, dir, func(_ *cache.Buf, e layout.Dirent) bool {
		return e.Ino != 0 && e.Name != "." && e.Name != ".."
	})
	if b != nil {
		b.Release()
	}
	return b == nil, err
}

// dirList collects the live entries, excluding "." and "..".
func (fs *FS) dirList(in *layout.Inode, dir vfs.Ino) ([]vfs.DirEntry, error) {
	var ents []vfs.DirEntry
	_, err := fs.forEachDirent(in, dir, func(_ *cache.Buf, e layout.Dirent) bool {
		if e.Ino != 0 && e.Name != "." && e.Name != ".." {
			ents = append(ents, vfs.DirEntry{Name: e.Name, Ino: vfs.Ino(e.Ino), Type: e.Type})
		}
		return false
	})
	return ents, err
}
