package core

import (
	"cffs/internal/blockio"
	"cffs/internal/cache"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// File data I/O. The read path implements the group read: a cache miss
// on any grouped block fetches the whole allocated span of its group in
// one disk request (where that pays — see groupread.go), scattering
// every block into the cache by physical address (no back-translation —
// the dual-indexed cache absorbs them, and later logical accesses find
// them via the owning inodes). Writes are delayed; grouped blocks leave
// the write queue as one clustered request because they are physically
// adjacent.

// readAt implements ReadAt; the FS lock is held.
func (fs *FS) readAt(ino vfs.Ino, p []byte, off int64) (int, error) {
	in, err := fs.getLiveInode(ino)
	if err != nil {
		return 0, err
	}
	if in.Type == vfs.TypeDir {
		return 0, vfs.ErrIsDir
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	if off >= in.Size {
		return 0, nil
	}
	if max := in.Size - off; int64(len(p)) > max {
		p = p[:max]
	}
	if isInline(&in) {
		// Immediate file: the contents live in the inode itself.
		return copy(p, in.Inline[off:in.Size]), nil
	}
	last := (off + int64(len(p)) - 1) / blockio.BlockSize
	read := 0
	for read < len(p) {
		lb := (off + int64(read)) / blockio.BlockSize
		bo := int((off + int64(read)) % blockio.BlockSize)
		n := blockio.BlockSize - bo
		if n > len(p)-read {
			n = len(p) - read
		}
		phys, err := fs.tree.Resolve(&in, lb)
		if err != nil {
			return read, err
		}
		if phys == 0 {
			for i := 0; i < n; i++ {
				p[read+i] = 0
			}
		} else {
			b, err := fs.readFileBlock(&in, lb, phys, last)
			if err != nil {
				return read, err
			}
			fs.c.SetID(b, cache.ID{Ino: uint64(ino), LBlock: lb})
			copy(p[read:read+n], b.Data[bo:])
			b.Release()
		}
		read += n
	}
	return read, nil
}

// writeAt implements WriteAt; the FS write lock is held.
func (fs *FS) writeAt(ino vfs.Ino, p []byte, off int64) (int, error) {
	in, err := fs.getLiveInode(ino)
	if err != nil {
		return 0, err
	}
	if in.Type == vfs.TypeDir {
		return 0, vfs.ErrIsDir
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	end := off + int64(len(p))
	if fs.opts.Immediate && end <= layout.InlineSize && in.NBlocks == 0 && in.Direct[0] == 0 {
		// The whole file fits the inode: no data blocks at all. With
		// embedded inodes this makes a tiny file's create+data a single
		// directory-block write.
		copy(in.Inline[off:], p)
		if end > in.Size {
			in.Size = end
		}
		in.Mtime = fs.clk.Now()
		return len(p), fs.putInode(ino, &in, false)
	}
	if isInline(&in) {
		// Outgrowing (or bypassing) the inline form: spill to a block.
		if err := fs.spillInline(&in, ino); err != nil {
			return 0, err
		}
	}
	written := 0
	for written < len(p) {
		pos := off + int64(written)
		lb := pos / blockio.BlockSize
		bo := int(pos % blockio.BlockSize)
		n := blockio.BlockSize - bo
		if n > len(p)-written {
			n = len(p) - written
		}
		prior, err := fs.tree.Resolve(&in, lb)
		if err != nil {
			return written, err
		}
		phys, err := fs.tree.Map(&in, ino, lb)
		if err != nil {
			return written, err
		}
		var b *cache.Buf
		fullBlock := bo == 0 && n == blockio.BlockSize
		if fullBlock || prior == 0 {
			b, err = fs.c.Alloc(phys)
			if err == nil && !fullBlock {
				for i := range b.Data {
					b.Data[i] = 0
				}
			}
		} else {
			b, err = fs.readBlockGrouped(phys)
		}
		if err != nil {
			return written, err
		}
		copy(b.Data[bo:bo+n], p[written:written+n])
		fs.c.SetID(b, cache.ID{Ino: uint64(ino), LBlock: lb})
		fs.c.MarkDirty(b)
		b.Release()
		written += n
		if pos+int64(n) > in.Size {
			in.Size = pos + int64(n)
		}
	}
	in.Mtime = fs.clk.Now()
	return written, fs.putInode(ino, &in, false)
}

// readFileBlock fetches file block lb of a read request that runs to
// block last. A miss looks the block's group descriptor up once and
// then issues at most one request ahead of the block's own read: the
// whole group where groupReadWanted says that pays; where it is
// declined, the request's own physically contiguous blocks as one
// demand read instead of block by block; and for a block outside any
// group, sequential readahead — up to Options.Readahead contiguous
// blocks of the same file in one scatter request.
func (fs *FS) readFileBlock(in *layout.Inode, lb, phys, last int64) (*cache.Buf, error) {
	if (fs.opts.Grouping || fs.opts.Readahead > 0) && fs.c.Peek(phys) == nil {
		g, grouped := fs.groupOf(phys)
		var err error
		switch {
		case grouped && fs.groupReadWanted(g.id):
			err = fs.groupRead(g)
		case grouped:
			if run := fs.contiguous(in, lb, phys, min(last-lb+1, blockio.MaxTransferBlocks)); run > 1 {
				err = fs.c.ReadDemand(phys, run)
			}
		case fs.opts.Readahead > 0:
			fileBlocks := (in.Size + blockio.BlockSize - 1) / blockio.BlockSize
			if run := fs.contiguous(in, lb, phys, min(int64(fs.opts.Readahead), fileBlocks-lb)); run > 1 {
				err = fs.c.ReadRun(phys, run)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return fs.c.Read(phys)
}

// contiguous counts how many of the file's blocks from lb on, at most
// limit, sit at consecutive physical addresses starting at phys.
func (fs *FS) contiguous(in *layout.Inode, lb, phys, limit int64) int {
	run := int64(1)
	for run < limit {
		np, err := fs.tree.Resolve(in, lb+run)
		if err != nil || np != phys+run {
			break
		}
		run++
	}
	return int(run)
}

// isInline reports whether a regular file's contents are stored in the
// inode's spare bytes (immediate file).
func isInline(in *layout.Inode) bool {
	return in.Type == vfs.TypeReg && in.Size > 0 &&
		in.Size <= layout.InlineSize && in.NBlocks == 0 && in.Direct[0] == 0
}

// spillInline moves an immediate file's data into a freshly allocated
// first block, clearing the inline area. The caller holds the inode and
// writes it back.
func (fs *FS) spillInline(in *layout.Inode, ino vfs.Ino) error {
	phys, err := fs.tree.Map(in, ino, 0)
	if err != nil {
		return err
	}
	b, err := fs.c.Alloc(phys)
	if err != nil {
		return err
	}
	for i := range b.Data {
		b.Data[i] = 0
	}
	copy(b.Data, in.Inline[:in.Size])
	fs.c.MarkDirty(b)
	b.Release()
	for i := range in.Inline {
		in.Inline[i] = 0
	}
	return nil
}
