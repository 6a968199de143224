package ffs

import (
	"cffs/internal/blockio"
	"cffs/internal/cache"
	"cffs/internal/obs"
	"cffs/internal/vfs"
)

// File data I/O. Reads go through the buffer cache one block at a time
// (the paper's base file system does not prefetch); writes are delayed
// and reach the disk through the clustered write-back path.

// ReadAt implements vfs.FileSystem.
func (fs *FS) ReadAt(ino vfs.Ino, p []byte, off int64) (int, error) {
	defer fs.trk.Begin(obs.OpReadAt).End()
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
			// Hole: reads as zeros.
			for i := 0; i < n; i++ {
				p[read+i] = 0
			}
		} else {
			b, err := fs.c.Read(phys)
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

// WriteAt implements vfs.FileSystem.
func (fs *FS) WriteAt(ino vfs.Ino, p []byte, off int64) (int, error) {
	defer fs.trk.Begin(obs.OpWriteAt).End()
	fs.wb.Admit()
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
			// Full overwrite, or a block with no prior contents (fresh
			// allocation / hole fill): never read the disk.
			b, err = fs.c.Alloc(phys)
			if err == nil && !fullBlock {
				for i := range b.Data {
					b.Data[i] = 0
				}
			}
		} else {
			b, err = fs.c.Read(phys)
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
