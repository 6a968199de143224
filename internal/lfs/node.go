package lfs

import (
	"fmt"
	"sort"

	"cffs/internal/blockio"
	"cffs/internal/layout"
	"cffs/internal/obs"
	"cffs/internal/vfs"
)

// Inodes, the inode map, block mapping, and file I/O.
//
// An imap entry packs the inode's logged location as (blockAddr<<5|slot)
// — 32 inodes per logged inode block. Inodes live in memory between
// syncs (fs.inodes) and are written out by flushInodes.

func imapEntry(addr int64, slot int) uint32 { return uint32(addr)<<5 | uint32(slot) }
func imapAddr(e uint32) (int64, int)        { return int64(e >> 5), int(e & 31) }

// allocIno claims a free inode number.
func (fs *FS) allocIno() (vfs.Ino, error) {
	if len(fs.free) == 0 {
		return 0, fmt.Errorf("lfs: %w: out of inodes", vfs.ErrNoSpace)
	}
	ino := fs.free[len(fs.free)-1]
	fs.free = fs.free[:len(fs.free)-1]
	return ino, nil
}

// freeIno releases an inode number and its logged copy.
func (fs *FS) freeIno(ino vfs.Ino) {
	delete(fs.inodes, ino)
	delete(fs.dirty, ino)
	fs.dropInodeHome(ino)
	fs.imap[int(ino)-1] = 0
	fs.markImapDirty(int(ino) - 1)
	fs.free = append(fs.free, ino)
}

// dropInodeHome releases ino's claim on its logged inode block, killing
// the block when no imap entry references it anymore.
func (fs *FS) dropInodeHome(ino vfs.Ino) {
	e := fs.imap[int(ino)-1]
	if e == 0 {
		return
	}
	addr, _ := imapAddr(e)
	fs.inoRefs[addr]--
	if fs.inoRefs[addr] <= 0 {
		delete(fs.inoRefs, addr)
		fs.dead(addr)
	}
}

// getInode returns the in-memory inode, loading it from the log if
// needed. The returned pointer is shared: mutations must be followed by
// marking the inode dirty.
func (fs *FS) getInode(ino vfs.Ino) (*layout.Inode, error) {
	if in, ok := fs.inodes[ino]; ok {
		return in, nil
	}
	return fs.loadInode(ino)
}

func (fs *FS) loadInode(ino vfs.Ino) (*layout.Inode, error) {
	if ino < 1 || int(ino) > MaxInodes {
		return nil, fmt.Errorf("lfs: inode %d: %w", ino, vfs.ErrInvalid)
	}
	e := fs.imap[int(ino)-1]
	if e == 0 {
		return nil, fmt.Errorf("lfs: inode %d: %w", ino, vfs.ErrNotExist)
	}
	addr, slot := imapAddr(e)
	b, err := fs.c.Read(addr)
	if err != nil {
		return nil, err
	}
	in := new(layout.Inode)
	in.Decode(b.Data[slot*layout.InodeSize:])
	b.Release()
	fs.inodes[ino] = in
	return in, nil
}

// getLiveInode adds the existence check.
func (fs *FS) getLiveInode(ino vfs.Ino) (*layout.Inode, error) {
	in, err := fs.getInode(ino)
	if err != nil {
		return nil, err
	}
	if !in.Alive() {
		return nil, fmt.Errorf("lfs: inode %d: %w", ino, vfs.ErrNotExist)
	}
	return in, nil
}

func (fs *FS) markImapDirty(idx int) {
	fs.imapDirty[idx/inosPerImapBlock] = true
}

// flushInodes writes every dirty inode into freshly logged inode blocks
// and repoints the imap.
func (fs *FS) flushInodes() error {
	if len(fs.dirty) == 0 {
		return nil
	}
	var inos []int
	for ino := range fs.dirty {
		inos = append(inos, int(ino))
	}
	sort.Ints(inos)
	for i := 0; i < len(inos); i += layout.InodesPerBlock {
		end := i + layout.InodesPerBlock
		if end > len(inos) {
			end = len(inos)
		}
		addr, err := fs.allocLog(owner{kind: ownInodeBlock})
		if err != nil {
			return err
		}
		b, err := fs.c.Alloc(addr)
		if err != nil {
			return err
		}
		for j := range b.Data {
			b.Data[j] = 0
		}
		for slot, k := 0, i; k < end; slot, k = slot+1, k+1 {
			ino := vfs.Ino(inos[k])
			in := fs.inodes[ino]
			if in == nil {
				in = &layout.Inode{}
			}
			in.Encode(b.Data[slot*layout.InodeSize:])
			fs.dropInodeHome(ino)
			fs.imap[int(ino)-1] = imapEntry(addr, slot)
			fs.inoRefs[addr]++
			fs.markImapDirty(int(ino) - 1)
		}
		fs.c.MarkDirty(b)
		b.Release()
	}
	fs.dirty = make(map[vfs.Ino]bool)
	return nil
}

// flushImap logs every dirty imap block and updates the checkpoint's
// view of their homes.
func (fs *FS) flushImap() error {
	for i := 0; i < imapBlocks; i++ {
		if !fs.imapDirty[i] {
			continue
		}
		old := int64(fs.imapHome[i])
		addr, err := fs.allocLog(owner{kind: ownImapBlock, idx: int64(i)})
		if err != nil {
			return err
		}
		b, err := fs.c.Alloc(addr)
		if err != nil {
			return err
		}
		le := leBytes{b.Data}
		for s := 0; s < inosPerImapBlock; s++ {
			le.pu32(s*4, fs.imap[i*inosPerImapBlock+s])
		}
		fs.c.MarkDirty(b)
		b.Release()
		if old != 0 {
			fs.dead(old)
		}
		fs.imapHome[i] = uint32(addr)
		fs.imapDirty[i] = false
	}
	return nil
}

// bmap resolves file block lb to its log address (0 = hole). Read-only:
// writers go through updateFileBlock, which performs the remapping.
func (fs *FS) bmap(in *layout.Inode, lb int64) (int64, error) {
	if lb < 0 || lb >= layout.MaxFileBlocks {
		return 0, fmt.Errorf("lfs: block %d: %w", lb, vfs.ErrInvalid)
	}
	if lb < layout.NDirect {
		return int64(in.Direct[lb]), nil
	}
	rel := lb - layout.NDirect
	if rel < layout.PtrsPerBlock {
		if in.Indir == 0 {
			return 0, nil
		}
		ib, err := fs.c.Read(int64(in.Indir))
		if err != nil {
			return 0, err
		}
		p := leBytes{ib.Data}.u32(int(rel) * 4)
		ib.Release()
		return int64(p), nil
	}
	rel -= layout.PtrsPerBlock
	if in.DIndir == 0 {
		return 0, nil
	}
	db, err := fs.c.Read(int64(in.DIndir))
	if err != nil {
		return 0, err
	}
	l2 := leBytes{db.Data}.u32(int(rel/layout.PtrsPerBlock) * 4)
	db.Release()
	if l2 == 0 {
		return 0, nil
	}
	ib, err := fs.c.Read(int64(l2))
	if err != nil {
		return 0, err
	}
	p := leBytes{ib.Data}.u32(int(rel%layout.PtrsPerBlock) * 4)
	ib.Release()
	return int64(p), nil
}

// ensureIndirect makes the indirect chain for lb exist, logging fresh
// indirect blocks as needed, and returns a setter for the mapping slot.
func (fs *FS) ensureIndirect(in *layout.Inode, ino vfs.Ino, lb int64) (func(uint32) error, error) {
	if lb < layout.NDirect {
		return func(a uint32) error { in.Direct[lb] = a; return nil }, nil
	}
	rel := lb - layout.NDirect
	newMeta := func(kind ownerKind, idx int64) (int64, error) {
		addr, err := fs.allocLog(owner{ino: ino, kind: kind, idx: idx})
		if err != nil {
			return 0, err
		}
		b, err := fs.c.Alloc(addr)
		if err != nil {
			return 0, err
		}
		for i := range b.Data {
			b.Data[i] = 0
		}
		fs.c.MarkDirty(b)
		b.Release()
		in.NBlocks++
		return addr, nil
	}
	var indir int64
	var slot int64
	if rel < layout.PtrsPerBlock {
		if in.Indir == 0 {
			a, err := newMeta(ownIndir1, 0)
			if err != nil {
				return nil, err
			}
			in.Indir = uint32(a)
			fs.dirty[ino] = true
		}
		indir, slot = int64(in.Indir), rel
	} else {
		rel -= layout.PtrsPerBlock
		if in.DIndir == 0 {
			a, err := newMeta(ownDIndir, 0)
			if err != nil {
				return nil, err
			}
			in.DIndir = uint32(a)
			fs.dirty[ino] = true
		}
		db, err := fs.c.Read(int64(in.DIndir))
		if err != nil {
			return nil, err
		}
		l2slot := rel / layout.PtrsPerBlock
		l2 := leBytes{db.Data}.u32(int(l2slot) * 4)
		if l2 == 0 {
			a, err := newMeta(ownIndir2, l2slot)
			if err != nil {
				db.Release()
				return nil, err
			}
			leBytes{db.Data}.pu32(int(l2slot)*4, uint32(a))
			fs.c.MarkDirty(db)
			l2 = uint32(a)
		}
		db.Release()
		indir, slot = int64(l2), rel%layout.PtrsPerBlock
	}
	return func(a uint32) error {
		ib, err := fs.c.Read(indir)
		if err != nil {
			return err
		}
		leBytes{ib.Data}.pu32(int(slot)*4, a)
		fs.c.MarkDirty(ib)
		ib.Release()
		return nil
	}, nil
}

// updateFileBlock applies mutate to file block lb, remapping it to the
// log head unless its current copy is still dirty in the cache (in which
// case the pending copy is updated in place — one logged copy per
// segment write, as in real LFS).
func (fs *FS) updateFileBlock(in *layout.Inode, ino vfs.Ino, lb int64, mutate func(p []byte)) error {
	old, err := fs.bmap(in, lb)
	if err != nil {
		return err
	}
	if old != 0 {
		if b := fs.c.Peek(old); b != nil && b.Dirty() {
			bb, err := fs.c.Read(old)
			if err != nil {
				return err
			}
			mutate(bb.Data)
			fs.c.MarkDirty(bb)
			bb.Release()
			return nil
		}
	}
	set, err := fs.ensureIndirect(in, ino, lb)
	if err != nil {
		return err
	}
	addr, err := fs.allocLog(owner{ino: ino, kind: ownData, idx: lb})
	if err != nil {
		return err
	}
	b, err := fs.c.Alloc(addr)
	if err != nil {
		return err
	}
	if old != 0 {
		ob, err := fs.c.Read(old)
		if err != nil {
			return err
		}
		copy(b.Data, ob.Data)
		ob.Release()
	} else {
		for i := range b.Data {
			b.Data[i] = 0
		}
		in.NBlocks++
	}
	mutate(b.Data)
	fs.c.MarkDirty(b)
	b.Release()
	if old != 0 {
		fs.dead(old)
	}
	if err := set(uint32(addr)); err != nil {
		return err
	}
	fs.dirty[ino] = true
	return nil
}

// truncate frees blocks at or beyond newSize.
func (fs *FS) truncate(in *layout.Inode, ino vfs.Ino, newSize int64) error {
	if newSize < 0 {
		return vfs.ErrInvalid
	}
	oldBlocks := (in.Size + blockio.BlockSize - 1) / blockio.BlockSize
	keep := (newSize + blockio.BlockSize - 1) / blockio.BlockSize
	for lb := keep; lb < oldBlocks; lb++ {
		addr, err := fs.bmap(in, lb)
		if err != nil {
			return err
		}
		if addr == 0 {
			continue
		}
		fs.dead(addr)
		in.NBlocks--
		if lb < layout.NDirect {
			in.Direct[lb] = 0
		} else if err := fs.setPtr(in, lb, 0); err != nil {
			return err
		}
	}
	if keep <= layout.NDirect {
		if in.Indir != 0 {
			fs.dead(int64(in.Indir))
			in.Indir = 0
			in.NBlocks--
		}
		if in.DIndir != 0 {
			db, err := fs.c.Read(int64(in.DIndir))
			if err != nil {
				return err
			}
			for s := 0; s < layout.PtrsPerBlock; s++ {
				if p := (leBytes{db.Data}).u32(s * 4); p != 0 {
					fs.dead(int64(p))
					in.NBlocks--
				}
			}
			db.Release()
			fs.dead(int64(in.DIndir))
			in.DIndir = 0
			in.NBlocks--
		}
	}
	if newSize < in.Size && newSize%blockio.BlockSize != 0 {
		lb := newSize / blockio.BlockSize
		if addr, err := fs.bmap(in, lb); err == nil && addr != 0 {
			if err := fs.updateFileBlock(in, ino, lb, func(p []byte) {
				for i := newSize % blockio.BlockSize; i < blockio.BlockSize; i++ {
					p[i] = 0
				}
			}); err != nil {
				return err
			}
		}
	}
	in.Size = newSize
	in.Mtime = fs.clk.Now()
	fs.dirty[ino] = true
	return nil
}

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
		addr, err := fs.bmap(in, lb)
		if err != nil {
			return read, err
		}
		if addr == 0 {
			for i := 0; i < n; i++ {
				p[read+i] = 0
			}
		} else {
			b, err := fs.c.Read(addr)
			if err != nil {
				return read, err
			}
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
		chunk := p[written : written+n]
		if err := fs.updateFileBlock(in, ino, lb, func(buf []byte) {
			copy(buf[bo:bo+n], chunk)
		}); err != nil {
			return written, err
		}
		written += n
		if pos+int64(n) > in.Size {
			in.Size = pos + int64(n)
		}
	}
	in.Mtime = fs.clk.Now()
	fs.dirty[ino] = true
	return written, nil
}
