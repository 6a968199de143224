package lfs

import (
	"encoding/binary"
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
		le := binary.LittleEndian
		for s := 0; s < inosPerImapBlock; s++ {
			le.PutUint32(b.Data[s*4:], fs.imap[i*inosPerImapBlock+s])
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

// ensurePtrBlocks makes the pointer blocks on the way to file block lb
// exist, logging fresh ones as needed. Each is logged under the owner
// the cleaner will need to repoint it, which is why this is not the
// shared tree's allocating walk.
func (fs *FS) ensurePtrBlocks(in *layout.Inode, ino vfs.Ino, lb int64) error {
	rel := lb - layout.NDirect
	if rel < 0 {
		return nil
	}
	newMeta := func(at *uint32, kind ownerKind, idx int64) error {
		addr, err := fs.allocLog(owner{ino: ino, kind: kind, idx: idx})
		if err != nil {
			return err
		}
		b, err := fs.c.Alloc(addr)
		if err != nil {
			return err
		}
		clear(b.Data)
		fs.c.MarkDirty(b)
		b.Release()
		in.NBlocks++
		*at = uint32(addr)
		fs.dirty[ino] = true
		return nil
	}
	if rel < layout.PtrsPerBlock {
		if in.Indir != 0 {
			return nil
		}
		return newMeta(&in.Indir, ownIndir1, 0)
	}
	rel -= layout.PtrsPerBlock
	if in.DIndir == 0 {
		if err := newMeta(&in.DIndir, ownDIndir, 0); err != nil {
			return err
		}
	}
	db, err := fs.c.Read(int64(in.DIndir))
	if err != nil {
		return err
	}
	defer db.Release()
	l2slot := rel / layout.PtrsPerBlock
	if binary.LittleEndian.Uint32(db.Data[l2slot*4:]) != 0 {
		return nil
	}
	var l2 uint32
	if err := newMeta(&l2, ownIndir2, l2slot); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(db.Data[l2slot*4:], l2)
	fs.c.MarkDirty(db)
	return nil
}

// updateFileBlock applies mutate to file block lb, remapping it to the
// log head unless its current copy is still dirty in the cache (in which
// case the pending copy is updated in place — one logged copy per
// segment write, as in real LFS). A mutate that fails has left the bytes
// as they were; the remap still completes, so the tree stays whole, and
// the error is returned.
func (fs *FS) updateFileBlock(in *layout.Inode, ino vfs.Ino, lb int64, mutate func(p []byte) error) error {
	old, err := fs.tree.Resolve(in, lb)
	if err != nil {
		return err
	}
	if old != 0 {
		if b := fs.c.Peek(old); b != nil && b.Dirty() {
			bb, err := fs.c.Read(old)
			if err != nil {
				return err
			}
			err = mutate(bb.Data)
			fs.c.MarkDirty(bb)
			bb.Release()
			return err
		}
	}
	if err := fs.ensurePtrBlocks(in, ino, lb); err != nil {
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
	merr := mutate(b.Data)
	fs.c.MarkDirty(b)
	b.Release()
	if old != 0 {
		fs.dead(old)
	}
	if err := fs.setMapping(in, lb, uint32(addr)); err != nil {
		return err
	}
	fs.dirty[ino] = true
	return merr
}

// truncate frees blocks at or beyond newSize. The tail of the block the
// new end falls in is zeroed like any other write to it: through the log.
func (fs *FS) truncate(in *layout.Inode, ino vfs.Ino, newSize int64) error {
	if newSize < 0 {
		return vfs.ErrInvalid
	}
	if err := fs.tree.Shrink(in, (newSize+blockio.BlockSize-1)/blockio.BlockSize); err != nil {
		return err
	}
	if newSize < in.Size && newSize%blockio.BlockSize != 0 {
		lb := newSize / blockio.BlockSize
		addr, err := fs.tree.Resolve(in, lb)
		if err != nil {
			return err
		}
		if addr != 0 {
			if err := fs.updateFileBlock(in, ino, lb, func(p []byte) error {
				clear(p[newSize%blockio.BlockSize:])
				return nil
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
		addr, err := fs.tree.Resolve(in, lb)
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
		if err := fs.updateFileBlock(in, ino, lb, func(buf []byte) error {
			copy(buf[bo:bo+n], chunk)
			return nil
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
