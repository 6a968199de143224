package ffs

import (
	"fmt"

	"cffs/internal/bmap"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// inodeLoc returns the inode-table block and slot holding ino.
func (fs *FS) inodeLoc(ino vfs.Ino) (int64, int, error) {
	if ino < 1 || int64(ino) > int64(fs.sb.NCG)*int64(fs.sb.InodesPerCG) {
		return 0, 0, fmt.Errorf("ffs: inode %d: %w", ino, vfs.ErrInvalid)
	}
	cg := fs.cgOfIno(ino)
	idx := int(ino-1) % fs.sb.InodesPerCG
	block := fs.sb.cgStart(cg) + 1 + int64(idx/layout.InodesPerBlock)
	return block, idx % layout.InodesPerBlock, nil
}

// getInode reads an inode from its table block.
func (fs *FS) getInode(ino vfs.Ino) (layout.Inode, error) {
	var in layout.Inode
	block, slot, err := fs.inodeLoc(ino)
	if err != nil {
		return in, err
	}
	b, err := fs.c.Read(block)
	if err != nil {
		return in, err
	}
	defer b.Release()
	in.Decode(b.Data[slot*layout.InodeSize:])
	return in, nil
}

// getLiveInode is getInode plus an existence check.
func (fs *FS) getLiveInode(ino vfs.Ino) (layout.Inode, error) {
	in, err := fs.getInode(ino)
	if err != nil {
		return in, err
	}
	if !in.Alive() {
		return in, fmt.Errorf("ffs: inode %d: %w", ino, vfs.ErrNotExist)
	}
	return in, nil
}

// putInode writes an inode back to its table block; sync forces the
// ordered write in ModeSync (creates, deletes, link-count changes).
func (fs *FS) putInode(ino vfs.Ino, in *layout.Inode, sync bool) error {
	block, slot, err := fs.inodeLoc(ino)
	if err != nil {
		return err
	}
	b, err := fs.c.Read(block)
	if err != nil {
		return err
	}
	defer b.Release()
	in.Encode(b.Data[slot*layout.InodeSize:])
	if sync {
		return fs.syncMeta(b)
	}
	fs.c.MarkDirty(b)
	return nil
}

// newTree builds the mount's block-pointer tree over this allocator:
// every block in the owning inode's cylinder group, a data block right
// after the file's previous one when there is one.
func (fs *FS) newTree() *bmap.Tree {
	return bmap.New(fs.c, bmap.Alloc{
		Data: func(_ *layout.Inode, ino vfs.Ino, _ int64, prev uint32) (int64, error) {
			pref := int64(-1)
			if prev != 0 {
				pref = int64(prev) + 1
			}
			return fs.allocBlock(fs.cgOfIno(ino), pref, ino)
		},
		Meta: func(_ *layout.Inode, ino vfs.Ino) (int64, error) {
			return fs.allocBlock(fs.cgOfIno(ino), -1, ino)
		},
		Free: fs.freeBlock,
	})
}
