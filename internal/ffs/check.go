package ffs

import (
	"fmt"

	"cffs/internal/blockio"
	"cffs/internal/cache"
	"cffs/internal/fsck"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// Check is the offline consistency checker for baseline FFS images (the
// classic FSCK role [McKusick94]). The algorithm is fsck.Run's, the same
// one the C-FFS checker runs; this file supplies the FFS format: inodes
// at static table locations, variable-length directory records, and an
// inode bitmap beside each cylinder group's block bitmap.
func Check(dev *blockio.Device, repair bool) (*fsck.Report, error) {
	fs, err := Mount(dev, Options{})
	if err != nil {
		return nil, err
	}
	ck := checker{fs}
	return fsck.Run(&fsck.Layout{
		FS: "ffs", Cache: fs.c, Root: RootIno,
		Blocks: fs.sb.NBlocks, Groups: fs.sb.NCG, GroupStart: fs.sb.cgStart(0),
		GroupBlocks: fs.sb.CGBlocks, BitmapOff: cgBmapOff,
		ClaimFixed:   ck.claimFixed,
		GetInode:     fs.getInode,
		PutInode:     func(ino vfs.Ino, in *layout.Inode) error { return fs.putInode(ino, in, false) },
		ClearMapping: fs.tree.ClearMapping,
		Entries:      ck.entries, PutEntry: putEntry, AddEntry: ck.addEntry,
		Inodes:     ck.inodes,
		ZeroInode:  func(ino vfs.Ino) error { return fs.putInode(ino, &layout.Inode{}, false) },
		GroupState: ck.groupState,
	}, repair)
}

// checker holds the methods behind the FFS fsck.Layout.
type checker struct{ fs *FS }

func (ck checker) claimFixed(w *fsck.Walk) error {
	sb := &ck.fs.sb
	w.Claim(0, "superblock")
	for cg := 0; cg < sb.NCG; cg++ {
		start := sb.cgStart(cg)
		w.Claim(start, fmt.Sprintf("cg %d header", cg))
		for b := int64(1); b <= int64(sb.inodeBlocksPerCG()); b++ {
			w.Claim(start+b, fmt.Sprintf("cg %d inode table", cg))
		}
	}
	return nil
}

func (ck checker) entries(in *layout.Inode, dir vfs.Ino, fn func(fsck.Entry)) error {
	_, err := ck.fs.forEachDirent(in, dir, func(b *cache.Buf, e layout.Dirent) bool {
		if e.Ino != 0 {
			fn(fsck.Entry{Name: e.Name, Ino: vfs.Ino(e.Ino), Type: e.Type,
				Loc: fsck.Loc{Block: b.Block, Off: e.Off, Len: e.Reclen}})
		}
		return false
	})
	return err
}

// putEntry overwrites one record, keeping its reclen. Freeing in place
// (ino 0) is always valid; slack merging is an optimization the next
// dirAdd can redo.
func putEntry(block []byte, l fsck.Loc, name string, target vfs.Ino) {
	ft := vfs.TypeDir
	if target == 0 {
		ft = vfs.TypeInvalid
	}
	layout.EncodeDirent(block, l.Off, uint32(target), l.Len, ft, name)
}

func (ck checker) addEntry(in *layout.Inode, dir vfs.Ino, name string, target vfs.Ino) error {
	b, err := ck.fs.dirAdd(in, dir, name, target, vfs.TypeDir)
	if err != nil {
		return err
	}
	ck.fs.c.MarkDirty(b)
	b.Release()
	return ck.fs.putInode(dir, in, false)
}

// inodes reads every slot of every inode table: liveness is the inode's
// own type field, the inode bitmap being what the check verifies.
func (ck checker) inodes(fn func(ino vfs.Ino, alive bool)) {
	sb := &ck.fs.sb
	for ino := vfs.Ino(1); int64(ino) <= int64(sb.NCG)*int64(sb.InodesPerCG); ino++ {
		if in, err := ck.fs.getInode(ino); err == nil {
			fn(ino, in.Alive())
		}
	}
}

// groupState compares — or with rewrite set rebuilds — one cylinder
// group's inode bitmap against the inodes the walk reached.
func (ck checker) groupState(cg int, hdr *cache.Buf, w *fsck.Walk, rewrite bool) int {
	ibm, n := ck.fs.inodeBitmap(hdr), 0
	for i := 0; i < ibm.Len(); i++ {
		ino := vfs.Ino(cg*ibm.Len() + i + 1)
		switch referenced := w.Referenced(ino); {
		case referenced == ibm.IsSet(i):
		case !rewrite:
			w.Problemf("inode %d bitmap bit %v, reachability %v", ino, ibm.IsSet(i), referenced)
		case referenced:
			ibm.Set(i)
			n++
		default:
			ibm.Clear(i)
			n++
		}
	}
	return n
}
