package ffs

import (
	"fmt"

	"cffs/internal/blockio"
	"cffs/internal/cache"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// Allocation. FFS policy [McKusick84]: place an inode in the cylinder
// group of its directory (directories themselves go to an underused
// group), and place data blocks in the cylinder group of their inode.
// Within a group, the first block of a file starts from a position
// hashed on the inode number — related files share a *region* but are
// not adjacent, which is exactly the locality-without-adjacency the
// paper identifies as the conventional approach's limit. Later blocks of
// the same file prefer physical contiguity (block clustering
// [McVoy91]).

// blockBitmap views a cylinder-group header buffer's block bitmap.
func (fs *FS) blockBitmap(hdr *cache.Buf) layout.Bitmap {
	return layout.NewBitmap(hdr.Data[cgBmapOff:], fs.sb.CGBlocks)
}

// inodeBitmap views a cylinder-group header buffer's inode bitmap.
func (fs *FS) inodeBitmap(hdr *cache.Buf) layout.Bitmap {
	off := cgBmapOff + (fs.sb.CGBlocks+7)/8
	return layout.NewBitmap(hdr.Data[off:], fs.sb.InodesPerCG)
}

// cgOf returns the cylinder group containing a physical block.
func (fs *FS) cgOf(phys int64) int {
	return int((phys - 1) / int64(fs.sb.CGBlocks))
}

// cgOfIno returns the cylinder group holding an inode.
func (fs *FS) cgOfIno(ino vfs.Ino) int {
	return int(ino-1) / fs.sb.InodesPerCG
}

// allocInode claims a free inode, preferring cylinder group prefCG.
func (fs *FS) allocInode(prefCG int) (vfs.Ino, error) {
	for k := 0; k < fs.sb.NCG; k++ {
		cg := (prefCG + k) % fs.sb.NCG
		hdr, err := fs.c.Read(fs.sb.cgStart(cg))
		if err != nil {
			return 0, err
		}
		bm := fs.inodeBitmap(hdr)
		idx := bm.FindClear(0)
		if idx < 0 {
			hdr.Release()
			continue
		}
		bm.Set(idx)
		fs.c.MarkDirty(hdr)
		hdr.Release()
		return vfs.Ino(cg*fs.sb.InodesPerCG + idx + 1), nil
	}
	return 0, fmt.Errorf("ffs: %w: out of inodes", vfs.ErrNoSpace)
}

// freeInode releases an inode number (bitmap update is delayed-write in
// both modes, as in real FFS).
func (fs *FS) freeInode(ino vfs.Ino) error {
	cg := fs.cgOfIno(ino)
	hdr, err := fs.c.Read(fs.sb.cgStart(cg))
	if err != nil {
		return err
	}
	defer hdr.Release()
	bm := fs.inodeBitmap(hdr)
	idx := int(ino-1) % fs.sb.InodesPerCG
	if !bm.IsSet(idx) {
		return fmt.Errorf("ffs: double free of inode %d", ino)
	}
	bm.Clear(idx)
	fs.c.MarkDirty(hdr)
	return nil
}

// allocBlock claims a data block. pref is the preferred physical block
// (for file-internal contiguity); pass pref < 0 to start from a position
// hashed on the inode number, which scatters unrelated files across the
// group. The preferred cylinder group is tried first, then the rest.
func (fs *FS) allocBlock(prefCG int, pref int64, ino vfs.Ino) (int64, error) {
	for k := 0; k < fs.sb.NCG; k++ {
		cg := (prefCG + k) % fs.sb.NCG
		start := fs.sb.cgStart(cg)
		hdr, err := fs.c.Read(start)
		if err != nil {
			return 0, err
		}
		bm := fs.blockBitmap(hdr)
		from := 0
		if pref >= 0 && fs.cgOf(pref) == cg {
			from = int(pref - start)
		} else {
			// Hashed start within the data area: unrelated files land in
			// different regions of the group.
			dataOff := int(fs.sb.dataStart(cg) - start)
			span := fs.sb.CGBlocks - dataOff
			from = dataOff + int(mix64(uint64(ino))%uint64(span))
		}
		idx := bm.FindClear(from)
		if idx < 0 {
			hdr.Release()
			continue
		}
		bm.Set(idx)
		fs.c.MarkDirty(hdr)
		hdr.Release()
		phys := start + int64(idx)
		// The found bit can be a metadata block only if the bitmap was
		// corrupted; guard against handing out block 0 or headers.
		if phys < fs.sb.dataStart(cg) {
			return 0, fmt.Errorf("ffs: allocator chose metadata block %d", phys)
		}
		return phys, nil
	}
	return 0, fmt.Errorf("ffs: %w", vfs.ErrNoSpace)
}

// freeBlock releases a data block, drops any cached copy so freed data
// is never written back, and adds the block to the discard run of the
// truncate that is freeing it — the same lever, at the same point, as
// core's freeBlock, so a flash comparison of the two layouts compares
// layouts. The name was removed by an ordered write before truncate ran
// (ModeSync), which is what makes the block reusable and so discardable.
func (fs *FS) freeBlock(phys int64, run *blockio.DiscardRun) error {
	cg := fs.cgOf(phys)
	if cg < 0 || cg >= fs.sb.NCG || phys < fs.sb.dataStart(cg) {
		return fmt.Errorf("ffs: free of metadata block %d", phys)
	}
	hdr, err := fs.c.Read(fs.sb.cgStart(cg))
	if err != nil {
		return err
	}
	defer hdr.Release()
	bm := fs.blockBitmap(hdr)
	idx := int(phys - fs.sb.cgStart(cg))
	if !bm.IsSet(idx) {
		return fmt.Errorf("ffs: double free of block %d", phys)
	}
	bm.Clear(idx)
	fs.c.MarkDirty(hdr)
	fs.c.Invalidate(phys)
	return run.Add(fs.dev, phys)
}

// mix64 is the splitmix64 finalizer: a strong bit mixer so that
// consecutive inode numbers hash to unrelated placement starts.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pickDirCG chooses a cylinder group for a new directory: a simple
// rotor, approximating FFS's search for an underused group.
func (fs *FS) pickDirCG() int {
	cg := fs.dirRotor
	fs.dirRotor = (fs.dirRotor + 1) % fs.sb.NCG
	return cg
}

// FreeBlocks counts free data blocks (for tests and df-style tools).
func (fs *FS) FreeBlocks() (int64, error) {
	var total int64
	for cg := 0; cg < fs.sb.NCG; cg++ {
		hdr, err := fs.c.Read(fs.sb.cgStart(cg))
		if err != nil {
			return 0, err
		}
		total += int64(fs.blockBitmap(hdr).CountClear())
		hdr.Release()
	}
	return total, nil
}

// FreeInodes counts free inodes.
func (fs *FS) FreeInodes() (int64, error) {
	var total int64
	for cg := 0; cg < fs.sb.NCG; cg++ {
		hdr, err := fs.c.Read(fs.sb.cgStart(cg))
		if err != nil {
			return 0, err
		}
		total += int64(fs.inodeBitmap(hdr).CountClear())
		hdr.Release()
	}
	return total, nil
}
