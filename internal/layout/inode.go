// Package layout holds the on-disk structures more than one file system
// shares: the 128-byte inode, allocation bitmaps, the directory hash
// index, and the classic variable-length directory record of the two
// conventional baselines. C-FFS's slot directory and every superblock
// live with their owners.
package layout

import (
	"encoding/binary"
	"fmt"

	"cffs/internal/blockio"
	"cffs/internal/vfs"
)

const (
	// InodeSize is the on-disk inode size. 128 bytes keeps a whole
	// number of inodes per sector (4), which embedded inodes rely on for
	// single-sector name+inode atomicity.
	InodeSize = 128

	// InodesPerBlock is how many inodes fit a 4 KB block.
	InodesPerBlock = blockio.BlockSize / InodeSize

	// NDirect is the number of direct block pointers per inode.
	NDirect = 12

	// PtrsPerBlock is the fan-out of an indirect block (uint32 pointers).
	PtrsPerBlock = blockio.BlockSize / 4

	// InlineSize is the spare space at the inode's tail usable for
	// immediate-file data [Mullender84]: a regular file with
	// Size <= InlineSize, no allocated blocks, and Direct[0] == 0 keeps
	// its entire contents inside the inode.
	InlineSize = InodeSize - inlineOff
)

// inlineOff is the first spare byte after the fixed fields (see Encode).
const inlineOff = 88

// MaxFileBlocks is the largest file the pointer scheme can map.
const MaxFileBlocks = NDirect + PtrsPerBlock + PtrsPerBlock*PtrsPerBlock

// Inode is the in-memory form of an on-disk inode.
type Inode struct {
	Type    vfs.FileType
	Nlink   uint16
	Size    int64
	Mtime   int64
	NBlocks uint32 // allocated data+indirect blocks
	Group   uint32 // C-FFS: allocation-group hint for the file's data; 0 = none
	Parent  uint32 // C-FFS: external ino of the naming directory (grouping owner)
	Direct  [NDirect]uint32
	Indir   uint32 // single-indirect block
	DIndir  uint32 // double-indirect block
	Inline  [InlineSize]byte
}

// Alive reports whether the inode is in use.
func (ino *Inode) Alive() bool { return ino.Type != vfs.TypeInvalid }

// Stat is the inode's vfs.Stat under the number n.
func (ino *Inode) Stat(n vfs.Ino) vfs.Stat {
	return vfs.Stat{
		Ino:    n,
		Type:   ino.Type,
		Nlink:  uint32(ino.Nlink),
		Size:   ino.Size,
		Blocks: int64(ino.NBlocks),
		Mtime:  ino.Mtime,
	}
}

// Encode writes the inode into a 128-byte slice.
func (ino *Inode) Encode(p []byte) {
	if len(p) < InodeSize {
		panic(fmt.Sprintf("layout: encode into %d bytes", len(p)))
	}
	le := binary.LittleEndian
	le.PutUint16(p[0:], uint16(ino.Type))
	le.PutUint16(p[2:], ino.Nlink)
	le.PutUint32(p[4:], ino.NBlocks)
	le.PutUint64(p[8:], uint64(ino.Size))
	le.PutUint64(p[16:], uint64(ino.Mtime))
	le.PutUint32(p[24:], ino.Group)
	le.PutUint32(p[28:], ino.Parent)
	off := 32
	for _, d := range ino.Direct {
		le.PutUint32(p[off:], d)
		off += 4
	}
	le.PutUint32(p[off:], ino.Indir)
	le.PutUint32(p[off+4:], ino.DIndir)
	copy(p[inlineOff:InodeSize], ino.Inline[:])
}

// Decode reads an inode from a 128-byte slice.
func (ino *Inode) Decode(p []byte) {
	if len(p) < InodeSize {
		panic(fmt.Sprintf("layout: decode from %d bytes", len(p)))
	}
	le := binary.LittleEndian
	ino.Type = vfs.FileType(le.Uint16(p[0:]))
	ino.Nlink = le.Uint16(p[2:])
	ino.NBlocks = le.Uint32(p[4:])
	ino.Size = int64(le.Uint64(p[8:]))
	ino.Mtime = int64(le.Uint64(p[16:]))
	ino.Group = le.Uint32(p[24:])
	ino.Parent = le.Uint32(p[28:])
	off := 32
	for i := range ino.Direct {
		ino.Direct[i] = le.Uint32(p[off:])
		off += 4
	}
	ino.Indir = le.Uint32(p[off:])
	ino.DIndir = le.Uint32(p[off+4:])
	copy(ino.Inline[:], p[inlineOff:InodeSize])
}
