package layout

import (
	"encoding/binary"

	"cffs/internal/blockio"
)

// Directory hash index: a redundant, rebuildable O(1) name index kept
// next to large directories. The directory's slot array remains the
// authoritative namespace (fsck walks it, readdir scans it); the index
// only accelerates point lookups, free-slot search, and emptiness
// checks. Because it is redundant it is written lazily (never ordered)
// and is only trusted after a clean unmount — fsck, or the first
// mutation after an unclean mount, rebuilds it from the slots.
//
// Layout:
//
//	root block                      bucket block
//	off 0  magic   u32              off 0  entry[0] hash u32
//	off 4  buckets u32              off 4  entry[0] loc  u32
//	off 8  entries u32              off 8  entry[1] hash u32
//	off 12 freehint u32             ...    (BlockSize/8 entries)
//	off 16 bucket phys ptrs u32[]
//
// An entry's loc packs the slot position as block<<4|slot (16 slots per
// 4 KB block); loc 0 is impossible for a real slot (block 0 is the
// superblock) and marks a free entry. The freehint in the root is a loc
// near which a free directory slot was last seen — a next-fit cursor,
// purely advisory.
const (
	// DirIndexMagic identifies a directory-index root block.
	DirIndexMagic = 0xD1DE0901

	dirIndexHdr = 16

	// DirIndexMaxBuckets is the pointer capacity of the root block.
	DirIndexMaxBuckets = (blockio.BlockSize - dirIndexHdr) / 4

	// DirIndexBucketEntries is the entry capacity of one bucket block.
	DirIndexBucketEntries = blockio.BlockSize / 8
)

// DirIndexRoot is the decoded header of an index root block.
type DirIndexRoot struct {
	NBuckets uint32 // bucket blocks; power of two, >= 1
	NEntries uint32 // live entries, including "." and ".."
	FreeHint uint32 // loc of a likely-free slot; 0 = no hint
}

// DecodeDirIndexRoot reads the root header from a block image. It
// returns ok=false when the magic or bucket count is implausible — the
// caller must then treat the directory as unindexed.
func DecodeDirIndexRoot(p []byte) (DirIndexRoot, bool) {
	if binary.LittleEndian.Uint32(p[0:]) != DirIndexMagic {
		return DirIndexRoot{}, false
	}
	r := DirIndexRoot{
		NBuckets: binary.LittleEndian.Uint32(p[4:]),
		NEntries: binary.LittleEndian.Uint32(p[8:]),
		FreeHint: binary.LittleEndian.Uint32(p[12:]),
	}
	if r.NBuckets == 0 || r.NBuckets > DirIndexMaxBuckets {
		return DirIndexRoot{}, false
	}
	return r, true
}

// Encode writes the root header into a block image, leaving the bucket
// pointer array untouched.
func (r DirIndexRoot) Encode(p []byte) {
	binary.LittleEndian.PutUint32(p[0:], DirIndexMagic)
	binary.LittleEndian.PutUint32(p[4:], r.NBuckets)
	binary.LittleEndian.PutUint32(p[8:], r.NEntries)
	binary.LittleEndian.PutUint32(p[12:], r.FreeHint)
}

// DirIndexBucketPtr reads bucket k's physical block number from a root
// block image.
func DirIndexBucketPtr(p []byte, k int) uint32 {
	return binary.LittleEndian.Uint32(p[dirIndexHdr+4*k:])
}

// SetDirIndexBucketPtr writes bucket k's physical block number.
func SetDirIndexBucketPtr(p []byte, k int, phys uint32) {
	binary.LittleEndian.PutUint32(p[dirIndexHdr+4*k:], phys)
}

// DirIndexEntry reads entry k of a bucket block image. loc == 0 means
// the entry is free.
func DirIndexEntry(p []byte, k int) (hash, loc uint32) {
	return binary.LittleEndian.Uint32(p[8*k:]), binary.LittleEndian.Uint32(p[8*k+4:])
}

// SetDirIndexEntry writes entry k of a bucket block image.
func SetDirIndexEntry(p []byte, k int, hash, loc uint32) {
	binary.LittleEndian.PutUint32(p[8*k:], hash)
	binary.LittleEndian.PutUint32(p[8*k+4:], loc)
}

// DirNameHash is the index's name hash (FNV-1a, 32-bit). Entries store
// the full hash so bucket probes can reject non-matches without reading
// the slot block. It hashes a name held either way: a caller's string,
// or the bytes of a directory slot viewed in place.
func DirNameHash[S string | []byte](name S) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h
}

// DirIndexRootPtr returns the physical block number of the directory's
// index root, or 0 when the directory is unindexed. Directories never
// carry immediate data, so the first four inline bytes are repurposed
// to hold the root pointer.
func (ino *Inode) DirIndexRootPtr() uint32 {
	return binary.LittleEndian.Uint32(ino.Inline[0:4])
}

// SetDirIndexRootPtr stores (or, with 0, clears) the directory's index
// root pointer.
func (ino *Inode) SetDirIndexRootPtr(phys uint32) {
	binary.LittleEndian.PutUint32(ino.Inline[0:4], phys)
}
