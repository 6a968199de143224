package layout

import (
	"encoding/binary"
	"fmt"

	"cffs/internal/blockio"
	"cffs/internal/vfs"
)

// The classic variable-length directory record, the format of both
// conventional baselines (C-FFS's fixed slots live in internal/core):
//
//	ino(4) reclen(2) namelen(1) ftype(1) name... (padded to 4)
//
// Records tile the whole block: free space is carried as slack in the
// preceding record's reclen, or as a record with ino 0 at the block
// head. Entries never span blocks. Everything here is a pure function
// over one block's bytes; reading the block, pinning it and ordering
// its write are the owning file system's business.

const direntHdr = 8

// DirentSize is the space a live record with a name of namelen bytes
// occupies, excluding slack.
func DirentSize(namelen int) int { return (direntHdr + namelen + 3) &^ 3 }

// Dirent is a decoded directory record.
type Dirent struct {
	Ino    uint32 // 0 marks a free record
	Reclen int
	Type   vfs.FileType
	Name   string
	Off    int // byte offset within the block
}

// Fits reports whether a record needing need bytes can be inserted at
// e: into all of a free record, or into the slack behind a live one.
func (e *Dirent) Fits(need int) bool {
	if e.Ino == 0 {
		return e.Reclen >= need
	}
	return e.Reclen-DirentSize(len(e.Name)) >= need
}

// DecodeDirent reads the record at off.
func DecodeDirent(p []byte, off int) (Dirent, error) {
	if off < 0 || off+direntHdr > len(p) {
		return Dirent{}, fmt.Errorf("layout: dirent header at %d overruns block", off)
	}
	e := Dirent{
		Ino:    binary.LittleEndian.Uint32(p[off:]),
		Reclen: int(binary.LittleEndian.Uint16(p[off+4:])),
		Type:   vfs.FileType(p[off+7]),
		Off:    off,
	}
	nl := int(p[off+6])
	if e.Reclen < DirentSize(nl) || off+e.Reclen > len(p) || e.Reclen%4 != 0 {
		return Dirent{}, fmt.Errorf("layout: corrupt dirent at %d (reclen %d, namelen %d)", off, e.Reclen, nl)
	}
	e.Name = string(p[off+direntHdr : off+direntHdr+nl])
	return e, nil
}

// EncodeDirent writes a record at off. The caller guarantees that the
// name fits reclen and reclen fits the block.
func EncodeDirent(p []byte, off int, ino uint32, reclen int, ftype vfs.FileType, name string) {
	binary.LittleEndian.PutUint32(p[off:], ino)
	binary.LittleEndian.PutUint16(p[off+4:], uint16(reclen))
	p[off+6] = byte(len(name))
	p[off+7] = byte(ftype)
	n := copy(p[off+direntHdr:], name)
	// Zero the name padding for deterministic images.
	clear(p[off+direntHdr+n : min(off+DirentSize(len(name)), len(p))])
}

// InitDirBlock formats an empty directory block: one free record
// covering everything.
func InitDirBlock(p []byte) {
	EncodeDirent(p, 0, 0, blockio.BlockSize, vfs.TypeInvalid, "")
}

// InitDirDots formats a new directory's first block, holding only "."
// and "..".
func InitDirDots(p []byte, self, parent vfs.Ino) {
	InitDirBlock(p)
	dot := DirentSize(1)
	EncodeDirent(p, 0, uint32(self), dot, vfs.TypeDir, ".")
	EncodeDirent(p, dot, uint32(parent), blockio.BlockSize-dot, vfs.TypeDir, "..")
}

// EachDirent decodes the block's records in order, live and free. fn
// returning true stops the walk and is reported as stopped.
func EachDirent(p []byte, fn func(e Dirent) bool) (stopped bool, err error) {
	for off := 0; off < len(p); {
		e, err := DecodeDirent(p, off)
		if err != nil {
			return false, err
		}
		if fn(e) {
			return true, nil
		}
		off += e.Reclen
	}
	return false, nil
}

// InsertDirent writes a live entry into the record at off, which must
// Fit it: a free record is taken over whole, a live one keeps exactly
// the space it uses and the new entry receives the slack.
func InsertDirent(p []byte, off int, ino vfs.Ino, ftype vfs.FileType, name string) error {
	if len(name) == 0 || len(name) > vfs.MaxNameLen {
		return fmt.Errorf("layout: name %q: %w", name, vfs.ErrNameTooLong)
	}
	e, err := DecodeDirent(p, off)
	if err != nil {
		return err
	}
	if !e.Fits(DirentSize(len(name))) {
		return fmt.Errorf("layout: no room for %q in dirent at %d", name, off)
	}
	if e.Ino != 0 {
		used := DirentSize(len(e.Name))
		EncodeDirent(p, off, e.Ino, used, e.Type, e.Name)
		off, e.Reclen = off+used, e.Reclen-used
	}
	EncodeDirent(p, off, uint32(ino), e.Reclen, ftype, name)
	return nil
}

// RemoveDirent deletes the record at off, merging its space into the
// record before it, or marking it free at the block head.
func RemoveDirent(p []byte, off int) error {
	target, err := DecodeDirent(p, off)
	if err != nil {
		return err
	}
	if off == 0 {
		EncodeDirent(p, 0, 0, target.Reclen, vfs.TypeInvalid, "")
		return nil
	}
	// Records tile p[:off] exactly, or decoding it fails: the last one
	// walked is the predecessor.
	var prev Dirent
	if _, err := EachDirent(p[:off], func(e Dirent) bool { prev = e; return false }); err != nil {
		return err
	}
	EncodeDirent(p, prev.Off, prev.Ino, prev.Reclen+target.Reclen, prev.Type, prev.Name)
	return nil
}
