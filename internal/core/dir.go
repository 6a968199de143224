package core

import (
	"encoding/binary"
	"fmt"
	"strings"

	"cffs/internal/blockio"
	"cffs/internal/cache"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// Directory format: fixed 256-byte slots, 16 per block, 2 per sector.
//
//	off  0: ref     u32  — external ino, or embedMark for embedded entries
//	off  4: ftype   u8
//	off  5: namelen u8   — 0 means the slot is free
//	off  6: flags   u8   — bit 0: inode embedded in this slot
//	off  7: pad
//	off  8: name        (up to 120 bytes)
//	off 128: inode      (128 bytes, embedded entries only)
//
// A slot never crosses a sector boundary, so a name and its embedded
// inode are always written atomically by one sector write — the property
// that lets C-FFS drop one of the two ordered metadata writes on create
// and delete [Ganger94]. Slots never move while live, so an embedded Ino
// (block<<4|slot) stays valid for the life of the entry.
//
// The cost is space: ~256 bytes per name versus ~16 in the baseline
// format. That directory-size growth is the downside the paper
// discusses, and the dirsize experiment measures it.

const (
	slotSize      = 256
	slotsPerBlock = blockio.BlockSize / slotSize
	slotNameOff   = 8
	slotInodeOff  = 128
	slotNameMax   = slotInodeOff - slotNameOff
	embedMark     = 0xFFFFFFFF
	flagEmbedded  = 1
)

// slotEntry is a decoded directory slot. name is a view of the slot's
// bytes inside the cached directory block, not a copy: it is valid only
// while that block is pinned and fs.mu is held, which is what lets a
// scan compare names where they lie (string(e.name) == name compiles to
// a length check and a memequal) without allocating one string per slot
// passed. Code that keeps a name beyond the pin copies it.
type slotEntry struct {
	name     []byte
	ftype    vfs.FileType
	ref      uint32 // external ino (meaningless for embedded entries)
	embedded bool
	block    int64 // physical block holding the slot
	slot     int   // slot index within the block
}

// ino returns the entry's inode number.
func (e *slotEntry) ino() vfs.Ino {
	if e.embedded {
		return embedIno(e.block, e.slot)
	}
	return vfs.Ino(e.ref)
}

func slotUsed(data []byte, off int) bool { return data[off+5] != 0 }

func slotEmbedded(data []byte, off int) bool {
	return slotUsed(data, off) && data[off+6]&flagEmbedded != 0
}

// slotName views a used slot's name in place. The on-disk length is
// clamped to the name area, so a corrupt namelen can never reach into
// the embedded inode.
func slotName(data []byte, off int) []byte {
	nl := int(data[off+5])
	if nl > slotNameMax {
		nl = slotNameMax
	}
	return data[off+slotNameOff : off+slotNameOff+nl : off+slotNameOff+nl]
}

// isDotName reports whether a slot name is "." or "..".
func isDotName(name []byte) bool {
	return string(name) == "." || string(name) == ".."
}

func readSlot(data []byte, off int, block int64, slot int) slotEntry {
	return slotEntry{
		name:     slotName(data, off),
		ftype:    vfs.FileType(data[off+4]),
		ref:      binary.LittleEndian.Uint32(data[off:]),
		embedded: data[off+6]&flagEmbedded != 0,
		block:    block,
		slot:     slot,
	}
}

// writeSlotHeader fills the common fields and the name.
func writeSlotHeader(data []byte, off int, ref uint32, ftype vfs.FileType, flags byte, name string) {
	binary.LittleEndian.PutUint32(data[off:], ref)
	data[off+4] = byte(ftype)
	data[off+5] = byte(len(name))
	data[off+6] = flags
	data[off+7] = 0
	copy(data[off+slotNameOff:], name)
	for i := off + slotNameOff + len(name); i < off+slotInodeOff; i++ {
		data[i] = 0
	}
}

// writeSlotExternal formats an external-reference entry.
func writeSlotExternal(data []byte, off int, name string, ino vfs.Ino, ftype vfs.FileType) {
	writeSlotHeader(data, off, uint32(ino), ftype, 0, name)
	clearInodeArea(data, off)
}

// writeSlotEmbedded formats an entry with the inode inline.
func writeSlotEmbedded(data []byte, off int, name string, in *layout.Inode) {
	writeSlotHeader(data, off, embedMark, in.Type, flagEmbedded, name)
	in.Encode(data[off+slotInodeOff:])
}

func clearSlot(data []byte, off int) {
	for i := off; i < off+slotSize; i++ {
		data[i] = 0
	}
}

func clearInodeArea(data []byte, off int) {
	for i := off + slotInodeOff; i < off+slotSize; i++ {
		data[i] = 0
	}
}

// initDirData writes the "." and ".." entries of a new directory into
// its first block. Directory inodes are always external, so these are
// external-reference entries.
func (fs *FS) initDirData(in *layout.Inode, self, parent vfs.Ino) error {
	phys, err := fs.tree.Map(in, self, 0)
	if err != nil {
		return err
	}
	b, err := fs.c.Alloc(phys)
	if err != nil {
		return err
	}
	defer b.Release()
	for i := range b.Data {
		b.Data[i] = 0
	}
	writeSlotExternal(b.Data, 0, ".", self, vfs.TypeDir)
	writeSlotExternal(b.Data, slotSize, "..", parent, vfs.TypeDir)
	fs.c.MarkDirty(b)
	in.Size = blockio.BlockSize
	return nil
}

// forEachDirBlock walks a directory's blocks in logical order, pinning
// each for the duration of fn. fn returning true stops the walk and
// hands the still-pinned buffer to the caller.
func (fs *FS) forEachDirBlock(in *layout.Inode, dir vfs.Ino, fn func(b *cache.Buf) bool) (*cache.Buf, error) {
	nblocks := in.Size / blockio.BlockSize
	for lb := int64(0); lb < nblocks; lb++ {
		phys, err := fs.tree.Resolve(in, lb)
		if err != nil {
			return nil, err
		}
		if phys == 0 {
			return nil, fmt.Errorf("cffs: directory %#x has a hole at block %d", uint64(dir), lb)
		}
		b, err := fs.readDirBlock(phys)
		if err != nil {
			return nil, err
		}
		if fn(b) {
			return b, nil
		}
		b.Release()
	}
	return nil, nil
}

// readDirBlock reads one directory (or index) block. With group
// readahead in effect, directory blocks take the grouped read path: the
// first lookup in a cold directory then fans the directory's whole
// working set (names, embedded inodes, and its small files' data)
// across the spindles. On a plain disk the fan is zero and a scan that
// wants only the names would pay 16x its data in group fills, so dir
// blocks read singly there — the seed behaviour.
func (fs *FS) readDirBlock(phys int64) (*cache.Buf, error) {
	if fs.groupReadFan() > 0 {
		return fs.readBlockGrouped(phys)
	}
	return fs.c.Read(phys)
}

// forEachSlot walks every slot of a directory. fn returning true stops
// the walk and hands the pinned buffer to the caller. The entry's name
// is a view into b (see slotEntry); fn must not retain it.
func (fs *FS) forEachSlot(in *layout.Inode, dir vfs.Ino, fn func(b *cache.Buf, e slotEntry, used bool) bool) (*cache.Buf, error) {
	return fs.forEachDirBlock(in, dir, func(b *cache.Buf) bool {
		for s := 0; s < slotsPerBlock; s++ {
			off := s * slotSize
			used := slotUsed(b.Data, off)
			e := slotEntry{block: b.Block, slot: s}
			if used {
				e = readSlot(b.Data, off, b.Block, s)
			}
			if fn(b, e, used) {
				return true
			}
		}
		return false
	})
}

// dirLookup finds a live entry by name; the returned buffer is pinned.
// A trusted index answers in O(1); otherwise the slots are scanned.
func (fs *FS) dirLookup(in *layout.Inode, dir vfs.Ino, name string) (*cache.Buf, slotEntry, error) {
	if in.DirIndexRootPtr() != 0 && fs.idxTrusted(dir) {
		b, e, found, usable, err := fs.idxLookup(in, dir, name)
		if err != nil {
			return nil, slotEntry{}, err
		}
		if usable {
			if !found {
				return nil, slotEntry{}, fmt.Errorf("cffs: %q in dir %#x: %w", name, uint64(dir), vfs.ErrNotExist)
			}
			return b, e, nil
		}
	}
	var found slotEntry
	b, err := fs.forEachSlot(in, dir, func(_ *cache.Buf, e slotEntry, used bool) bool {
		if used && string(e.name) == name {
			found = e
			return true
		}
		return false
	})
	if err != nil {
		return nil, slotEntry{}, err
	}
	if b == nil {
		return nil, slotEntry{}, fmt.Errorf("cffs: %q in dir %#x: %w", name, uint64(dir), vfs.ErrNotExist)
	}
	return b, found, nil
}

// dirFindFree returns a pinned buffer and slot offset for a free slot,
// growing the directory by a block when needed (directories grow and
// never shrink). The parent inode is written back whenever it changes.
func (fs *FS) dirFindFree(in *layout.Inode, dir vfs.Ino) (*cache.Buf, slotEntry, error) {
	if in.DirIndexRootPtr() != 0 && fs.idxTrusted(dir) {
		b, free, grow, ok, err := fs.idxFindFree(in, dir)
		if err != nil {
			return nil, slotEntry{}, err
		}
		if ok {
			if grow {
				return fs.dirGrow(in, dir)
			}
			return b, free, nil
		}
	}
	var free slotEntry
	b, err := fs.forEachSlot(in, dir, func(_ *cache.Buf, e slotEntry, used bool) bool {
		if !used {
			free = e
			return true
		}
		return false
	})
	if err != nil {
		return nil, slotEntry{}, err
	}
	if b != nil {
		return b, free, nil
	}
	return fs.dirGrow(in, dir)
}

// dirGrow appends one zeroed block to the directory and returns its
// first slot. The parent inode is written back here in both modes — in
// ModeSync synchronously as part of the ordered growth, in delayed
// modes as a delayed write — so no caller (including its error paths)
// is left holding a size update the disk never learns about.
func (fs *FS) dirGrow(in *layout.Inode, dir vfs.Ino) (*cache.Buf, slotEntry, error) {
	lb := in.Size / blockio.BlockSize
	phys, err := fs.tree.Map(in, dir, lb)
	if err != nil {
		return nil, slotEntry{}, err
	}
	b, err := fs.c.Alloc(phys)
	if err != nil {
		return nil, slotEntry{}, err
	}
	for i := range b.Data {
		b.Data[i] = 0
	}
	in.Size += blockio.BlockSize
	in.Mtime = fs.clk.Now()
	// Ordered growth: the zeroed block and the directory inode that
	// reaches it must be durable before any entry written into the new
	// block, or a crash would orphan a synchronously-written entry.
	if fs.opts.Mode == ModeSync {
		if err := fs.c.WriteSync(b); err != nil {
			b.Release()
			return nil, slotEntry{}, err
		}
		if err := fs.putInode(dir, in, true); err != nil {
			b.Release()
			return nil, slotEntry{}, err
		}
	} else {
		fs.c.MarkDirty(b)
		if err := fs.putInode(dir, in, false); err != nil {
			b.Release()
			return nil, slotEntry{}, err
		}
	}
	if in.DirIndexRootPtr() != 0 && fs.idxTrusted(dir) {
		fs.idxSetHint(in, idxLoc(phys, 0))
	} else if err := fs.idxMaybeBuild(in, dir); err != nil {
		b.Release()
		return nil, slotEntry{}, err
	}
	return b, slotEntry{block: phys, slot: 0}, nil
}

// dirPrepareCreate checks name does not exist and returns a pinned
// buffer on a free slot, in one pass: the linear path records the first
// free slot while scanning for the name (the seed paid two full scans
// here), and the indexed path is two O(1) probes.
func (fs *FS) dirPrepareCreate(in *layout.Inode, dir vfs.Ino, name string) (*cache.Buf, slotEntry, error) {
	if in.DirIndexRootPtr() != 0 && fs.idxTrusted(dir) {
		b, _, found, usable, err := fs.idxLookup(in, dir, name)
		if err != nil {
			return nil, slotEntry{}, err
		}
		if usable {
			if found {
				b.Release()
				return nil, slotEntry{}, fmt.Errorf("cffs: %q in dir %#x: %w", name, uint64(dir), vfs.ErrExist)
			}
			return fs.dirFindFree(in, dir)
		}
	}
	var free slotEntry
	var haveFree bool
	b, err := fs.forEachSlot(in, dir, func(_ *cache.Buf, e slotEntry, used bool) bool {
		if used {
			return string(e.name) == name
		}
		if !haveFree {
			free, haveFree = e, true
		}
		return false
	})
	if err != nil {
		return nil, slotEntry{}, err
	}
	if b != nil {
		b.Release()
		return nil, slotEntry{}, fmt.Errorf("cffs: %q in dir %#x: %w", name, uint64(dir), vfs.ErrExist)
	}
	if haveFree {
		fb, err := fs.readDirBlock(free.block)
		if err != nil {
			return nil, slotEntry{}, err
		}
		return fb, free, nil
	}
	return fs.dirGrow(in, dir)
}

// dirIsEmpty reports whether a directory holds only "." and "..".
func (fs *FS) dirIsEmpty(in *layout.Inode, dir vfs.Ino) (bool, error) {
	if in.DirIndexRootPtr() != 0 && fs.idxTrusted(dir) {
		empty, ok, err := fs.idxEmpty(in)
		if err != nil {
			return false, err
		}
		if ok {
			return empty, nil
		}
	}
	empty := true
	b, err := fs.forEachSlot(in, dir, func(_ *cache.Buf, e slotEntry, used bool) bool {
		if used && !isDotName(e.name) {
			empty = false
			return true
		}
		return false
	})
	if b != nil {
		b.Release()
	}
	return empty, err
}

// dirList collects live entries, excluding "." and "..". The result is
// sized once from the directory's block count, and each block's names
// are copied out of the cache with one allocation: a single string per
// block that the block's entries are sliced from. Nothing returned
// aliases a cache buffer.
func (fs *FS) dirList(in *layout.Inode, dir vfs.Ino) ([]vfs.DirEntry, error) {
	ents := make([]vfs.DirEntry, 0, in.Size/blockio.BlockSize*slotsPerBlock)
	_, err := fs.forEachDirBlock(in, dir, func(b *cache.Buf) bool {
		ents = appendBlockEntries(ents, b)
		return false
	})
	return ents, err
}

// appendBlockEntries appends the entries of one directory block that
// ReadDir lists: used slots other than "." and "..".
func appendBlockEntries(ents []vfs.DirEntry, b *cache.Buf) []vfs.DirEntry {
	var listed [slotsPerBlock][]byte // name view per listed slot, else nil
	total := 0
	for s := range listed {
		if off := s * slotSize; slotUsed(b.Data, off) {
			if name := slotName(b.Data, off); !isDotName(name) {
				listed[s] = name
				total += len(name)
			}
		}
	}
	// Sized exactly, the builder never reallocates, so every entry's
	// name is a slice of the one string it ends up holding.
	var names strings.Builder
	names.Grow(total)
	for s, name := range listed {
		if name == nil {
			continue
		}
		start := names.Len()
		names.Write(name)
		e := readSlot(b.Data, s*slotSize, b.Block, s)
		ents = append(ents, vfs.DirEntry{Name: names.String()[start:], Ino: e.ino(), Type: e.ftype})
	}
	return ents
}
