package fsck_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cffs/internal/blockio"
	"cffs/internal/core"
	"cffs/internal/disk"
	"cffs/internal/ffs"
	"cffs/internal/fsck"
	"cffs/internal/layout"
	"cffs/internal/sched"
	"cffs/internal/sim"
	"cffs/internal/vfs"
)

var update = flag.Bool("update", false, "rewrite testdata/battery.golden from the current implementation")

// wild is a block pointer far outside any test volume.
const wild = 0xFFFFFFF0

// target is one on-disk layout under test: how to make and check an
// image, and how to find things on it from outside the file system
// (the damage is always written through the raw device).
type target struct {
	name  string
	mkfs  func(dev *blockio.Device) (vfs.FileSystem, error)
	mount func(dev *blockio.Device) (vfs.FileSystem, error)
	check func(dev *blockio.Device, repair bool) (*fsck.Report, error)
	nav   func(dev *blockio.Device) navigator
}

var targets = []target{
	{
		name: "cffs",
		mkfs: func(dev *blockio.Device) (vfs.FileSystem, error) {
			return core.Mkfs(dev, core.Options{EmbedInodes: true, Grouping: true, Mode: core.ModeDelayed})
		},
		mount: func(dev *blockio.Device) (vfs.FileSystem, error) { return core.Mount(dev, core.Options{}) },
		check: core.Check,
		nav:   func(dev *blockio.Device) navigator { return cffsNav{raw{dev}} },
	},
	{
		name: "cffs-ext",
		mkfs: func(dev *blockio.Device) (vfs.FileSystem, error) {
			return core.Mkfs(dev, core.Options{Mode: core.ModeDelayed})
		},
		mount: func(dev *blockio.Device) (vfs.FileSystem, error) { return core.Mount(dev, core.Options{}) },
		check: core.Check,
		nav:   func(dev *blockio.Device) navigator { return cffsNav{raw{dev}} },
	},
	{
		name: "ffs",
		mkfs: func(dev *blockio.Device) (vfs.FileSystem, error) {
			return ffs.Mkfs(dev, ffs.Options{Mode: ffs.ModeDelayed})
		},
		mount: func(dev *blockio.Device) (vfs.FileSystem, error) { return ffs.Mount(dev, ffs.Options{}) },
		check: ffs.Check,
		nav:   func(dev *blockio.Device) navigator { return ffsNav{raw{dev}} },
	},
}

// manyFiles is the population of /many: enough entries to push the
// directory past the C-FFS index threshold (8 blocks of 16 slots).
const manyFiles = 160

// hugeBlock is the one mapped logical block of /huge, a sparse file
// reaching into the double-indirect range.
const hugeBlock = layout.NDirect + layout.PtrsPerBlock + 5

// image is a populated, cleanly closed file system plus the inode
// numbers the damage cases aim at, resolved before the damage.
type image struct {
	t   testing.TB
	tg  target
	dev *blockio.Device
	nav navigator
	ino map[string]vfs.Ino
}

// populate builds the tree every case starts from: small files, a file
// with a second name (external inode on C-FFS), nested directories, a
// file using its indirect block, a sparse file using its double-indirect
// block, and a directory large enough to carry a C-FFS index.
func populate(t testing.TB, tg target) (*disk.MemStore, map[string]vfs.Ino) {
	t.Helper()
	spec := testSpec()
	if err := spec.Validate(); err != nil { // also computes the capacity
		t.Fatal(err)
	}
	st := disk.NewMemStore(spec.Geom.Bytes())
	dev := device(t, st)
	fs, err := tg.mkfs(dev)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		must(vfs.WriteFile(fs, fmt.Sprintf("/file%d", i), make([]byte, 1024*(i+1))))
	}
	_, err = vfs.MkdirAll(fs, "/sub/deeper")
	must(err)
	must(vfs.WriteFile(fs, "/sub/deeper/leaf", make([]byte, 5000)))
	must(vfs.WriteFile(fs, "/big", make([]byte, 20*blockio.BlockSize)))
	huge, err := fs.Create(fs.Root(), "huge")
	must(err)
	_, err = fs.WriteAt(huge, make([]byte, blockio.BlockSize), hugeBlock*blockio.BlockSize)
	must(err)
	f0, err := vfs.Walk(fs, "/file0")
	must(err)
	must(fs.Link(fs.Root(), "hardlink", f0))
	many, err := fs.Mkdir(fs.Root(), "many")
	must(err)
	for i := 0; i < manyFiles; i++ {
		_, err := fs.Create(many, fmt.Sprintf("m%03d", i))
		must(err)
	}
	must(fs.Close())

	// Resolve names on a fresh mount: embedded inode numbers are only
	// final once the tree has stopped changing.
	fs, err = tg.mount(dev)
	must(err)
	inos := make(map[string]vfs.Ino)
	for _, p := range []string{"/", "/file0", "/file3", "/file4", "/file5", "/big", "/huge",
		"/sub", "/sub/deeper", "/sub/deeper/leaf", "/many"} {
		ino, err := vfs.Walk(fs, p)
		must(err)
		inos[p] = ino
	}
	must(fs.Close())
	return st, inos
}

// testSpec is the paper's drive cut down to its first 300 cylinders
// (127 MB): a check costs time in proportion to the volume, and nothing
// the battery plants depends on the volume being large.
func testSpec() disk.Spec {
	spec := disk.SeagateST31200()
	spec.Geom.Zones = []disk.Zone{{Cyls: 300, SPT: 92}}
	return spec
}

func device(t testing.TB, st disk.Store) *blockio.Device {
	d, err := disk.New(testSpec(), sim.NewClock(), st)
	if err != nil {
		t.Fatal(err)
	}
	return blockio.NewDevice(d, sched.CLook{})
}

// populated caches one pristine image per target; every case damages
// its own copy.
var populated sync.Map // target name -> *pristine

type pristine struct {
	once sync.Once
	st   *disk.MemStore
	ino  map[string]vfs.Ino
}

func newImage(t testing.TB, tg target) *image {
	v, _ := populated.LoadOrStore(tg.name, &pristine{})
	p := v.(*pristine)
	p.once.Do(func() { p.st, p.ino = populate(t, tg) })
	if p.st == nil {
		t.Fatalf("%s: fixture image failed to build", tg.name)
	}
	dev := device(t, p.st.Clone())
	return &image{t: t, tg: tg, dev: dev, nav: tg.nav(dev), ino: p.ino}
}

// raw reads and writes whole blocks of the device under test.
type raw struct{ dev *blockio.Device }

func (r raw) read(block int64) []byte {
	p := make([]byte, blockio.BlockSize)
	if err := r.dev.ReadBlock(block, p); err != nil {
		panic(err)
	}
	return p
}

func (r raw) write(block int64, p []byte) {
	if err := r.dev.WriteBlock(block, p); err != nil {
		panic(err)
	}
}

func (r raw) edit(block int64, fn func(p []byte)) {
	p := r.read(block)
	fn(p)
	r.write(block, p)
}

func (r raw) u32(block int64, off int) uint32 {
	return binary.LittleEndian.Uint32(r.read(block)[off:])
}

// loc names a run of bytes on the device: an inode or a directory entry.
type loc struct {
	block int64
	off   int
}

// navigator finds on-disk structures of one layout by reading the raw
// image, with no help from the file system code under test.
type navigator interface {
	// inode locates ino's 128 on-disk bytes.
	inode(ino vfs.Ino) loc
	// entry locates the directory record called name in one block of a
	// directory; ok is false when the block does not hold it.
	entry(dirBlock int64, name string) (loc, bool)
	// setEntry rewrites the record at l to reference ino with type ft
	// (the name stays), and clearEntry frees it in place.
	setEntry(l loc, ino uint32, ft vfs.FileType)
	clearEntry(l loc)
	// plant adds a new record name -> ino to a directory block with room.
	plant(dirBlock int64, name string, ino uint32, ft vfs.FileType) bool
	// freeInode returns the number of a dead inode the image could hold,
	// and markInode sets whatever allocation state says it is in use.
	freeInode() vfs.Ino
	markInode(ino vfs.Ino)
	// header returns the allocation-group header block owning block, the
	// byte offset of its block bitmap, and the block's bit index.
	header(block int64) (hdr int64, bmapOff, bit int)
}

// C-FFS: superblock at 0, eight inode-map blocks, then allocation
// groups whose first block is the header; 256-byte directory slots with
// the inode embedded at offset 128; external inode n lives in slot
// (n-1)%32 of the inode-file block the map names.
type cffsNav struct{ raw }

const (
	cffsMapBlocks = 8
	cffsSlot      = 256
	cffsBmapOff   = 64
	cffsDescOff   = 320
)

func (n cffsNav) agBlocks() int64 { return int64(n.u32(0, 16)) }

func (n cffsNav) inode(ino vfs.Ino) loc {
	if uint64(ino)>>63 != 0 {
		v := uint64(ino) &^ (1 << 63)
		return loc{int64(v >> 4), int(v&15)*cffsSlot + 128}
	}
	idx := int(ino) - 1
	fileBlk := idx / layout.InodesPerBlock
	phys := n.u32(int64(1+fileBlk/layout.PtrsPerBlock), (fileBlk%layout.PtrsPerBlock)*4)
	return loc{int64(phys), (idx % layout.InodesPerBlock) * layout.InodeSize}
}

func (n cffsNav) entry(dirBlock int64, name string) (loc, bool) {
	p := n.read(dirBlock)
	for off := 0; off < blockio.BlockSize; off += cffsSlot {
		if nl := int(p[off+5]); nl == len(name) && string(p[off+8:off+8+nl]) == name {
			return loc{dirBlock, off}, true
		}
	}
	return loc{}, false
}

func (n cffsNav) setEntry(l loc, ino uint32, ft vfs.FileType) {
	n.edit(l.block, func(p []byte) {
		binary.LittleEndian.PutUint32(p[l.off:], ino)
		p[l.off+4] = byte(ft)
	})
}

func (n cffsNav) clearEntry(l loc) {
	n.edit(l.block, func(p []byte) { clear(p[l.off : l.off+cffsSlot]) })
}

func (n cffsNav) plant(dirBlock int64, name string, ino uint32, ft vfs.FileType) bool {
	p := n.read(dirBlock)
	for off := 0; off < blockio.BlockSize; off += cffsSlot {
		if p[off+5] != 0 {
			continue
		}
		clear(p[off : off+cffsSlot])
		binary.LittleEndian.PutUint32(p[off:], ino)
		p[off+4], p[off+5] = byte(ft), byte(len(name))
		copy(p[off+8:], name)
		n.write(dirBlock, p)
		return true
	}
	return false
}

func (n cffsNav) freeInode() vfs.Ino {
	ext := int(n.u32(0, 24)) * layout.InodesPerBlock
	for idx := 0; idx < ext; idx++ {
		l := n.inode(vfs.Ino(idx + 1))
		var in layout.Inode
		in.Decode(n.read(l.block)[l.off:])
		if !in.Alive() {
			return vfs.Ino(idx + 1)
		}
	}
	panic("no free external inode")
}

func (n cffsNav) markInode(vfs.Ino) {} // liveness is the inode itself

func (n cffsNav) header(block int64) (int64, int, int) {
	first := int64(1 + cffsMapBlocks)
	hdr := first + (block-first)/n.agBlocks()*n.agBlocks()
	return hdr, cffsBmapOff, int(block - hdr)
}

// FFS: superblock at 0, then cylinder groups of header block + inode
// table + data; variable-length directory records
// ino(4) reclen(2) namelen(1) ftype(1) name; inode n lives in slot
// (n-1)%InodesPerCG of its group's table.
type ffsNav struct{ raw }

func (n ffsNav) cgBlocks() int64  { return int64(n.u32(0, 16)) }
func (n ffsNav) inodesPerCG() int { return int(n.u32(0, 24)) }

func (n ffsNav) inode(ino vfs.Ino) loc {
	cg, idx := int64(int(ino-1)/n.inodesPerCG()), int(ino-1)%n.inodesPerCG()
	return loc{1 + cg*n.cgBlocks() + 1 + int64(idx/layout.InodesPerBlock),
		(idx % layout.InodesPerBlock) * layout.InodeSize}
}

func ffsRecSize(namelen int) int { return (8 + namelen + 3) &^ 3 }

func (n ffsNav) entry(dirBlock int64, name string) (loc, bool) {
	p := n.read(dirBlock)
	for off := 0; off < blockio.BlockSize; off += int(binary.LittleEndian.Uint16(p[off+4:])) {
		nl := int(p[off+6])
		if binary.LittleEndian.Uint32(p[off:]) != 0 && string(p[off+8:off+8+nl]) == name {
			return loc{dirBlock, off}, true
		}
	}
	return loc{}, false
}

func (n ffsNav) setEntry(l loc, ino uint32, ft vfs.FileType) {
	n.edit(l.block, func(p []byte) {
		binary.LittleEndian.PutUint32(p[l.off:], ino)
		p[l.off+7] = byte(ft)
	})
}

func (n ffsNav) clearEntry(l loc) {
	n.edit(l.block, func(p []byte) {
		binary.LittleEndian.PutUint32(p[l.off:], 0)
		p[l.off+6], p[l.off+7] = 0, 0
	})
}

func (n ffsNav) plant(dirBlock int64, name string, ino uint32, ft vfs.FileType) bool {
	p := n.read(dirBlock)
	need := ffsRecSize(len(name))
	for off := 0; off < blockio.BlockSize; {
		reclen := int(binary.LittleEndian.Uint16(p[off+4:]))
		used := ffsRecSize(int(p[off+6]))
		if binary.LittleEndian.Uint32(p[off:]) != 0 && reclen-used >= need {
			binary.LittleEndian.PutUint16(p[off+4:], uint16(used))
			at := off + used
			binary.LittleEndian.PutUint32(p[at:], ino)
			binary.LittleEndian.PutUint16(p[at+4:], uint16(reclen-used))
			p[at+6], p[at+7] = byte(len(name)), byte(ft)
			copy(p[at+8:], name)
			n.write(dirBlock, p)
			return true
		}
		off += reclen
	}
	return false
}

func (n ffsNav) freeInode() vfs.Ino {
	for ino := vfs.Ino(1); int(ino) <= n.inodesPerCG(); ino++ {
		l := n.inode(ino)
		var in layout.Inode
		in.Decode(n.read(l.block)[l.off:])
		if !in.Alive() {
			return ino
		}
	}
	panic("no free inode in cylinder group 0")
}

func (n ffsNav) markInode(ino vfs.Ino) {
	cg, idx := int64(int(ino-1)/n.inodesPerCG()), int(ino-1)%n.inodesPerCG()
	n.edit(1+cg*n.cgBlocks(), func(p []byte) {
		layout.NewBitmap(p[64+(int(n.cgBlocks())+7)/8:], n.inodesPerCG()).Set(idx)
	})
}

func (n ffsNav) header(block int64) (int64, int, int) {
	hdr := 1 + (block-1)/n.cgBlocks()*n.cgBlocks()
	return hdr, 64, int(block - hdr)
}

// getInode decodes the inode at path.
func (im *image) getInode(path string) layout.Inode {
	l := im.nav.inode(im.ino[path])
	var in layout.Inode
	in.Decode(raw{im.dev}.read(l.block)[l.off:])
	return in
}

// editInode rewrites the inode at path in place on the raw device.
func (im *image) editInode(path string, fn func(in *layout.Inode)) {
	l := im.nav.inode(im.ino[path])
	raw{im.dev}.edit(l.block, func(p []byte) {
		var in layout.Inode
		in.Decode(p[l.off:])
		fn(&in)
		in.Encode(p[l.off:])
	})
}

// dirBlock0 is the first data block of the directory at path.
func (im *image) dirBlock0(path string) int64 { return int64(im.getInode(path).Direct[0]) }

// findEntry locates name in the directory at path (direct blocks only;
// every fixture directory but /many fits them, and /many's first names
// do).
func (im *image) findEntry(path, name string) loc {
	in := im.getInode(path)
	for _, b := range in.Direct {
		if b == 0 {
			break
		}
		if l, ok := im.nav.entry(int64(b), name); ok {
			return l
		}
	}
	im.t.Fatalf("%s: no entry %q in %s", im.tg.name, name, path)
	return loc{}
}

// plantEntry adds name -> ino to the directory at path.
func (im *image) plantEntry(path, name string, ino vfs.Ino, ft vfs.FileType) {
	for _, b := range im.getInode(path).Direct {
		if b != 0 && im.nav.plant(int64(b), name, uint32(ino), ft) {
			return
		}
	}
	im.t.Fatalf("%s: no room for %q in %s", im.tg.name, name, path)
}

// flipBit sets or clears block's bit in its group's block bitmap.
func (im *image) flipBit(block int64, set bool) {
	hdr, off, bit := im.nav.header(block)
	raw{im.dev}.edit(hdr, func(p []byte) {
		if set {
			p[off+bit/8] |= 1 << (bit % 8)
		} else {
			p[off+bit/8] &^= 1 << (bit % 8)
		}
	})
}

// dmg is one corruption: a name for the transcript, which layouts it
// applies to (nil = all), and the raw-device edit.
type dmg struct {
	name string
	only []string
	do   func(im *image)
}

func (d dmg) appliesTo(tg string) bool {
	if d.only == nil {
		return true
	}
	for _, n := range d.only {
		if n == tg {
			return true
		}
	}
	return false
}

var battery = []dmg{
	{name: "none", do: func(*image) {}},
	{name: "dangling-file", do: func(im *image) {
		im.plantEntry("/", "ghost", im.nav.freeInode(), vfs.TypeReg)
	}},
	{name: "dangling-dir", do: func(im *image) {
		im.plantEntry("/", "ghostdir", im.nav.freeInode(), vfs.TypeDir)
	}},
	{name: "dir-second-name", do: func(im *image) {
		im.plantEntry("/", "alias", im.ino["/sub/deeper"], vfs.TypeDir)
	}},
	{name: "entry-type-mismatch", do: func(im *image) {
		// The second name of /file0 claims to be a directory.
		l := im.findEntry("/", "hardlink")
		im.nav.setEntry(l, uint32(im.ino["/file0"]), vfs.TypeDir)
	}},
	{name: "wild-direct", do: func(im *image) {
		im.editInode("/file3", func(in *layout.Inode) { in.Direct[0] = wild })
	}},
	{name: "wild-indirect", do: func(im *image) {
		im.editInode("/big", func(in *layout.Inode) { in.Indir = wild })
	}},
	{name: "wild-indirect-unused", do: func(im *image) {
		// A 4 KB file never reaches its indirect pointer: only the
		// pointer itself is wrong, every count still adds up.
		im.editInode("/file3", func(in *layout.Inode) { in.Indir = wild })
	}},
	{name: "wild-dindirect", do: func(im *image) {
		im.editInode("/huge", func(in *layout.Inode) { in.DIndir = wild })
	}},
	{name: "wild-dindirect-unused", do: func(im *image) {
		im.editInode("/file3", func(in *layout.Inode) { in.DIndir = wild })
	}},
	{name: "wild-level2", do: func(im *image) {
		d := int64(im.getInode("/huge").DIndir)
		raw{im.dev}.edit(d, func(p []byte) { binary.LittleEndian.PutUint32(p[0:], wild) })
	}},
	{name: "wild-level2-beyond-eof", do: func(im *image) {
		d := int64(im.getInode("/huge").DIndir)
		raw{im.dev}.edit(d, func(p []byte) { binary.LittleEndian.PutUint32(p[4*1000:], wild) })
	}},
	{name: "wild-data-in-indirect", do: func(im *image) {
		ib := int64(im.getInode("/big").Indir)
		raw{im.dev}.edit(ib, func(p []byte) { binary.LittleEndian.PutUint32(p[4*3:], wild) })
	}},
	{name: "double-claim", do: func(im *image) {
		victim := im.getInode("/file3").Direct[0]
		im.editInode("/file4", func(in *layout.Inode) { in.Direct[0] = victim })
	}},
	{name: "wrong-nlink", do: func(im *image) {
		im.editInode("/file0", func(in *layout.Inode) { in.Nlink = 7 })
	}},
	{name: "wrong-dir-nlink", do: func(im *image) {
		im.editInode("/sub", func(in *layout.Inode) { in.Nlink = 9 })
	}},
	{name: "wrong-nblocks", do: func(im *image) {
		im.editInode("/file5", func(in *layout.Inode) { in.NBlocks = 99 })
	}},
	{name: "missing-dot", do: func(im *image) {
		im.nav.clearEntry(im.findEntry("/sub", "."))
	}},
	{name: "wrong-dotdot", do: func(im *image) {
		l := im.findEntry("/sub/deeper", "..")
		im.nav.setEntry(l, uint32(im.ino["/"]), vfs.TypeDir)
	}},
	{name: "dir-hole", do: func(im *image) {
		// Nothing the checker can attribute a fix to: the directory's
		// only block is unreachable, so the damage ends up unrepairable.
		im.editInode("/sub/deeper", func(in *layout.Inode) { in.Direct[0] = 0 })
	}},
	{name: "orphan-inode", do: func(im *image) {
		ino := im.nav.freeInode()
		l := im.nav.inode(ino)
		raw{im.dev}.edit(l.block, func(p []byte) {
			orphan := layout.Inode{Type: vfs.TypeReg, Nlink: 1}
			orphan.Encode(p[l.off:])
		})
		im.nav.markInode(ino)
	}},
	{name: "bitmap-bit-lost", do: func(im *image) {
		// A block well inside free space, marked allocated.
		hdr, off, _ := im.nav.header(im.dirBlock0("/"))
		p := raw{im.dev}.read(hdr)
		bit := 1500
		for p[off+bit/8]&(1<<(bit%8)) != 0 {
			bit++
		}
		im.flipBit(hdr+int64(bit), true)
	}},
	{name: "bitmap-bit-missing", do: func(im *image) {
		im.flipBit(int64(im.getInode("/big").Direct[0]), false)
	}},
	{name: "stale-group-desc", only: []string{"cffs", "cffs-ext"}, do: func(im *image) {
		// The last group of the last allocation group: owned by the
		// root, two used bits, no block behind either.
		n := im.nav.(cffsNav)
		nag := int64(n.u32(0, 20))
		hdr := 1 + cffsMapBlocks + (nag-1)*n.agBlocks()
		k := int((n.agBlocks()-16)/16) - 1
		n.edit(hdr, func(p []byte) {
			binary.LittleEndian.PutUint32(p[cffsDescOff+k*8:], 1)
			binary.LittleEndian.PutUint16(p[cffsDescOff+k*8+4:], 0x5)
		})
	}},
	{name: "embedded-nlink", only: []string{"cffs"}, do: func(im *image) {
		im.editInode("/file5", func(in *layout.Inode) { in.Nlink = 5 })
	}},
	{name: "corrupt-index-root", only: []string{"cffs", "cffs-ext"}, do: func(im *image) {
		in := im.getInode("/many")
		root := int64(in.DirIndexRootPtr())
		if root == 0 {
			im.t.Fatal("fixture directory /many has no index")
		}
		garbage := make([]byte, blockio.BlockSize)
		layout.DirIndexRoot{NBuckets: 2, NEntries: 9999}.Encode(garbage)
		raw{im.dev}.write(root, garbage)
	}},
	{name: "entry-cleared-under-index", only: []string{"cffs", "cffs-ext"}, do: func(im *image) {
		// A dangling name inside an indexed directory: clearing it makes
		// the index stale, so repair must drop and rebuild it too.
		im.plantEntry("/many", "ghost", im.nav.freeInode(), vfs.TypeReg)
	}},
}

// runCase damages a fresh image and runs the checker three times —
// detect-only, repair, detect-only again — returning one transcript
// line of everything but the wording of the problems.
func runCase(t *testing.T, tg target, d dmg) string {
	t.Helper()
	im := newImage(t, tg)
	d.do(im)
	var line strings.Builder
	fmt.Fprintf(&line, "%s/%s:", tg.name, d.name)
	for _, pass := range []struct {
		name   string
		repair bool
	}{{"detect", false}, {"repair", true}, {"recheck", false}} {
		rep, err := tg.check(im.dev, pass.repair)
		if err != nil {
			t.Fatalf("%s/%s %s: %v", tg.name, d.name, pass.name, err)
		}
		fmt.Fprintf(&line, " %s problems=%d repairs=%d unrepairable=%d files=%d dirs=%d used=%d outcome=%s;",
			pass.name, len(rep.Problems), rep.RepairsMade, len(rep.Unrepairable),
			rep.Files, rep.Dirs, rep.UsedBlocks, rep.Outcome())
	}
	return line.String()
}

// TestDamageBattery is the identity oracle for the shared engine: one
// table of corruptions run against every layout, each detect-only, then
// repaired, then re-checked. testdata/battery.golden was captured from
// the two separate checkers this package's engine replaced, so a diff
// here is a repair decision that changed; the lines that differ from
// that capture on purpose are the two bugfixes recorded in
// EXPERIMENTS.md ("Checker collapse").
func TestDamageBattery(t *testing.T) {
	var out strings.Builder
	for _, tg := range targets {
		for _, d := range battery {
			if d.appliesTo(tg.name) {
				out.WriteString(runCase(t, tg, d) + "\n")
			}
		}
	}
	const path = "testdata/battery.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("transcript line %d differs from %s:\n got %s\nwant %s", i+1, path, g, w)
		}
	}
}

// find returns the battery case called name.
func find(t testing.TB, name string) dmg {
	for _, d := range battery {
		if d.name == name {
			return d
		}
	}
	t.Fatalf("no battery case %q", name)
	return dmg{}
}

// A fix can never be scheduled without a problem line: a wild pointer
// that no count depends on — an indirect pointer a small file never
// reaches, a level-2 entry beyond EOF — must still make the image
// not-clean, or the detect-only verdict and Run's early return would both
// leave it on disk. (At the parent commit FFS called the first two clean
// and both layouts the third.)
func TestWildPointerIsAProblem(t *testing.T) {
	cases := []struct {
		dmg string
		ptr func(im *image) uint32
	}{
		{"wild-indirect-unused", func(im *image) uint32 { return im.getInode("/file3").Indir }},
		{"wild-dindirect-unused", func(im *image) uint32 { return im.getInode("/file3").DIndir }},
		{"wild-level2-beyond-eof", func(im *image) uint32 {
			return raw{im.dev}.u32(int64(im.getInode("/huge").DIndir), 4*1000)
		}},
	}
	for _, tg := range targets {
		for _, c := range cases {
			t.Run(tg.name+"/"+c.dmg, func(t *testing.T) {
				im := newImage(t, tg)
				find(t, c.dmg).do(im)
				if c.ptr(im) != wild {
					t.Fatal("damage not planted")
				}
				rep, err := tg.check(im.dev, false)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Clean() {
					t.Fatal("detect-only run called a wild pointer clean")
				}
				if rep, err = tg.check(im.dev, true); err != nil {
					t.Fatal(err)
				}
				if rep.RepairsMade < 1 || len(rep.Unrepairable) != 0 {
					t.Fatalf("repairs=%d unrepairable=%v", rep.RepairsMade, rep.Unrepairable)
				}
				if p := c.ptr(im); p != 0 {
					t.Fatalf("pointer is %#x after repair, want 0", p)
				}
				if rep, err = tg.check(im.dev, false); err != nil || !rep.Clean() {
					t.Fatalf("re-check: %v %v", err, rep.Problems)
				}
			})
		}
	}
}

// checkBounded runs a repairing check and fails if it took more than a
// second or allocated more than 64 MB: the ceiling a corrupt size field
// (or any scribble) must not be able to lift.
func checkBounded(t testing.TB, tg target, dev *blockio.Device) *fsck.Report {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rep, err := tg.check(dev, true)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("%s: check: %v", tg.name, err)
	}
	if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb > 64 || elapsed > time.Second {
		t.Fatalf("%s: check took %v and allocated %d MB", tg.name, elapsed, mb)
	}
	return rep
}

// fsck's cost is bounded by the image, not by a corrupt Size: an
// impossible size is one problem and one fix (clamped to the end of the
// last mapped block), where the parent commit walked Size/4096 logical
// blocks appending a message for each until it ran out of memory.
func TestImpossibleSizeIsBounded(t *testing.T) {
	for _, tg := range targets {
		for _, path := range []string{"/file5", "/sub", "/huge"} {
			for _, size := range []int64{1 << 60, -1} {
				t.Run(fmt.Sprintf("%s%s/%d", tg.name, path, size), func(t *testing.T) {
					im := newImage(t, tg)
					want := im.getInode(path).Size
					want = (want + blockio.BlockSize - 1) / blockio.BlockSize * blockio.BlockSize
					im.editInode(path, func(in *layout.Inode) { in.Size = size })
					rep := checkBounded(t, tg, im.dev)
					if len(rep.Problems) != 1 || rep.RepairsMade != 1 || len(rep.Unrepairable) != 0 {
						t.Fatalf("problems=%v repairs=%d unrepairable=%v", rep.Problems, rep.RepairsMade, rep.Unrepairable)
					}
					if got := im.getInode(path).Size; got != want {
						t.Fatalf("size clamped to %d, want %d", got, want)
					}
					if rep, err := tg.check(im.dev, false); err != nil || !rep.Clean() {
						t.Fatalf("re-check: %v %v", err, rep.Problems)
					}
				})
			}
		}
	}
}
