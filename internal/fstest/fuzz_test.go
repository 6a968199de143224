// Fuzz targets driving the real file system and the Ref oracle in
// lockstep: every decoded operation is applied to both, errors must
// match sentinel-for-sentinel, and the surviving namespaces must be
// identical. The fuzzer's job is to find an input where the two
// disagree — any such input is a bug in the real file system (or a
// modelling gap in the oracle, which is equally worth knowing).
// Seed corpora live in testdata/fuzz/<target>/; CI runs each target
// for a fixed budget and uploads new crashers from that directory.
package fstest_test

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/core"
	"cffs/internal/ffs"
	"cffs/internal/fstest"
	"cffs/internal/lfs"
	"cffs/internal/store"
	"cffs/internal/vfs"
)

// fuzzPair is the system under test and its oracle.
type fuzzPair struct {
	fs  vfs.FileSystem
	ref *fstest.Ref
}

func newFuzzPair(t *testing.T) fuzzPair {
	t.Helper()
	return newFuzzPairOn(t, fuzzLayouts[0].mkfs)
}

// fuzzLayouts are the three on-disk layouts; targets whose subject is
// the namespace ladder rather than C-FFS's own machinery run on all of
// them, because the ladder is written three times.
var fuzzLayouts = []struct {
	name string
	mkfs func(*blockio.Device) (vfs.FileSystem, error)
}{
	{"cffs", func(dev *blockio.Device) (vfs.FileSystem, error) {
		return core.Mkfs(dev, core.Options{EmbedInodes: true, Grouping: true, Mode: core.ModeDelayed})
	}},
	{"ffs", func(dev *blockio.Device) (vfs.FileSystem, error) {
		return ffs.Mkfs(dev, ffs.Options{Mode: ffs.ModeDelayed})
	}},
	{"lfs", func(dev *blockio.Device) (vfs.FileSystem, error) {
		return lfs.Mkfs(dev, lfs.Options{})
	}},
}

func newFuzzPairOn(t *testing.T, mkfs func(*blockio.Device) (vfs.FileSystem, error)) fuzzPair {
	t.Helper()
	bk, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := mkfs(bk.Device())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close(); bk.Bytes.Close() })
	return fuzzPair{fs: fs, ref: fstest.NewRef()}
}

// agree fails the fuzz run when the two systems disagree on an
// operation's outcome.
func agree(t *testing.T, what string, a, b error) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: real=%v oracle=%v", what, a, b)
	}
	if a == nil {
		return
	}
	for _, sentinel := range []error{
		vfs.ErrNotExist, vfs.ErrExist, vfs.ErrNotDir, vfs.ErrIsDir,
		vfs.ErrNotEmpty, vfs.ErrNameTooLong, vfs.ErrInvalid,
	} {
		if errors.Is(a, sentinel) != errors.Is(b, sentinel) {
			t.Fatalf("%s: error kinds diverge: real=%v oracle=%v", what, a, b)
		}
	}
}

// sameTrees compares the full namespaces: every path, type, size, link
// count, and file content.
func sameTrees(t *testing.T, p fuzzPair) {
	t.Helper()
	snap := func(fs vfs.FileSystem) []string {
		var lines []string
		err := vfs.WalkTree(fs, "/", func(path string, st vfs.Stat) error {
			size := st.Size
			if st.Type == vfs.TypeDir {
				size = 0 // directory sizes are format-specific
			}
			line := fmt.Sprintf("%s %v %d %d", path, st.Type, size, st.Nlink)
			if st.Type == vfs.TypeReg {
				data, err := vfs.ReadFile(fs, path)
				if err != nil {
					return err
				}
				line += fmt.Sprintf(" %x", fnv(data))
			}
			lines = append(lines, line)
			return nil
		})
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		sort.Strings(lines)
		return lines
	}
	a, b := snap(p.fs), snap(p.ref)
	if len(a) != len(b) {
		t.Fatalf("trees diverge: real has %d entries, oracle %d\nreal: %v\noracle: %v", len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tree entry diverges:\n real   %s\n oracle %s", a[i], b[i])
		}
	}
}

func fnv(p []byte) uint64 {
	var h uint64 = 1469598103934665603
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// prog decodes a fuzzer byte string into operation parameters; running
// off the end yields zeros, so every input is a valid program.
type prog struct {
	data []byte
	pos  int
}

func (p *prog) byte() byte {
	if p.pos >= len(p.data) {
		p.pos++
		return 0
	}
	b := p.data[p.pos]
	p.pos++
	return b
}

func (p *prog) u32() uint32 {
	var v uint32
	for i := 0; i < 4; i++ {
		v = v<<8 | uint32(p.byte())
	}
	return v
}

func (p *prog) done() bool { return p.pos >= len(p.data) }

// clamp bounds fuzzer-chosen offsets and sizes so the oracle's dense
// in-memory files stay small while still crossing the real file
// system's direct/indirect mapping boundaries.
const (
	maxFuzzOff  = 6 << 20
	maxFuzzLen  = 1 << 15
	maxFuzzOps  = 48
	maxFuzzName = 160 // past MaxNameLen, so ErrNameTooLong paths are explored
)

// FuzzReadWrite decodes a program of write/read/truncate/create/unlink
// ops over a small file population and requires byte-identical data and
// error behaviour from the real file system and the oracle.
func FuzzReadWrite(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 16, 0, 0, 4, 0, 1, 0, 0, 0, 8, 0, 0, 2, 0})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 17, 2, 0, 16, 0, 0, 5, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		pair := newFuzzPair(t)
		p := &prog{data: data}
		path := func(sel byte) string { return fmt.Sprintf("/f%d", sel%6) }
		for ops := 0; !p.done() && ops < maxFuzzOps; ops++ {
			switch op := p.byte(); op % 6 {
			case 0: // write
				pth := path(p.byte())
				off := int64(p.u32() % maxFuzzOff)
				n := int(p.u32() % maxFuzzLen)
				buf := mkpattern(uint64(off)+uint64(n), n)
				agree(t, "write "+pth,
					fuzzWrite(pair.fs, pth, buf, off), fuzzWrite(pair.ref, pth, buf, off))
			case 1: // read and compare contents
				pth := path(p.byte())
				off := int64(p.u32() % maxFuzzOff)
				n := int(p.u32()%maxFuzzLen) + 1
				a, errA := fuzzRead(pair.fs, pth, off, n)
				b, errB := fuzzRead(pair.ref, pth, off, n)
				agree(t, "read "+pth, errA, errB)
				if errA == nil && !bytes.Equal(a, b) {
					t.Fatalf("read %s [%d,+%d): contents diverge", pth, off, n)
				}
			case 2: // truncate
				pth := path(p.byte())
				size := int64(p.u32() % maxFuzzOff)
				agree(t, "truncate "+pth,
					fuzzTruncate(pair.fs, pth, size), fuzzTruncate(pair.ref, pth, size))
			case 3: // create
				pth := path(p.byte())
				_, errA := vfs.OpenFile(pair.fs, pth, vfs.OCreate)
				_, errB := vfs.OpenFile(pair.ref, pth, vfs.OCreate)
				agree(t, "create "+pth, errA, errB)
			case 4: // unlink
				pth := path(p.byte())
				agree(t, "unlink "+pth,
					vfs.Remove(pair.fs, pth), vfs.Remove(pair.ref, pth))
			case 5: // sync / flush
				if err := pair.fs.Sync(); err != nil {
					t.Fatalf("sync: %v", err)
				}
				if p.byte()%2 == 0 {
					if fl, ok := pair.fs.(vfs.Flusher); ok {
						if err := fl.Flush(); err != nil {
							t.Fatalf("flush: %v", err)
						}
					}
				}
			}
		}
		sameTrees(t, pair)
	})
}

// FuzzRename drives renames, links, and directory ops using two
// fuzzer-chosen names plus a program selecting sources and targets, on
// every layout. The picked paths include a directory and a place
// beneath it, so a rename can aim a directory into its own subtree, and
// op 5 makes an ino-level call with whatever a picked path resolves to
// — a regular file, as often as not — in the parent's place.
func FuzzRename(f *testing.F) {
	f.Add("a", "b", []byte{0, 1, 2, 3})
	f.Add("dir/sub", "x", []byte{4, 0, 5, 1, 2})
	f.Add("..", ".", []byte{0, 2, 4})
	f.Fuzz(func(t *testing.T, n1, n2 string, ops []byte) {
		if len(n1) > maxFuzzName || len(n2) > maxFuzzName {
			t.Skip("names beyond interesting lengths")
		}
		for _, layout := range fuzzLayouts {
			fuzzRenameOn(t, newFuzzPairOn(t, layout.mkfs), n1, n2, ops)
		}
	})
}

func fuzzRenameOn(t *testing.T, pair fuzzPair, n1, n2 string, ops []byte) {
	// A small fixture so renames have something to collide with.
	for _, fs := range []vfs.FileSystem{pair.fs, pair.ref} {
		if _, err := vfs.MkdirAll(fs, "/d1/d2"); err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFile(fs, "/d1/keep", []byte("keep")); err != nil {
			t.Fatal(err)
		}
	}
	paths := []string{"/" + n1, "/" + n2, "/d1/" + n1, "/d1/d2/" + n2, "/d1/keep", "/d1", "/d1/d2"}
	pick := func(sel byte) string { return paths[int(sel)%len(paths)] }
	p := &prog{data: ops}
	for ops := 0; !p.done() && ops < maxFuzzOps; ops++ {
		switch op := p.byte(); op % 6 {
		case 0: // rename
			from, to := pick(p.byte()), pick(p.byte())
			agree(t, fmt.Sprintf("rename %q -> %q", from, to),
				fuzzRename(pair.fs, from, to), fuzzRename(pair.ref, from, to))
		case 1: // link
			target, name := pick(p.byte()), pick(p.byte())
			agree(t, fmt.Sprintf("link %q -> %q", target, name),
				fuzzLink(pair.fs, target, name), fuzzLink(pair.ref, target, name))
		case 2: // create a file at a picked path
			pth := pick(p.byte())
			_, errA := vfs.OpenFile(pair.fs, pth, vfs.OCreate)
			_, errB := vfs.OpenFile(pair.ref, pth, vfs.OCreate)
			agree(t, "create "+pth, errA, errB)
		case 3: // mkdir
			pth := pick(p.byte())
			agree(t, "mkdir "+pth, fuzzMkdir(pair.fs, pth), fuzzMkdir(pair.ref, pth))
		case 4: // remove
			pth := pick(p.byte())
			agree(t, "remove "+pth,
				vfs.Remove(pair.fs, pth), vfs.Remove(pair.ref, pth))
		case 5: // ino-level call under whatever the path names
			pth, which, name := pick(p.byte()), p.byte(), n1
			agree(t, fmt.Sprintf("op %d %q under %q", which, name, pth),
				fuzzUnder(pair.fs, pth, which, name), fuzzUnder(pair.ref, pth, which, name))
		}
	}
	sameTrees(t, pair)
}

// fuzzUnder resolves pth and hands its ino to fstest.UnderFile as the
// parent; /d1/keep is the source of the call that needs one.
func fuzzUnder(fs vfs.FileSystem, pth string, which byte, name string) error {
	parent, err := vfs.Walk(fs, pth)
	if err != nil {
		return err
	}
	d1, err := vfs.Walk(fs, "/d1")
	if err != nil {
		return err
	}
	return fstest.UnderFile(fs, parent, which, name, d1, "keep")
}

// FuzzOpenFlags explores the OpenFile flag lattice — every flag
// combination (valid or not) against existing files, missing files, and
// directories.
func FuzzOpenFlags(f *testing.F) {
	f.Add("f", byte(1), true)
	f.Add("d", byte(5), false)
	f.Add("", byte(2), true)
	f.Add("deep/nested/name", byte(7), false)
	f.Add("f", byte(0x1c), true) // ORDWR|OTrunc on an existing file
	f.Add("f", byte(0x0c), true) // ORead|OTrunc: read-only truncation rejected
	f.Add("d", byte(0x10), true) // OWrite on a directory rejected
	f.Fuzz(func(t *testing.T, name string, flags byte, populate bool) {
		if len(name) > maxFuzzName {
			t.Skip("name beyond interesting lengths")
		}
		pair := newFuzzPair(t)
		if populate {
			for _, fs := range []vfs.FileSystem{pair.fs, pair.ref} {
				if err := vfs.WriteFile(fs, "/f", []byte("payload")); err != nil {
					t.Fatal(err)
				}
				if _, err := vfs.MkdirAll(fs, "/d"); err != nil {
					t.Fatal(err)
				}
			}
		}
		flag := vfs.OpenFlag(flags) & (vfs.OCreate | vfs.OExcl | vfs.OTrunc | vfs.ORead | vfs.OWrite)
		pth := "/" + name
		inoA, errA := vfs.OpenFile(pair.fs, pth, flag)
		inoB, errB := vfs.OpenFile(pair.ref, pth, flag)
		agree(t, fmt.Sprintf("openfile %q %03b", pth, flag), errA, errB)
		if errA == nil {
			// The handles must behave identically too: write through one
			// name, read through the walked path.
			stA, sErrA := pair.fs.Stat(inoA)
			stB, sErrB := pair.ref.Stat(inoB)
			agree(t, "stat "+pth, sErrA, sErrB)
			if sErrA == nil && stA.Type != stB.Type {
				t.Fatalf("openfile %q: type %v vs oracle %v", pth, stA.Type, stB.Type)
			}
			if sErrA == nil && stA.Type == vfs.TypeReg {
				if stA.Size != stB.Size {
					t.Fatalf("openfile %q: size %d vs oracle %d", pth, stA.Size, stB.Size)
				}
				_, wErrA := pair.fs.WriteAt(inoA, []byte("after-open"), 0)
				_, wErrB := pair.ref.WriteAt(inoB, []byte("after-open"), 0)
				agree(t, "write-after-open "+pth, wErrA, wErrB)
			}
		}
		sameTrees(t, pair)
	})
}

// FuzzPathTraversal feeds hostile paths — "..", ".", doubled slashes,
// overlong components — through the path helpers on both systems. The
// real file system resolves ".." via the physical entries its
// directories store; the oracle models the same rule, and the two must
// never disagree about where a path lands or why it fails.
func FuzzPathTraversal(f *testing.F) {
	f.Add("/a/../b", "c/./d")
	f.Add("//x//y", "../../../etc")
	f.Add("/d1/..", ".")
	f.Add("", "/")
	f.Fuzz(func(t *testing.T, p1, p2 string) {
		if len(p1) > 4*maxFuzzName || len(p2) > 4*maxFuzzName {
			t.Skip("paths beyond interesting lengths")
		}
		pair := newFuzzPair(t)
		for _, fs := range []vfs.FileSystem{pair.fs, pair.ref} {
			if _, err := vfs.MkdirAll(fs, "/d1/d2"); err != nil {
				t.Fatal(err)
			}
			if err := vfs.WriteFile(fs, "/d1/f", []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		for _, pth := range []string{p1, p2, p1 + "/" + p2} {
			inoA, errA := vfs.Walk(pair.fs, pth)
			inoB, errB := vfs.Walk(pair.ref, pth)
			agree(t, fmt.Sprintf("walk %q", pth), errA, errB)
			if errA == nil {
				// Same landing spot: compare by type and by a probe create.
				stA, e1 := pair.fs.Stat(inoA)
				stB, e2 := pair.ref.Stat(inoB)
				agree(t, fmt.Sprintf("stat %q", pth), e1, e2)
				if e1 == nil && stA.Type != stB.Type {
					t.Fatalf("walk %q: lands on %v vs oracle %v", pth, stA.Type, stB.Type)
				}
			}
			agree(t, fmt.Sprintf("mkdirall %q", pth), fuzzMkdirAll(pair.fs, pth), fuzzMkdirAll(pair.ref, pth))
		}
		sameTrees(t, pair)
	})
}

// FuzzRawNames bypasses the path helpers entirely and feeds raw,
// fuzzer-chosen names straight into the single-name entry points
// (Create, Mkdir, Link, Unlink, Rmdir, Rename, Lookup). The other
// targets route names through vfs.Walk, where an embedded '/' is
// split into components before the file system ever sees it — so
// only this target exercises the vfs.CheckName rejection of '/' and NUL
// inside one name field.
func FuzzRawNames(f *testing.F) {
	f.Add("a/b", "ok", []byte{0, 1, 2, 3, 4, 5})
	f.Add("nul\x00byte", "x/y", []byte{0, 0, 1, 1, 3, 2})
	f.Add("/", "\x00", []byte{2, 0, 5, 1, 0, 3})
	f.Fuzz(func(t *testing.T, n1, n2 string, ops []byte) {
		if len(n1) > maxFuzzName || len(n2) > maxFuzzName {
			t.Skip("names beyond interesting lengths")
		}
		pair := newFuzzPair(t)
		// A fixture directory so ops can target a non-root parent, and a
		// link target that exists at the start. Both can be renamed or
		// unlinked by the program, so they are re-resolved before every
		// op rather than cached; the resolution itself must agree.
		for _, fs := range []vfs.FileSystem{pair.fs, pair.ref} {
			if _, err := fs.Mkdir(fs.Root(), "sub"); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Create(fs.Root(), "tgt"); err != nil {
				t.Fatal(err)
			}
		}
		// resolve looks up a fixture name on both systems and requires
		// them to agree on its existence.
		resolve := func(name string) (vfs.Ino, vfs.Ino, bool) {
			a, errA := pair.fs.Lookup(pair.fs.Root(), name)
			b, errB := pair.ref.Lookup(pair.ref.Root(), name)
			agree(t, "resolve "+name, errA, errB)
			return a, b, errA == nil
		}
		names := []string{n1, n2, n1 + "/" + n2, n1 + "\x00" + n2, "plain", "sub", "tgt"}
		pick := func(sel byte) string { return names[int(sel)%len(names)] }
		p := &prog{data: ops}
		for ops := 0; !p.done() && ops < maxFuzzOps; ops++ {
			op := p.byte()
			di := int(p.byte()) % 2
			dA, dB := pair.fs.Root(), pair.ref.Root()
			if di == 1 {
				if a, b, ok := resolve("sub"); ok {
					dA, dB = a, b
				}
			}
			name := pick(p.byte())
			what := fmt.Sprintf("dir%d %q", di, name)
			switch op % 7 {
			case 0:
				_, errA := pair.fs.Create(dA, name)
				_, errB := pair.ref.Create(dB, name)
				agree(t, "raw create "+what, errA, errB)
			case 1:
				_, errA := pair.fs.Mkdir(dA, name)
				_, errB := pair.ref.Mkdir(dB, name)
				agree(t, "raw mkdir "+what, errA, errB)
			case 2:
				tA, tB, ok := resolve("tgt")
				if !ok {
					continue
				}
				agree(t, "raw link "+what,
					pair.fs.Link(dA, name, tA), pair.ref.Link(dB, name, tB))
			case 3:
				agree(t, "raw unlink "+what,
					pair.fs.Unlink(dA, name), pair.ref.Unlink(dB, name))
			case 4:
				agree(t, "raw rmdir "+what,
					pair.fs.Rmdir(dA, name), pair.ref.Rmdir(dB, name))
			case 5:
				dname := pick(p.byte())
				what = fmt.Sprintf("%s -> %q", what, dname)
				agree(t, "raw rename "+what,
					pair.fs.Rename(dA, name, dA, dname), pair.ref.Rename(dB, name, dB, dname))
			case 6:
				_, errA := pair.fs.Lookup(dA, name)
				_, errB := pair.ref.Lookup(dB, name)
				agree(t, "raw lookup "+what, errA, errB)
			}
		}
		sameTrees(t, pair)
	})
}

// --- path-level wrappers that surface errors without aborting ---

func fuzzWrite(fs vfs.FileSystem, p string, data []byte, off int64) error {
	ino, err := vfs.Walk(fs, p)
	if err != nil {
		return err
	}
	_, err = fs.WriteAt(ino, data, off)
	return err
}

func fuzzRead(fs vfs.FileSystem, p string, off int64, n int) ([]byte, error) {
	ino, err := vfs.Walk(fs, p)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	rn, err := fs.ReadAt(ino, buf, off)
	return buf[:rn], err
}

func fuzzTruncate(fs vfs.FileSystem, p string, size int64) error {
	ino, err := vfs.Walk(fs, p)
	if err != nil {
		return err
	}
	return fs.Truncate(ino, size)
}

func fuzzRename(fs vfs.FileSystem, from, to string) error {
	sdir, sname, err := vfs.WalkDir(fs, from)
	if err != nil {
		return err
	}
	ddir, dname, err := vfs.WalkDir(fs, to)
	if err != nil {
		return err
	}
	return fs.Rename(sdir, sname, ddir, dname)
}

func fuzzLink(fs vfs.FileSystem, target, name string) error {
	ino, err := vfs.Walk(fs, target)
	if err != nil {
		return err
	}
	dir, lname, err := vfs.WalkDir(fs, name)
	if err != nil {
		return err
	}
	return fs.Link(dir, lname, ino)
}

func fuzzMkdir(fs vfs.FileSystem, p string) error {
	dir, name, err := vfs.WalkDir(fs, p)
	if err != nil {
		return err
	}
	_, err = fs.Mkdir(dir, name)
	return err
}

func fuzzMkdirAll(fs vfs.FileSystem, p string) error {
	_, err := vfs.MkdirAll(fs, p)
	return err
}

// mkpattern is deterministic position-dependent content, distinct from
// the suite's pattern helper only in living in this package.
func mkpattern(seed uint64, n int) []byte {
	p := make([]byte, n)
	s := seed*2654435761 + 1
	for i := range p {
		s = s*6364136223846793005 + 1442695040888963407
		p[i] = byte(s >> 56)
	}
	return p
}
