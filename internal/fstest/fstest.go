// Package fstest is a conformance suite run against every
// vfs.FileSystem implementation in this repository: the FFS baseline and
// all four C-FFS configurations. One battery of behavioural tests keeps
// the implementations semantically interchangeable, which is what makes
// the paper's performance comparisons meaningful.
package fstest

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/sim"
	"cffs/internal/vfs"
)

// Factory builds a fresh, empty file system for one subtest.
type Factory func(t *testing.T) vfs.FileSystem

// Cases returns the conformance battery. Each case declares the
// capabilities it needs; Suite.Run skips — never silently passes — a
// case whose needs the backend does not meet.
func Cases() []Case {
	return []Case{
		{Name: "CreateLookup", Fn: testCreateLookup},
		{Name: "CreateExisting", Fn: testCreateExisting},
		{Name: "WriteReadSmall", Fn: testWriteReadSmall},
		{Name: "WriteReadLarge", Fn: testWriteReadLarge},
		{Name: "WriteReadHuge", Needs: Features{Truncate: true}, Fn: testWriteReadHuge},
		{Name: "WriteReadSparse", Needs: Features{Sparse: true}, Fn: testWriteReadSparse},
		{Name: "Overwrite", Fn: testOverwrite},
		{Name: "UnalignedIO", Fn: testUnalignedIO},
		{Name: "Truncate", Needs: Features{Truncate: true}, Fn: testTruncate},
		{Name: "TruncateGrow", Needs: Features{Truncate: true}, Fn: testTruncateGrow},
		{Name: "UnlinkFreesSpace", Fn: testUnlinkFreesSpace},
		{Name: "MkdirRmdir", Fn: testMkdirRmdir},
		{Name: "RmdirNotEmpty", Fn: testRmdirNotEmpty},
		{Name: "ReadDir", Fn: testReadDir},
		{Name: "DeepPaths", Fn: testDeepPaths},
		{Name: "ManyFilesOneDir", Fn: testManyFilesOneDir},
		{Name: "HardLinks", Needs: Features{HardLinks: true}, Fn: testHardLinks},
		{Name: "RenameSameDir", Needs: Features{Rename: true}, Fn: testRenameSameDir},
		{Name: "RenameAcrossDirs", Needs: Features{Rename: true}, Fn: testRenameAcrossDirs},
		{Name: "RenameReplace", Needs: Features{Rename: true, RenameReplace: true}, Fn: testRenameReplace},
		{Name: "RenameParentNotDir", Needs: Features{Rename: true}, Fn: testRenameParentNotDir},
		{Name: "RenameIntoOwnSubtree", Needs: Features{Rename: true}, Fn: testRenameIntoOwnSubtree, Fsck: true},
		{Name: "ErrorCases", Fn: testErrorCases},
		{Name: "NameValidation", Fn: testNameValidation},
		{Name: "PersistenceAcrossFlush", Needs: Features{Flush: true}, Fn: testPersistenceAcrossFlush},
		{Name: "StatFields", Fn: testStatFields},
		{Name: "ManyFilesContentIntegrity", Fn: testManyFilesContentIntegrity},
	}
}

// Run executes the whole conformance battery assuming a fully-featured
// file system — the right call for the repo's own implementations, which
// must support everything. fsck is Suite.Fsck; nil where there is no
// image to check. Backends with gaps use Suite directly.
func Run(t *testing.T, mk Factory, fsck func(*testing.T, vfs.FileSystem)) {
	Suite{Factory: mk, Features: AllFeatures(), Fsck: fsck}.Run(t)
}

// pattern produces deterministic, position-dependent content so that any
// block-level mixup is detected.
func pattern(seed uint64, n int) []byte {
	r := sim.NewRNG(seed)
	p := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < n; j++ {
			p[i+j] = byte(v >> (8 * j))
		}
	}
	return p
}

func testCreateLookup(t *testing.T, fs vfs.FileSystem) {
	ino, err := fs.Create(fs.Root(), "hello")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.Lookup(fs.Root(), "hello")
	if err != nil {
		t.Fatal(err)
	}
	if got != ino {
		t.Fatalf("Lookup = %d, Create = %d", got, ino)
	}
	st, err := fs.Stat(ino)
	if err != nil {
		t.Fatal(err)
	}
	if st.Type != vfs.TypeReg || st.Size != 0 || st.Nlink != 1 {
		t.Fatalf("fresh file stat %+v", st)
	}
}

func testCreateExisting(t *testing.T, fs vfs.FileSystem) {
	if _, err := fs.Create(fs.Root(), "dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(fs.Root(), "dup"); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("second create = %v, want ErrExist", err)
	}
	if _, err := fs.Mkdir(fs.Root(), "dup"); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("mkdir over file = %v, want ErrExist", err)
	}
}

func testWriteReadSmall(t *testing.T, fs vfs.FileSystem) {
	data := pattern(1, 1024)
	if err := vfs.WriteFile(fs, "/small", data); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fs, "/small")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("1KB round trip failed")
	}
}

func testWriteReadLarge(t *testing.T, fs vfs.FileSystem) {
	// 300 blocks: exercises direct and single-indirect mappings.
	data := pattern(2, 300*blockio.BlockSize+123)
	if err := vfs.WriteFile(fs, "/large", data); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fs, "/large")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("large file round trip failed")
	}
	st, _ := fs.Stat(mustWalk(t, fs, "/large"))
	if st.Size != int64(len(data)) {
		t.Fatalf("size %d, want %d", st.Size, len(data))
	}
}

func testWriteReadSparse(t *testing.T, fs vfs.FileSystem) {
	ino, err := fs.Create(fs.Root(), "sparse")
	if err != nil {
		t.Fatal(err)
	}
	// Write far past the start; everything before must read as zeros.
	// The offset lands in the double-indirect range to exercise it.
	off := int64(12+1024+5) * blockio.BlockSize
	tail := pattern(3, 1000)
	if _, err := fs.WriteAt(ino, tail, off); err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, 4096)
	buf := make([]byte, 4096)
	if _, err := fs.ReadAt(ino, buf, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, zero) {
		t.Fatal("hole did not read as zeros")
	}
	got := make([]byte, 1000)
	if n, err := fs.ReadAt(ino, got, off); err != nil || n != 1000 {
		t.Fatalf("ReadAt tail = %d, %v", n, err)
	}
	if !bytes.Equal(got, tail) {
		t.Fatal("sparse tail corrupted")
	}
}

func testOverwrite(t *testing.T, fs vfs.FileSystem) {
	first := pattern(4, 3*blockio.BlockSize)
	second := pattern(5, 3*blockio.BlockSize)
	if err := vfs.WriteFile(fs, "/ow", first); err != nil {
		t.Fatal(err)
	}
	ino := mustWalk(t, fs, "/ow")
	if _, err := fs.WriteAt(ino, second, 0); err != nil {
		t.Fatal(err)
	}
	got, _ := vfs.ReadFile(fs, "/ow")
	if !bytes.Equal(got, second) {
		t.Fatal("overwrite did not replace contents")
	}
}

func testUnalignedIO(t *testing.T, fs vfs.FileSystem) {
	ino, err := fs.Create(fs.Root(), "unaligned")
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(6, 10000)
	// Write in odd-sized chunks at odd offsets.
	for off := 0; off < len(data); {
		n := 777
		if off+n > len(data) {
			n = len(data) - off
		}
		if _, err := fs.WriteAt(ino, data[off:off+n], int64(off)); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	got := make([]byte, len(data))
	for off := 0; off < len(got); {
		n := 333
		if off+n > len(got) {
			n = len(got) - off
		}
		rn, err := fs.ReadAt(ino, got[off:off+n], int64(off))
		if err != nil || rn != n {
			t.Fatalf("ReadAt(%d) = %d, %v", off, rn, err)
		}
		off += n
	}
	if !bytes.Equal(got, data) {
		t.Fatal("unaligned I/O corrupted data")
	}
	// Reads past EOF return 0.
	if n, err := fs.ReadAt(ino, make([]byte, 10), int64(len(data))+5); n != 0 || err != nil {
		t.Fatalf("read past EOF = %d, %v", n, err)
	}
}

func testTruncate(t *testing.T, fs vfs.FileSystem) {
	data := pattern(7, 5*blockio.BlockSize)
	if err := vfs.WriteFile(fs, "/trunc", data); err != nil {
		t.Fatal(err)
	}
	ino := mustWalk(t, fs, "/trunc")
	if err := fs.Truncate(ino, 1000); err != nil {
		t.Fatal(err)
	}
	st, _ := fs.Stat(ino)
	if st.Size != 1000 {
		t.Fatalf("size after truncate %d, want 1000", st.Size)
	}
	got, _ := vfs.ReadFile(fs, "/trunc")
	if !bytes.Equal(got, data[:1000]) {
		t.Fatal("truncate corrupted retained prefix")
	}
	// Growing back must expose zeros, not stale data.
	if err := fs.Truncate(ino, 3000); err != nil {
		t.Fatal(err)
	}
	got, _ = vfs.ReadFile(fs, "/trunc")
	if len(got) != 3000 || !bytes.Equal(got[:1000], data[:1000]) {
		t.Fatal("grow after shrink lost prefix")
	}
	for i := 1000; i < 3000; i++ {
		if got[i] != 0 {
			t.Fatalf("stale byte %#x at %d after shrink+grow", got[i], i)
		}
	}
}

func testTruncateGrow(t *testing.T, fs vfs.FileSystem) {
	ino, err := fs.Create(fs.Root(), "grow")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(ino, 2*blockio.BlockSize); err != nil {
		t.Fatal(err)
	}
	st, _ := fs.Stat(ino)
	if st.Size != 2*blockio.BlockSize {
		t.Fatalf("size %d after grow", st.Size)
	}
	buf := make([]byte, 100)
	if n, _ := fs.ReadAt(ino, buf, blockio.BlockSize); n != 100 {
		t.Fatalf("read in grown region = %d", n)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("grown region not zero")
		}
	}
}

func testUnlinkFreesSpace(t *testing.T, fs vfs.FileSystem) {
	data := pattern(8, 64*blockio.BlockSize)
	if err := vfs.WriteFile(fs, "/bye", data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink(fs.Root(), "bye"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup(fs.Root(), "bye"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("lookup after unlink = %v", err)
	}
	// The space must be reusable: fill-and-free repeatedly.
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("cycle%d", i)
		if err := vfs.WriteFile(fs, "/"+name, data); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := fs.Unlink(fs.Root(), name); err != nil {
			t.Fatal(err)
		}
	}
}

func testMkdirRmdir(t *testing.T, fs vfs.FileSystem) {
	d, err := fs.Mkdir(fs.Root(), "sub")
	if err != nil {
		t.Fatal(err)
	}
	st, _ := fs.Stat(d)
	if st.Type != vfs.TypeDir || st.Nlink != 2 {
		t.Fatalf("fresh dir stat %+v", st)
	}
	rootSt, _ := fs.Stat(fs.Root())
	if rootSt.Nlink != 3 {
		t.Fatalf("root nlink %d after mkdir, want 3", rootSt.Nlink)
	}
	if err := fs.Rmdir(fs.Root(), "sub"); err != nil {
		t.Fatal(err)
	}
	rootSt, _ = fs.Stat(fs.Root())
	if rootSt.Nlink != 2 {
		t.Fatalf("root nlink %d after rmdir, want 2", rootSt.Nlink)
	}
	if _, err := fs.Lookup(fs.Root(), "sub"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatal("dir still visible after rmdir")
	}
}

func testRmdirNotEmpty(t *testing.T, fs vfs.FileSystem) {
	d, err := fs.Mkdir(fs.Root(), "full")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(d, "occupant"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir(fs.Root(), "full"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty = %v, want ErrNotEmpty", err)
	}
	if err := fs.Unlink(d, "occupant"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir(fs.Root(), "full"); err != nil {
		t.Fatal(err)
	}
}

func testReadDir(t *testing.T, fs vfs.FileSystem) {
	names := []string{"alpha", "beta", "gamma", "delta"}
	for _, n := range names {
		if _, err := fs.Create(fs.Root(), n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Mkdir(fs.Root(), "dir1"); err != nil {
		t.Fatal(err)
	}
	ents, err := fs.ReadDir(fs.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 5 {
		t.Fatalf("ReadDir returned %d entries, want 5: %v", len(ents), ents)
	}
	seen := map[string]vfs.FileType{}
	for _, e := range ents {
		if e.Name == "." || e.Name == ".." {
			t.Fatalf("ReadDir leaked %q", e.Name)
		}
		seen[e.Name] = e.Type
	}
	for _, n := range names {
		if seen[n] != vfs.TypeReg {
			t.Fatalf("entry %q missing or wrong type", n)
		}
	}
	if seen["dir1"] != vfs.TypeDir {
		t.Fatal("dir1 missing or wrong type")
	}
}

func testDeepPaths(t *testing.T, fs vfs.FileSystem) {
	path := ""
	for i := 0; i < 12; i++ {
		path += fmt.Sprintf("/level%02d", i)
	}
	if _, err := vfs.MkdirAll(fs, path); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, path+"/leaf", []byte("deep")); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fs, path+"/leaf")
	if err != nil || string(got) != "deep" {
		t.Fatalf("deep leaf = %q, %v", got, err)
	}
}

func testManyFilesOneDir(t *testing.T, fs vfs.FileSystem) {
	// Enough names to force multiple directory blocks in any format.
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := fs.Create(fs.Root(), fmt.Sprintf("file%04d", i)); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	ents, err := fs.ReadDir(fs.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != n {
		t.Fatalf("ReadDir = %d entries, want %d", len(ents), n)
	}
	// Remove every other file, then look up the survivors.
	for i := 0; i < n; i += 2 {
		if err := fs.Unlink(fs.Root(), fmt.Sprintf("file%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i += 2 {
		if _, err := fs.Lookup(fs.Root(), fmt.Sprintf("file%04d", i)); err != nil {
			t.Fatalf("survivor %d missing: %v", i, err)
		}
	}
	for i := 0; i < n; i += 2 {
		if _, err := fs.Lookup(fs.Root(), fmt.Sprintf("file%04d", i)); err == nil {
			t.Fatalf("deleted file %d still visible", i)
		}
	}
}

func testHardLinks(t *testing.T, fs vfs.FileSystem) {
	data := pattern(9, 2000)
	if err := vfs.WriteFile(fs, "/orig", data); err != nil {
		t.Fatal(err)
	}
	ino := mustWalk(t, fs, "/orig")
	if err := fs.Link(fs.Root(), "alias", ino); err != nil {
		t.Fatal(err)
	}
	aliasIno, err := fs.Lookup(fs.Root(), "alias")
	if err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fs, "/alias")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatal("alias content differs")
	}
	st, _ := fs.Stat(aliasIno)
	if st.Nlink != 2 {
		t.Fatalf("nlink = %d, want 2", st.Nlink)
	}
	// Writing through one name is visible through the other.
	if _, err := fs.WriteAt(aliasIno, []byte("PATCH"), 0); err != nil {
		t.Fatal(err)
	}
	got, _ = vfs.ReadFile(fs, "/orig")
	if !bytes.HasPrefix(got, []byte("PATCH")) {
		t.Fatal("write through alias not visible through original")
	}
	if err := fs.Unlink(fs.Root(), "orig"); err != nil {
		t.Fatal(err)
	}
	got, err = vfs.ReadFile(fs, "/alias")
	if err != nil || !bytes.HasPrefix(got, []byte("PATCH")) {
		t.Fatal("file died while a link remained")
	}
	st2, err := fs.Stat(mustWalk(t, fs, "/alias"))
	if err != nil || st2.Nlink != 1 {
		t.Fatalf("nlink after unlink = %d, %v", st2.Nlink, err)
	}
	if err := fs.Unlink(fs.Root(), "alias"); err != nil {
		t.Fatal(err)
	}
}

func testRenameSameDir(t *testing.T, fs vfs.FileSystem) {
	if err := vfs.WriteFile(fs, "/old", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(fs.Root(), "old", fs.Root(), "new"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup(fs.Root(), "old"); err == nil {
		t.Fatal("old name survived rename")
	}
	got, err := vfs.ReadFile(fs, "/new")
	if err != nil || string(got) != "payload" {
		t.Fatalf("renamed contents = %q, %v", got, err)
	}
}

func testRenameAcrossDirs(t *testing.T, fs vfs.FileSystem) {
	a, err := fs.Mkdir(fs.Root(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Mkdir(fs.Root(), "b"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/a/x", []byte("move me")); err != nil {
		t.Fatal(err)
	}
	b := mustWalk(t, fs, "/b")
	if err := fs.Rename(a, "x", b, "y"); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fs, "/b/y")
	if err != nil || string(got) != "move me" {
		t.Fatalf("moved file = %q, %v", got, err)
	}
	if _, err := fs.Lookup(a, "x"); err == nil {
		t.Fatal("source name survived cross-directory rename")
	}
	// Move a directory and check ".." semantics via nlink bookkeeping.
	if _, err := fs.Mkdir(a, "subdir"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(a, "subdir", b, "subdir"); err != nil {
		t.Fatal(err)
	}
	ast, _ := fs.Stat(a)
	bst, _ := fs.Stat(b)
	if ast.Nlink != 2 || bst.Nlink != 3 {
		t.Fatalf("nlink after dir move: a=%d b=%d, want 2/3", ast.Nlink, bst.Nlink)
	}
}

func testRenameReplace(t *testing.T, fs vfs.FileSystem) {
	if err := vfs.WriteFile(fs, "/src", []byte("new content")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/dst", []byte("old content")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(fs.Root(), "src", fs.Root(), "dst"); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fs, "/dst")
	if err != nil || string(got) != "new content" {
		t.Fatalf("replaced contents = %q, %v", got, err)
	}
	if _, err := fs.Lookup(fs.Root(), "src"); err == nil {
		t.Fatal("source survived replacing rename")
	}
}

// testRenameParentNotDir passes a regular file where Rename expects a
// directory, on either side. Path-level callers never do (WalkDir has
// already resolved the parent as a directory); an ino-level caller can,
// and a file system that believes it writes a directory record over the
// file's first data block.
func testRenameParentNotDir(t *testing.T, fs vfs.FileSystem) {
	root := fs.Root()
	payload := []byte("hello world payload")
	if err := vfs.WriteFile(fs, "/file", payload); err != nil {
		t.Fatal(err)
	}
	file := mustWalk(t, fs, "/file")
	if _, err := fs.Create(root, "src"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(root, "src", file, "x"); !errors.Is(err, vfs.ErrNotDir) {
		t.Errorf("rename into a regular file = %v, want ErrNotDir", err)
	}
	if err := fs.Rename(file, "src", root, "x"); !errors.Is(err, vfs.ErrNotDir) {
		t.Errorf("rename out of a regular file = %v, want ErrNotDir", err)
	}
	if got, err := vfs.ReadFile(fs, "/file"); err != nil || !bytes.Equal(got, payload) {
		t.Errorf("file used as a parent now reads %d bytes %.40q, %v", len(got), got, err)
	}
	if _, err := fs.Lookup(root, "src"); err != nil {
		t.Errorf("source name disturbed by a refused rename: %v", err)
	}
	if _, err := fs.Lookup(root, "x"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("refused rename left its destination name: %v", err)
	}
}

// testRenameIntoOwnSubtree moves a directory to itself and to two
// depths beneath itself. Each must be refused with ErrInvalid and change
// nothing: carried out, the directory leaves its parent and joins its
// own descendants — a cycle no path reaches, whose blocks stay allocated
// until fsck. The suite checks the image afterwards (Case.Fsck).
func testRenameIntoOwnSubtree(t *testing.T, fs vfs.FileSystem) {
	root := fs.Root()
	if _, err := vfs.MkdirAll(fs, "/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Mkdir(root, "other"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/a/b/f", pattern(12, 3*blockio.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	freeBlocks := func() int64 {
		fb, ok := fs.(interface{ FreeBlocks() (int64, error) })
		if !ok {
			return 0
		}
		n, err := fb.FreeBlocks()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	listRoot := func() string {
		ents, err := fs.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, fmt.Sprintf("%s:%v", e.Name, e.Type))
		}
		sort.Strings(names)
		return strings.Join(names, " ")
	}
	wantFree, wantRoot := freeBlocks(), listRoot()

	for _, dest := range []string{"/a", "/a/b", "/a/b/c"} {
		if err := fs.Rename(root, "a", mustWalk(t, fs, dest), "x"); !errors.Is(err, vfs.ErrInvalid) {
			t.Errorf("rename /a -> %s/x = %v, want ErrInvalid", dest, err)
		}
	}
	if got := listRoot(); got != wantRoot {
		t.Errorf("root lists %q after the refused renames, was %q", got, wantRoot)
	}
	if got := freeBlocks(); got != wantFree {
		t.Errorf("free blocks %d after the refused renames, was %d", got, wantFree)
	}
	if got, err := vfs.ReadFile(fs, "/a/b/f"); err != nil || !bytes.Equal(got, pattern(12, 3*blockio.BlockSize)) {
		t.Errorf("file beneath the directory lost: %v", err)
	}
	// A directory move that is not a cycle — here out of the subtree,
	// then into a sibling — still goes through.
	if err := fs.Rename(mustWalk(t, fs, "/a/b"), "c", root, "c"); err != nil {
		t.Errorf("rename /a/b/c -> /c = %v", err)
	}
	if err := fs.Rename(root, "a", mustWalk(t, fs, "/other"), "a"); err != nil {
		t.Errorf("rename /a -> /other/a = %v", err)
	}
	if _, err := vfs.Walk(fs, "/other/a/b/f"); err != nil {
		t.Errorf("moved subtree unreachable: %v", err)
	}
}

func testErrorCases(t *testing.T, fs vfs.FileSystem) {
	root := fs.Root()
	if _, err := fs.Lookup(root, "ghost"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("lookup ghost = %v", err)
	}
	if err := fs.Unlink(root, "ghost"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("unlink ghost = %v", err)
	}
	d, _ := fs.Mkdir(root, "d")
	if err := fs.Unlink(root, "d"); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("unlink dir = %v", err)
	}
	f, _ := fs.Create(root, "f")
	if err := fs.Rmdir(root, "f"); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("rmdir file = %v", err)
	}
	if _, err := fs.Create(f, "child"); !errors.Is(err, vfs.ErrNotDir) {
		t.Fatalf("create under file = %v", err)
	}
	if _, err := fs.ReadAt(d, make([]byte, 10), 0); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("read dir = %v", err)
	}
	if _, err := fs.WriteAt(d, []byte("x"), 0); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("write dir = %v", err)
	}
	if err := fs.Link(root, "dlink", d); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("link dir = %v", err)
	}
	if _, err := fs.ReadAt(f, make([]byte, 1), -1); !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("negative read offset = %v", err)
	}
	long := make([]byte, vfs.MaxNameLen+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := fs.Create(root, string(long)); !errors.Is(err, vfs.ErrNameTooLong) {
		t.Fatalf("oversized name = %v", err)
	}
}

// testNameValidation checks that names carrying a path separator or a
// NUL byte are rejected with ErrInvalid by every namespace-mutating
// call. A '/' accepted into a single-name field would smuggle extra
// path components past the walk layer; a NUL would truncate the name
// for any C-string consumer of the on-disk image.
func testNameValidation(t *testing.T, fs vfs.FileSystem) {
	root := fs.Root()
	target, err := fs.Create(root, "target")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(root, "src"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"a/b", "/", "a\x00b", "\x00", "a/b\x00c"} {
		if _, err := fs.Create(root, bad); !errors.Is(err, vfs.ErrInvalid) {
			t.Fatalf("create %q = %v, want ErrInvalid", bad, err)
		}
		if _, err := fs.Mkdir(root, bad); !errors.Is(err, vfs.ErrInvalid) {
			t.Fatalf("mkdir %q = %v, want ErrInvalid", bad, err)
		}
		if err := fs.Link(root, bad, target); !errors.Is(err, vfs.ErrInvalid) {
			t.Fatalf("link %q = %v, want ErrInvalid", bad, err)
		}
		if err := fs.Rename(root, "src", root, bad); !errors.Is(err, vfs.ErrInvalid) {
			t.Fatalf("rename to %q = %v, want ErrInvalid", bad, err)
		}
		// The rejected name must not have been entered anywhere.
		if _, err := fs.Lookup(root, bad); err == nil {
			t.Fatalf("lookup %q succeeded after rejected ops", bad)
		}
	}
	// The source of the rejected rename must be untouched.
	if _, err := fs.Lookup(root, "src"); err != nil {
		t.Fatalf("rename source disturbed: %v", err)
	}
}

func testPersistenceAcrossFlush(t *testing.T, fs vfs.FileSystem) {
	fl, ok := fs.(vfs.Flusher)
	if !ok {
		t.Skip("file system has no cache to flush")
	}
	data := pattern(10, 20*blockio.BlockSize)
	if err := vfs.WriteFile(fs, "/persist", data); err != nil {
		t.Fatal(err)
	}
	if _, err := vfs.MkdirAll(fs, "/p/q"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/p/q/r", []byte("nested")); err != nil {
		t.Fatal(err)
	}
	if err := fl.Flush(); err != nil {
		t.Fatal(err)
	}
	// Everything must come back from the disk image alone.
	got, err := vfs.ReadFile(fs, "/persist")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatal("file lost across cache flush")
	}
	got, err = vfs.ReadFile(fs, "/p/q/r")
	if err != nil || string(got) != "nested" {
		t.Fatal("nested file lost across cache flush")
	}
}

func testStatFields(t *testing.T, fs vfs.FileSystem) {
	data := pattern(11, 3*blockio.BlockSize+7)
	if err := vfs.WriteFile(fs, "/statme", data); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Stat(mustWalk(t, fs, "/statme"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", st.Size, len(data))
	}
	if st.Blocks < 4 {
		t.Fatalf("Blocks = %d, want >= 4", st.Blocks)
	}
	if st.Type != vfs.TypeReg {
		t.Fatalf("Type = %v", st.Type)
	}
}

func testManyFilesContentIntegrity(t *testing.T, fs vfs.FileSystem) {
	// A miniature of the paper's small-file benchmark with verification:
	// many small files written, flushed, and read back intact.
	const n = 200
	dir, err := fs.Mkdir(fs.Root(), "many")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ino, err := fs.Create(dir, fmt.Sprintf("f%03d", i))
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		if _, err := fs.WriteAt(ino, pattern(uint64(100+i), 1024), 0); err != nil {
			t.Fatal(err)
		}
	}
	if fl, ok := fs.(vfs.Flusher); ok {
		if err := fl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := vfs.ReadFile(fs, fmt.Sprintf("/many/f%03d", i))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, pattern(uint64(100+i), 1024)) {
			t.Fatalf("file %d corrupted", i)
		}
	}
}

func mustWalk(t *testing.T, fs vfs.FileSystem, path string) vfs.Ino {
	t.Helper()
	ino, err := vfs.Walk(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	return ino
}

func testWriteReadHuge(t *testing.T, fs vfs.FileSystem) {
	// Densely cross the single-indirect/double-indirect boundary:
	// 12 direct + 1024 single-indirect + 50 double-indirect blocks.
	size := (12 + 1024 + 50) * blockio.BlockSize
	data := pattern(99, size)
	if err := vfs.WriteFile(fs, "/huge", data); err != nil {
		t.Fatal(err)
	}
	if fl, ok := fs.(vfs.Flusher); ok {
		if err := fl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := vfs.ReadFile(fs, "/huge")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("huge file round trip failed")
	}
	// Partial truncation inside the indirect range, then regrow over it.
	ino := mustWalk(t, fs, "/huge")
	cut := int64((12 + 600) * blockio.BlockSize)
	if err := fs.Truncate(ino, cut); err != nil {
		t.Fatal(err)
	}
	tail := pattern(100, 8*blockio.BlockSize)
	if _, err := fs.WriteAt(ino, tail, cut); err != nil {
		t.Fatal(err)
	}
	got, err = vfs.ReadFile(fs, "/huge")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:cut], data[:cut]) || !bytes.Equal(got[cut:], tail) {
		t.Fatal("truncate+regrow through indirect blocks corrupted data")
	}
	if err := fs.Unlink(mustWalk(t, fs, "/"), "huge"); err != nil {
		t.Fatal(err)
	}
}
