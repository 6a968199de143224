package layout

import (
	"errors"
	"fmt"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/vfs"
)

// tiles reports whether the block decodes as records covering it exactly.
func tiles(p []byte) bool {
	_, err := EachDirent(p, func(Dirent) bool { return false })
	return err == nil
}

// find returns the live records carrying name.
func find(p []byte, name string) []Dirent {
	var hits []Dirent
	EachDirent(p, func(e Dirent) bool {
		if e.Ino != 0 && e.Name == name {
			hits = append(hits, e)
		}
		return false
	})
	return hits
}

// fit returns the offset of the first record with room for name, the
// scan both baselines run before an insert.
func fit(p []byte, name string) (int, bool) {
	off := 0
	ok, _ := EachDirent(p, func(e Dirent) bool {
		off = e.Off
		return e.Fits(DirentSize(len(name)))
	})
	return off, ok
}

func TestDirentInsertSplitsSlackAndRemoveMerges(t *testing.T) {
	p := make([]byte, blockio.BlockSize)
	InitDirDots(p, 7, 3)
	if dot, dotdot := find(p, "."), find(p, ".."); len(dot) != 1 || dot[0].Ino != 7 || len(dotdot) != 1 || dotdot[0].Ino != 3 {
		t.Fatalf("fresh directory block holds %v and %v", dot, dotdot)
	}
	// ".." carries the block's slack; inserts split it off one by one.
	for i, name := range []string{"a", "bb", "a-much-longer-name"} {
		off, ok := fit(p, name)
		if !ok {
			t.Fatalf("no room for %q in a nearly empty block", name)
		}
		if err := InsertDirent(p, off, vfs.Ino(10+i), vfs.TypeReg, name); err != nil {
			t.Fatal(err)
		}
		if !tiles(p) {
			t.Fatalf("block no longer tiles after inserting %q", name)
		}
	}
	bb := find(p, "bb")
	if len(bb) != 1 || bb[0].Ino != 11 || bb[0].Reclen != DirentSize(2) {
		t.Fatalf("bb = %+v, want ino 11 trimmed to %d bytes", bb, DirentSize(2))
	}
	// Removing bb hands its bytes to the record before it.
	before := find(p, "a")[0]
	if err := RemoveDirent(p, bb[0].Off); err != nil {
		t.Fatal(err)
	}
	if after := find(p, "a")[0]; after.Reclen != before.Reclen+bb[0].Reclen {
		t.Fatalf("predecessor reclen %d after the merge, want %d", after.Reclen, before.Reclen+bb[0].Reclen)
	}
	if len(find(p, "bb")) != 0 || !tiles(p) {
		t.Fatal("removed name still found, or block no longer tiles")
	}
	// The freed slack is found again by the next insert that fits it.
	if off, ok := fit(p, "c"); !ok || off != before.Off {
		t.Fatalf("fit for %q = %d, %v; want the slack behind %q at %d", "c", off, ok, "a", before.Off)
	}
	// The record at the block head has no predecessor: it goes free in
	// place and is taken over whole.
	if err := RemoveDirent(p, 0); err != nil {
		t.Fatal(err)
	}
	if e, err := DecodeDirent(p, 0); err != nil || e.Ino != 0 || e.Reclen != DirentSize(1) {
		t.Fatalf("head record after removal = %+v, %v", e, err)
	}
	if err := InsertDirent(p, 0, 42, vfs.TypeDir, "z"); err != nil {
		t.Fatal(err)
	}
	if z := find(p, "z"); len(z) != 1 || z[0].Off != 0 || z[0].Type != vfs.TypeDir || !tiles(p) {
		t.Fatalf("z = %+v", z)
	}
}

func TestDirentRejects(t *testing.T) {
	p := make([]byte, blockio.BlockSize)
	InitDirDots(p, 1, 1)
	long := make([]byte, vfs.MaxNameLen+1)
	if err := InsertDirent(p, DirentSize(1), 9, vfs.TypeReg, string(long)); !errors.Is(err, vfs.ErrNameTooLong) {
		t.Errorf("overlong name = %v", err)
	}
	if err := InsertDirent(p, 0, 9, vfs.TypeReg, "x"); err == nil {
		t.Error(`insert into ".", which has no slack, succeeded`)
	}
	for _, off := range []int{-4, 4, blockio.BlockSize - 4, blockio.BlockSize} {
		if _, err := DecodeDirent(p, off); err == nil {
			t.Errorf("decode at %d succeeded", off)
		}
		if err := RemoveDirent(p, off); err == nil {
			t.Errorf("remove at %d succeeded", off)
		}
	}
	if !tiles(p) || len(find(p, "x")) != 0 {
		t.Error("a rejected operation changed the block")
	}
}

// FuzzDirentBlock runs a script of inserts, removes and lookups over
// arbitrary block bytes. Nothing may panic or index out of range on any
// input. On a block that tiled before an operation the codec's own
// guarantees apply: it tiles after, an insert with room succeeds and is
// found, and a remove takes away exactly the record it was aimed at.
func FuzzDirentBlock(f *testing.F) {
	empty := make([]byte, blockio.BlockSize)
	InitDirBlock(empty)
	dots := make([]byte, blockio.BlockSize)
	InitDirDots(dots, 2, 1)
	full := make([]byte, blockio.BlockSize)
	InitDirDots(full, 2, 1)
	for i := 0; ; i++ {
		name := fmt.Sprintf("entry-%04d", i)
		off, ok := fit(full, name)
		if !ok {
			break
		}
		InsertDirent(full, off, vfs.Ino(100+i), vfs.TypeReg, name)
	}
	f.Add(empty, []byte{0, 3, 0, 5, 2, 3, 1, 3, 2, 3})
	f.Add(dots, []byte{0, 1, 0, 2, 1, 1, 0, 40, 1, 2, 0, 1})
	f.Add(full, []byte{1, 7, 1, 8, 0, 200, 2, 7, 1, 9, 0, 9})
	f.Add([]byte{1, 0, 0, 0, 12, 0, 1, 1, 'a'}, []byte{0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, image, script []byte) {
		p := make([]byte, blockio.BlockSize)
		copy(p, image)
		name := func(sel byte) string { // short names collide, long ones fill
			return fmt.Sprintf("%0*d", 1+int(sel)%vfs.MaxNameLen, int(sel)%7)
		}
		for i := 0; i+1 < len(script) && i < 128; i += 2 {
			nm, clean := name(script[i+1]), tiles(p)
			switch script[i] % 3 {
			case 0:
				if len(find(p, nm)) != 0 {
					continue // the file systems never enter a name twice
				}
				off, ok := fit(p, nm)
				err := InsertDirent(p, off, 77, vfs.TypeReg, nm)
				if clean && ok && (err != nil || len(find(p, nm)) != 1) {
					t.Fatalf("insert %q at %d into a clean block with room: %v", nm, off, err)
				}
			case 1:
				hits := find(p, nm)
				if len(hits) == 0 {
					continue
				}
				err := RemoveDirent(p, hits[0].Off)
				if clean && (err != nil || len(find(p, nm)) != len(hits)-1) {
					t.Fatalf("remove %q at %d from a clean block: %v, %d of %d left", nm, hits[0].Off, err, len(find(p, nm)), len(hits))
				}
			case 2:
				find(p, nm)
			}
			if clean && !tiles(p) {
				t.Fatalf("op %d on %q: block no longer tiles", script[i]%3, nm)
			}
		}
	})
}
