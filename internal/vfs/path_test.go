package vfs_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"cffs/internal/fstest"
	. "cffs/internal/vfs"
)

func TestSplitPath(t *testing.T) {
	cases := map[string][]string{
		"/":        nil,
		"":         nil,
		"/a":       {"a"},
		"/a/b/c":   {"a", "b", "c"},
		"a/b":      {"a", "b"},
		"//a///b/": {"a", "b"},
		"/a/./b":   {"a", "b"},
		"./a":      {"a"},
		".":        nil,
		"/.":       nil,
		"/./":      nil,
		"a":        {"a"},
		"/a/..":    {"a", ".."},
		"/.a/b.":   {".a", "b."},
		"/a/b/.":   {"a", "b"},
	}
	for in, want := range cases {
		if got := SplitPath(in); !reflect.DeepEqual(got, want) {
			t.Errorf("SplitPath(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestWalkAndMkdirAll(t *testing.T) {
	fs := fstest.NewRef()
	ino, err := MkdirAll(fs, "/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Walk(fs, "/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	if got != ino {
		t.Fatalf("Walk = %d, MkdirAll = %d", got, ino)
	}
	// MkdirAll over existing directories is idempotent.
	again, err := MkdirAll(fs, "/a/b/c")
	if err != nil || again != ino {
		t.Fatalf("repeat MkdirAll = %d, %v", again, err)
	}
	if _, err := Walk(fs, "/a/x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Walk missing = %v, want ErrNotExist", err)
	}
	if got, err := Walk(fs, "/"); err != nil || got != fs.Root() {
		t.Fatalf("Walk(/) = %d, %v", got, err)
	}
}

func TestWalkDir(t *testing.T) {
	fs := fstest.NewRef()
	if _, err := MkdirAll(fs, "/x/y"); err != nil {
		t.Fatal(err)
	}
	dir, name, err := WalkDir(fs, "/x/y/file.txt")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Walk(fs, "/x/y")
	if dir != want || name != "file.txt" {
		t.Fatalf("WalkDir = (%d, %q), want (%d, file.txt)", dir, name, want)
	}
	if _, _, err := WalkDir(fs, "/"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("WalkDir(/) = %v, want ErrInvalid", err)
	}
}

func TestWriteReadFile(t *testing.T) {
	fs := fstest.NewRef()
	if _, err := MkdirAll(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	data := []byte("small file contents")
	if err := WriteFile(fs, "/d/f", data); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(fs, "/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("ReadFile = %q, want %q", got, data)
	}
	// Overwriting truncates first.
	if err := WriteFile(fs, "/d/f", []byte("xy")); err != nil {
		t.Fatal(err)
	}
	got, _ = ReadFile(fs, "/d/f")
	if string(got) != "xy" {
		t.Fatalf("overwrite produced %q", got)
	}
}

func TestRemove(t *testing.T) {
	fs := fstest.NewRef()
	if err := WriteFile(fs, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := MkdirAll(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := Remove(fs, "/f"); err != nil {
		t.Fatal(err)
	}
	if err := Remove(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := Walk(fs, "/f"); err == nil {
		t.Fatal("file still present after Remove")
	}
	if err := Remove(fs, "/nope"); err == nil {
		t.Fatal("Remove of missing path succeeded")
	}
}

func TestRemoveAll(t *testing.T) {
	fs := fstest.NewRef()
	for _, p := range []string{"/t/a/f1", "/t/a/f2", "/t/b/c/f3", "/t/f4"} {
		dir, _, _ := WalkDir(fs, p)
		_ = dir
		if _, err := MkdirAll(fs, p[:len(p)-3]); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(fs, p, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	if err := RemoveAll(fs, "/t"); err != nil {
		t.Fatal(err)
	}
	if _, err := Walk(fs, "/t"); err == nil {
		t.Fatal("tree still present after RemoveAll")
	}
	ents, err := fs.ReadDir(fs.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("root not empty after RemoveAll: %v", ents)
	}
}

func TestWalkTree(t *testing.T) {
	fs := fstest.NewRef()
	paths := []string{"/r/b/f2", "/r/a/f1", "/r/f0"}
	for _, p := range paths {
		if _, err := MkdirAll(fs, p[:len(p)-3]); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(fs, p, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	var visited []string
	err := WalkTree(fs, "/r", func(p string, st Stat) error {
		visited = append(visited, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/r/a", "/r/a/f1", "/r/b", "/r/b/f2", "/r/f0"}
	if !reflect.DeepEqual(visited, want) {
		t.Fatalf("WalkTree visited %v, want %v", visited, want)
	}
}

func TestFileTypeString(t *testing.T) {
	if TypeReg.String() != "file" || TypeDir.String() != "dir" || TypeInvalid.String() != "invalid" {
		t.Fatal("FileType.String wrong")
	}
}
