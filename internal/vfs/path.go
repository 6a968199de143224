package vfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Path helpers. Workloads operate on slash-separated absolute paths;
// these helpers do the walking so the FileSystem interface can stay at
// the directory-handle level, like the real syscall layer.

// SplitPath normalizes a slash-separated path into components. The empty
// path and "/" return no components. One pass counts the components so
// the result is allocated once, at its final size; the components
// themselves are substrings of path.
func SplitPath(path string) []string {
	n := 0
	eachComp(path, func(string) { n++ })
	if n == 0 {
		return nil
	}
	comps := make([]string, 0, n)
	eachComp(path, func(c string) { comps = append(comps, c) })
	return comps
}

// eachComp calls fn for every component of path that is not empty or ".".
func eachComp(path string, fn func(c string)) {
	start := 0
	for i := 0; i <= len(path); i++ {
		if i < len(path) && path[i] != '/' {
			continue
		}
		if c := path[start:i]; c != "" && c != "." {
			fn(c)
		}
		start = i + 1
	}
}

// PathWalker is an optional FileSystem capability: resolve a whole
// absolute path in one call. Implementations may answer from a path
// cache without any per-component Lookup traffic; Walk and WalkDir
// delegate to it when present.
type PathWalker interface {
	WalkPath(path string) (Ino, error)
}

// Walk resolves an absolute path to an Ino.
func Walk(fs FileSystem, path string) (Ino, error) {
	if pw, ok := fs.(PathWalker); ok {
		return pw.WalkPath(path)
	}
	cur := fs.Root()
	for _, c := range SplitPath(path) {
		next, err := fs.Lookup(cur, c)
		if err != nil {
			return 0, fmt.Errorf("walk %s at %q: %w", path, c, err)
		}
		cur = next
	}
	return cur, nil
}

// WalkDir resolves the directory containing path's last component,
// returning that directory's Ino and the final name.
func WalkDir(fs FileSystem, path string) (Ino, string, error) {
	comps := SplitPath(path)
	if len(comps) == 0 {
		return 0, "", fmt.Errorf("walkdir %q: %w", path, ErrInvalid)
	}
	if pw, ok := fs.(PathWalker); ok {
		dir, err := pw.WalkPath("/" + strings.Join(comps[:len(comps)-1], "/"))
		if err != nil {
			return 0, "", fmt.Errorf("walkdir %s: %w", path, err)
		}
		return dir, comps[len(comps)-1], nil
	}
	cur := fs.Root()
	for _, c := range comps[:len(comps)-1] {
		next, err := fs.Lookup(cur, c)
		if err != nil {
			return 0, "", fmt.Errorf("walkdir %s at %q: %w", path, c, err)
		}
		cur = next
	}
	return cur, comps[len(comps)-1], nil
}

// MkdirAll creates every missing directory along path and returns the
// final directory's Ino.
func MkdirAll(fs FileSystem, path string) (Ino, error) {
	cur := fs.Root()
	for _, c := range SplitPath(path) {
		next, err := fs.Lookup(cur, c)
		switch {
		case err == nil:
			cur = next
		default:
			next, err = fs.Mkdir(cur, c)
			if err != nil {
				return 0, fmt.Errorf("mkdirall %s at %q: %w", path, c, err)
			}
			cur = next
		}
	}
	return cur, nil
}

// OpenFlag selects OpenFile's behaviour, mirroring the subset of POSIX
// open(2) flags that makes sense without file descriptors or modes.
type OpenFlag int

// OpenFile flags. The zero value opens an existing file.
const (
	// OCreate makes the file if the final component does not exist.
	OCreate OpenFlag = 1 << iota
	// OExcl, with OCreate, fails with ErrExist if the file exists.
	// Without OCreate it is an invalid combination, like open(2).
	OExcl
	// OTrunc truncates an existing regular file to zero length.
	OTrunc
	// ORead and OWrite declare the access the caller wants from the
	// returned handle. The FileSystem interface has no file
	// descriptors, so per-call enforcement (rejecting WriteAt through a
	// read-only handle) lives in the layer that owns handles — the wire
	// protocol's fids (internal/srv). What OpenFile itself enforces is
	// the flag lattice: OTrunc demands write access, and asking for
	// write access to a directory fails with ErrIsDir, exactly as
	// open(2) treats O_TRUNC|O_RDONLY and O_WRONLY on a directory.
	//
	// Neither bit set means the legacy "handle open": full access,
	// directories allowed — the behaviour every pre-existing caller
	// relies on.
	ORead
	OWrite
)

// ORDWR requests both read and write access.
const ORDWR = ORead | OWrite

// OpenFile resolves path to a file Ino, honouring flag: plain open of
// what exists, create-if-missing, exclusive create, and truncate-on-open
// compose exactly as with open(2). Opening a directory succeeds only
// without OTrunc.
func OpenFile(fs FileSystem, path string, flag OpenFlag) (Ino, error) {
	if flag&OExcl != 0 && flag&OCreate == 0 {
		return 0, fmt.Errorf("openfile %q: OExcl without OCreate: %w", path, ErrInvalid)
	}
	if flag&OTrunc != 0 && flag&ORDWR == ORead {
		return 0, fmt.Errorf("openfile %q: OTrunc on read-only open: %w", path, ErrInvalid)
	}
	dir, name, err := WalkDir(fs, path)
	if err != nil {
		return 0, err
	}
	ino, err := fs.Lookup(dir, name)
	switch {
	case err == nil:
		if flag&OExcl != 0 {
			return 0, fmt.Errorf("openfile %q: %w", path, ErrExist)
		}
		if flag&(OTrunc|OWrite) != 0 {
			st, err := fs.Stat(ino)
			if err != nil {
				return 0, err
			}
			if st.Type == TypeDir {
				return 0, fmt.Errorf("openfile %q: %w", path, ErrIsDir)
			}
			if flag&OTrunc != 0 {
				if err := fs.Truncate(ino, 0); err != nil {
					return 0, err
				}
			}
		}
		return ino, nil
	case errors.Is(err, ErrNotExist) && flag&OCreate != 0:
		return fs.Create(dir, name)
	default:
		return 0, err
	}
}

// WriteFile creates (or truncates) the file at path with the given
// contents.
func WriteFile(fs FileSystem, path string, data []byte) error {
	dir, name, err := WalkDir(fs, path)
	if err != nil {
		return err
	}
	ino, err := fs.Create(dir, name)
	if errors.Is(err, ErrExist) {
		ino, err = fs.Lookup(dir, name)
		if err != nil {
			return err
		}
		if err := fs.Truncate(ino, 0); err != nil {
			return err
		}
	} else if err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	_, err = fs.WriteAt(ino, data, 0)
	return err
}

// ReadFile reads the whole file at path.
func ReadFile(fs FileSystem, path string) ([]byte, error) {
	ino, err := Walk(fs, path)
	if err != nil {
		return nil, err
	}
	st, err := fs.Stat(ino)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, st.Size)
	n, err := fs.ReadAt(ino, buf, 0)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// Remove unlinks the file or removes the (empty) directory at path.
func Remove(fs FileSystem, path string) error {
	dir, name, err := WalkDir(fs, path)
	if err != nil {
		return err
	}
	ino, err := fs.Lookup(dir, name)
	if err != nil {
		return err
	}
	st, err := fs.Stat(ino)
	if err != nil {
		return err
	}
	if st.Type == TypeDir {
		return fs.Rmdir(dir, name)
	}
	return fs.Unlink(dir, name)
}

// RemoveAll removes path and everything below it. Removing a path that
// does not exist is an error (unlike os.RemoveAll), because workloads
// here always know what they created.
func RemoveAll(fs FileSystem, path string) error {
	dir, name, err := WalkDir(fs, path)
	if err != nil {
		return err
	}
	ino, err := fs.Lookup(dir, name)
	if err != nil {
		return err
	}
	if err := removeTree(fs, ino); err != nil {
		return err
	}
	st, err := fs.Stat(ino)
	if err != nil {
		return err
	}
	if st.Type == TypeDir {
		return fs.Rmdir(dir, name)
	}
	return fs.Unlink(dir, name)
}

func removeTree(fs FileSystem, ino Ino) error {
	st, err := fs.Stat(ino)
	if err != nil {
		return err
	}
	if st.Type != TypeDir {
		return nil
	}
	ents, err := fs.ReadDir(ino)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Type == TypeDir {
			if err := removeTree(fs, e.Ino); err != nil {
				return err
			}
			if err := fs.Rmdir(ino, e.Name); err != nil {
				return err
			}
		} else {
			if err := fs.Unlink(ino, e.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// WalkTree visits every entry under root (inclusive of files directly in
// it), depth-first in name order, calling fn with the entry's absolute
// path and stat. Directory order is sorted so traversals are
// deterministic across file systems.
func WalkTree(fs FileSystem, root string, fn func(path string, st Stat) error) error {
	ino, err := Walk(fs, root)
	if err != nil {
		return err
	}
	return walkTree(fs, strings.TrimRight(root, "/"), ino, fn)
}

func walkTree(fs FileSystem, prefix string, dir Ino, fn func(string, Stat) error) error {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return err
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	for _, e := range ents {
		p := prefix + "/" + e.Name
		st, err := fs.Stat(e.Ino)
		if err != nil {
			return err
		}
		if err := fn(p, st); err != nil {
			return err
		}
		if e.Type == TypeDir {
			if err := walkTree(fs, p, e.Ino, fn); err != nil {
				return err
			}
		}
	}
	return nil
}
