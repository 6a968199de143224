// Package vfs defines the file system interface shared by the baseline
// FFS and C-FFS, plus path-level convenience helpers. Every workload,
// benchmark, and tool in this repository is written against
// vfs.FileSystem, so the paper's comparisons run byte-identical load on
// both implementations.
package vfs

import (
	"errors"
	"fmt"
)

// Ino identifies a file within a file system. Zero is never a valid Ino.
//
// With embedded inodes an Ino encodes the inode's physical location, so
// unlike classic UNIX it can change across Rename; handles held by
// applications are refreshed via Lookup, which is what the workloads do.
type Ino uint64

// FileType distinguishes the object kinds the paper's file systems store.
type FileType uint8

// File types.
const (
	TypeInvalid FileType = iota
	TypeReg
	TypeDir
)

func (t FileType) String() string {
	switch t {
	case TypeReg:
		return "file"
	case TypeDir:
		return "dir"
	}
	return "invalid"
}

// Stat is per-file metadata, the subset of struct stat these experiments
// need.
type Stat struct {
	Ino    Ino
	Type   FileType
	Nlink  uint32
	Size   int64
	Blocks int64 // allocated 4 KB blocks, including indirect blocks
	Mtime  int64 // simulated nanoseconds
}

// DirEntry is one directory entry as returned by ReadDir.
type DirEntry struct {
	Name string
	Ino  Ino
	Type FileType
}

// Errors returned by FileSystem implementations.
var (
	ErrNotExist    = errors.New("file does not exist")
	ErrExist       = errors.New("file already exists")
	ErrNotDir      = errors.New("not a directory")
	ErrIsDir       = errors.New("is a directory")
	ErrNotEmpty    = errors.New("directory not empty")
	ErrNoSpace     = errors.New("no space on device")
	ErrNameTooLong = errors.New("name too long")
	ErrInvalid     = errors.New("invalid argument")
	ErrBusy        = errors.New("resource busy")
)

// MaxNameLen is the longest permitted entry name. It is sized so that an
// entry header, the name, and an embedded inode together fit in half a
// sector (see the core package's directory layout).
const MaxNameLen = 110

// CheckName validates a name about to be entered into a directory, the
// one lattice every file system applies: empty and dot names are
// ErrInvalid, then length, then byte content. '/' can never be resolved
// back by Walk (it splits on it) and NUL would let a name's on-disk
// bytes diverge from what string APIs observe, so both are rejected
// outright.
func CheckName(name string) error {
	if len(name) == 0 || name == "." || name == ".." {
		return ErrInvalid
	}
	if len(name) > MaxNameLen {
		return fmt.Errorf("name %q: %w", name, ErrNameTooLong)
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return fmt.Errorf("name %q: %w", name, ErrInvalid)
		}
	}
	return nil
}

// CheckNotBelow refuses, with ErrInvalid, to move directory moved into
// ddir when ddir is moved itself or lies beneath it: the rename would
// detach the subtree into a cycle no path reaches. It walks from ddir
// up to root through parent, which reports a directory's "..".
func CheckNotBelow(moved, ddir, root Ino, parent func(Ino) (Ino, error)) error {
	for d := ddir; ; {
		if d == moved {
			return fmt.Errorf("rename into the moved directory's own subtree: %w", ErrInvalid)
		}
		if d == root {
			return nil
		}
		up, err := parent(d)
		if err != nil {
			return err
		}
		d = up
	}
}

// FileSystem is the interface both file systems implement. All methods
// are synchronous with respect to simulated time: any disk I/O they
// trigger advances the shared clock before they return.
//
// Concurrency is per-implementation: the C-FFS core (internal/core) is
// safe for concurrent use from multiple goroutines, while the ffs and
// lfs comparison baselines are single-threaded. Callers racing on a
// shared namespace must expect clean conflict outcomes — ErrExist from
// a create that lost, ErrNotExist (or ErrInvalid, for a recycled
// embedded Ino) from operating on a name another goroutine removed.
type FileSystem interface {
	// Root returns the root directory's Ino.
	Root() Ino

	// Lookup resolves name within directory dir.
	Lookup(dir Ino, name string) (Ino, error)

	// Create makes an empty regular file. It fails with ErrExist if the
	// name is taken.
	Create(dir Ino, name string) (Ino, error)

	// Mkdir makes an empty directory.
	Mkdir(dir Ino, name string) (Ino, error)

	// Link adds a second name for target (a regular file) in dir.
	Link(dir Ino, name string, target Ino) error

	// Unlink removes a regular file name, freeing the file when its link
	// count reaches zero.
	Unlink(dir Ino, name string) error

	// Rmdir removes an empty directory.
	Rmdir(dir Ino, name string) error

	// Rename atomically moves sdir/sname to ddir/dname, replacing any
	// existing regular file at the destination.
	Rename(sdir Ino, sname string, ddir Ino, dname string) error

	// ReadDir lists a directory's entries, excluding "." and "..".
	ReadDir(dir Ino) ([]DirEntry, error)

	// ReadAt reads up to len(p) bytes at offset off. It returns the
	// number of bytes read; reads at or beyond EOF return 0, nil.
	ReadAt(ino Ino, p []byte, off int64) (int, error)

	// WriteAt writes len(p) bytes at offset off, extending the file as
	// needed.
	WriteAt(ino Ino, p []byte, off int64) (int, error)

	// Truncate sets the file size, freeing blocks beyond the new end.
	Truncate(ino Ino, size int64) error

	// Stat returns metadata for ino.
	Stat(ino Ino) (Stat, error)

	// Sync forces all dirty blocks to disk (delayed writes included).
	Sync() error

	// Close syncs and detaches from the device.
	Close() error
}

// Flusher is implemented by file systems whose cache can be emptied; the
// benchmark harness uses it between phases to measure cold-cache
// behaviour, per the paper's methodology.
type Flusher interface {
	// Flush writes back all dirty state and drops the cache.
	Flush() error
}
