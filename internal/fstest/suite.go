package fstest

import (
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/fsck"
	"cffs/internal/vfs"
)

// Features declares which optional file-system capabilities an
// implementation under test provides. The conformance battery's cases
// each carry a Needs declaration; Suite.Run compares the two so a case
// exercising an unsupported capability is reported as skipped, never as
// passed. The repo's own file systems implement everything — the gaps
// appear when the battery runs against reduced fixtures or future
// backends, and a skip keeps the report honest about what was proven.
type Features struct {
	HardLinks     bool // Link: multiple names for one file
	Rename        bool // Rename within and across directories
	RenameReplace bool // Rename atomically replacing an existing target
	Sparse        bool // holes read as zeros without allocation
	Truncate      bool // shrink and grow with zero-fill
	Flush         bool // vfs.Flusher: cache can be emptied to the device
}

// AllFeatures is the full capability set.
func AllFeatures() Features {
	return Features{
		HardLinks:     true,
		Rename:        true,
		RenameReplace: true,
		Sparse:        true,
		Truncate:      true,
		Flush:         true,
	}
}

// Missing lists the capabilities in need that f does not provide, empty
// when the case can run.
func (f Features) Missing(need Features) []string {
	var m []string
	if need.HardLinks && !f.HardLinks {
		m = append(m, "hardlinks")
	}
	if need.Rename && !f.Rename {
		m = append(m, "rename")
	}
	if need.RenameReplace && !f.RenameReplace {
		m = append(m, "rename-replace")
	}
	if need.Sparse && !f.Sparse {
		m = append(m, "sparse")
	}
	if need.Truncate && !f.Truncate {
		m = append(m, "truncate")
	}
	if need.Flush && !f.Flush {
		m = append(m, "flush")
	}
	return m
}

// Case is one conformance test: a name, the capabilities it exercises,
// and the test body. The body may assume every declared need is met.
type Case struct {
	Name  string
	Needs Features
	Fn    func(*testing.T, vfs.FileSystem)

	// Fsck marks a case whose damage, if any, is to the image rather
	// than to anything the case can observe through the interface (an
	// unreachable subtree, leaked blocks): after it, Suite.Fsck runs.
	Fsck bool
}

// Suite runs the conformance battery against one backend with a declared
// capability set.
type Suite struct {
	Factory  Factory
	Features Features

	// Fsck, when non-nil, closes the file system a Case.Fsck case used
	// and fails the test unless its image checks clean offline. The
	// suite cannot do this itself: the checkers live with the file
	// systems, whose tests import this package.
	Fsck func(*testing.T, vfs.FileSystem)

	// SkipHook, when non-nil, observes each skip before it happens:
	// the case name and the capabilities it wanted. Tests of the suite
	// itself use it to prove that gating skips rather than passes.
	SkipHook func(name string, missing []string)
}

// FsckWith adapts a file system package's offline checker to Suite.Fsck.
func FsckWith(check func(*blockio.Device, bool) (*fsck.Report, error)) func(*testing.T, vfs.FileSystem) {
	return func(t *testing.T, fs vfs.FileSystem) {
		t.Helper()
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		rep, err := check(fs.(interface{ Device() *blockio.Device }).Device(), false)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("image inconsistent: %v", rep.Problems)
		}
	}
}

// Run executes every case the backend's features allow and skips the
// rest, naming the missing capability in the skip reason.
func (s Suite) Run(t *testing.T) {
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if missing := s.Features.Missing(c.Needs); len(missing) > 0 {
				if s.SkipHook != nil {
					s.SkipHook(c.Name, missing)
				}
				t.Skipf("backend lacks %v", missing)
			}
			fs := s.Factory(t)
			c.Fn(t, fs)
			if c.Fsck && s.Fsck != nil && !t.Failed() {
				s.Fsck(t, fs)
			}
		})
	}
}
