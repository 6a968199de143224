package fstest

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"cffs/internal/sim"
	"cffs/internal/vfs"
)

// RunOracle model-checks a file system against the Ref oracle: the same
// pseudo-random operation stream is applied to both, every operation
// must succeed or fail identically, and the full namespace (names,
// types, sizes, link counts, contents) is compared at intervals and at
// the end. This is where layout-policy bugs that slip past example
// workloads get caught.
func RunOracle(t *testing.T, fs vfs.FileSystem, ops int, seed uint64) {
	t.Helper()
	ref := NewRef()
	rng := sim.NewRNG(seed)

	// The path pool the generator draws from. Directories and files are
	// tracked optimistically; stale entries are fine because both file
	// systems see the same stale path and must agree on the error.
	dirs := []string{"/"}
	var files []string

	pickDir := func() string { return dirs[rng.Intn(len(dirs))] }
	pickFile := func() (string, bool) {
		if len(files) == 0 {
			return "", false
		}
		return files[rng.Intn(len(files))], true
	}
	join := func(dir, name string) string {
		if dir == "/" {
			return "/" + name
		}
		return dir + "/" + name
	}
	dropFile := func(p string) {
		for i, f := range files {
			if f == p {
				files[i] = files[len(files)-1]
				files = files[:len(files)-1]
				return
			}
		}
	}
	dropDir := func(p string) {
		for i, d := range dirs {
			if d == p {
				dirs[i] = dirs[len(dirs)-1]
				dirs = dirs[:len(dirs)-1]
				return
			}
		}
	}

	seq := 0
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(100); {
		case k < 25: // create + write
			dir := pickDir()
			name := fmt.Sprintf("f%04d", seq%40) // reuse names to provoke ErrExist
			seq++
			p := join(dir, name)
			errA := oracleCreateWrite(fs, p, rng.Uint64(), rng.Intn(3*8192))
			errB := oracleCreateWrite(ref, p, 0, 0) // content checked via real write below
			// Re-apply the same content to the oracle when both created.
			if errA == nil && errB == nil {
				data, err := vfs.ReadFile(fs, p)
				if err != nil {
					t.Fatalf("op %d: readback %s: %v", op, p, err)
				}
				if err := vfs.WriteFile(ref, p, data); err != nil {
					t.Fatalf("op %d: oracle write %s: %v", op, p, err)
				}
				files = append(files, p)
			}
			mustAgree(t, op, "create "+p, errA, errB)
		case k < 35: // overwrite or extend
			p, ok := pickFile()
			if !ok {
				continue
			}
			off := int64(rng.Intn(40000))
			if rng.Intn(20) == 0 {
				// Occasionally write far out, crossing into the indirect
				// and double-indirect mapping ranges.
				off = int64(rng.Intn(6 * 1024 * 1024))
			}
			data := pattern(rng.Uint64(), 1+rng.Intn(9000))
			errA := oracleWriteAt(fs, p, data, off)
			errB := oracleWriteAt(ref, p, data, off)
			mustAgree(t, op, "write "+p, errA, errB)
		case k < 45: // read and compare
			p, ok := pickFile()
			if !ok {
				continue
			}
			off := int64(rng.Intn(50000))
			if rng.Intn(20) == 0 {
				off = int64(rng.Intn(7 * 1024 * 1024))
			}
			n := 1 + rng.Intn(12000)
			a, errA := oracleReadAt(fs, p, off, n)
			b, errB := oracleReadAt(ref, p, off, n)
			mustAgree(t, op, "read "+p, errA, errB)
			if errA == nil && !bytes.Equal(a, b) {
				t.Fatalf("op %d: read %s [%d,+%d): contents diverge", op, p, off, n)
			}
		case k < 52: // truncate
			p, ok := pickFile()
			if !ok {
				continue
			}
			size := int64(rng.Intn(30000))
			if rng.Intn(16) == 0 {
				size = int64(rng.Intn(6 * 1024 * 1024))
			}
			mustAgree(t, op, "truncate "+p, oracleTruncate(fs, p, size), oracleTruncate(ref, p, size))
		case k < 62: // unlink
			p, ok := pickFile()
			if !ok {
				continue
			}
			errA := oracleRemoveFile(fs, p)
			errB := oracleRemoveFile(ref, p)
			mustAgree(t, op, "unlink "+p, errA, errB)
			if errA == nil {
				dropFile(p)
			}
		case k < 70: // mkdir
			dir := pickDir()
			name := fmt.Sprintf("d%03d", seq%15)
			seq++
			p := join(dir, name)
			errA := oracleMkdir(fs, p)
			errB := oracleMkdir(ref, p)
			mustAgree(t, op, "mkdir "+p, errA, errB)
			if errA == nil && len(p) < 60 { // bound path depth
				dirs = append(dirs, p)
			}
		case k < 75: // rmdir
			if len(dirs) < 2 {
				continue
			}
			p := dirs[1+rng.Intn(len(dirs)-1)]
			errA := oracleRmdir(fs, p)
			errB := oracleRmdir(ref, p)
			mustAgree(t, op, "rmdir "+p, errA, errB)
			if errA == nil {
				dropDir(p)
			}
		case k < 85: // rename a file
			p, ok := pickFile()
			if !ok {
				continue
			}
			dir := pickDir()
			name := fmt.Sprintf("r%04d", seq%40)
			seq++
			np := join(dir, name)
			errA := oracleRename(fs, p, np)
			errB := oracleRename(ref, p, np)
			mustAgree(t, op, fmt.Sprintf("rename %s -> %s", p, np), errA, errB)
			if errA == nil {
				dropFile(p)
				dropFile(np) // replaced target, if it was tracked
				files = append(files, np)
			}
		case k < 90: // hard link
			p, ok := pickFile()
			if !ok {
				continue
			}
			dir := pickDir()
			name := fmt.Sprintf("l%04d", seq%40)
			seq++
			np := join(dir, name)
			errA := oracleLink(fs, p, np)
			errB := oracleLink(ref, p, np)
			mustAgree(t, op, fmt.Sprintf("link %s -> %s", p, np), errA, errB)
			if errA == nil {
				files = append(files, np)
			}
		case k < 93: // rename a directory, one time in three beneath itself
			if len(dirs) < 2 {
				continue
			}
			p := dirs[1+rng.Intn(len(dirs)-1)]
			dest := pickDir()
			if rng.Intn(3) == 0 {
				dest = p // itself, or better a descendant: must be refused
				for _, d := range dirs {
					if strings.HasPrefix(d, p+"/") {
						dest = d
					}
				}
			}
			np := join(dest, fmt.Sprintf("m%03d", seq%15))
			seq++
			errA := oracleRename(fs, p, np)
			errB := oracleRename(ref, p, np)
			mustAgree(t, op, fmt.Sprintf("rename dir %s -> %s", p, np), errA, errB)
			if errA == nil {
				// The whole subtree moved; keep the pool pointing at it.
				for _, pool := range [][]string{dirs, files} {
					for i, q := range pool {
						if q == p || strings.HasPrefix(q, p+"/") {
							pool[i] = np + q[len(p):]
						}
					}
				}
			}
		case k < 95: // an ino-level call naming a regular file as the parent
			p, ok := pickFile()
			if !ok {
				continue
			}
			name := fmt.Sprintf("u%02d", seq%10)
			seq++
			if rng.Intn(4) == 0 {
				name = "." // the name is judged before the parent
			}
			which := byte(rng.Intn(underFileOps))
			mustAgree(t, op, fmt.Sprintf("op %d under file %s", which, p),
				oracleUnderFile(fs, p, which, name), oracleUnderFile(ref, p, which, name))
		case k < 97: // sync or flush
			if rng.Intn(2) == 0 {
				if err := fs.Sync(); err != nil {
					t.Fatalf("op %d: sync: %v", op, err)
				}
			} else if fl, ok := fs.(vfs.Flusher); ok {
				if err := fl.Flush(); err != nil {
					t.Fatalf("op %d: flush: %v", op, err)
				}
			}
		default: // full tree comparison (expensive: reads every file)
			compareTrees(t, op, fs, ref)
		}
	}
	compareTrees(t, ops, fs, ref)
}

// mustAgree requires both systems to succeed, or to fail with the same
// vfs sentinel.
func mustAgree(t *testing.T, op int, what string, a, b error) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("op %d: %s: real=%v oracle=%v", op, what, a, b)
	}
	if a == nil {
		return
	}
	for _, sentinel := range []error{
		vfs.ErrNotExist, vfs.ErrExist, vfs.ErrNotDir, vfs.ErrIsDir,
		vfs.ErrNotEmpty, vfs.ErrNameTooLong, vfs.ErrInvalid,
	} {
		if errors.Is(a, sentinel) != errors.Is(b, sentinel) {
			t.Fatalf("op %d: %s: error kinds diverge: real=%v oracle=%v", op, what, a, b)
		}
	}
}

// compareTrees walks both namespaces and compares structure and data.
func compareTrees(t *testing.T, op int, fs, ref vfs.FileSystem) {
	t.Helper()
	a := snapshot(t, fs)
	b := snapshot(t, ref)
	if len(a) != len(b) {
		t.Fatalf("op %d: tree sizes diverge: real %d entries, oracle %d", op, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: tree entry %d diverges:\n real  %s\n oracle %s", op, i, a[i], b[i])
		}
	}
}

// snapshot renders the namespace as sorted "path type size nlink [hash]"
// lines.
func snapshot(t *testing.T, fs vfs.FileSystem) []string {
	t.Helper()
	var lines []string
	err := vfs.WalkTree(fs, "/", func(p string, st vfs.Stat) error {
		// Directory sizes are format-specific; compare them only for
		// regular files.
		size := st.Size
		if st.Type == vfs.TypeDir {
			size = 0
		}
		line := fmt.Sprintf("%s %v %d %d", p, st.Type, size, st.Nlink)
		if st.Type == vfs.TypeReg {
			data, err := vfs.ReadFile(fs, p)
			if err != nil {
				return err
			}
			line += fmt.Sprintf(" %x", hash(data))
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

func hash(p []byte) uint64 {
	var h uint64 = 1469598103934665603
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// --- path-level wrappers that surface errors without aborting ---

func oracleCreateWrite(fs vfs.FileSystem, p string, seed uint64, n int) error {
	dir, name, err := vfs.WalkDir(fs, p)
	if err != nil {
		return err
	}
	ino, err := fs.Create(dir, name)
	if err != nil {
		return err
	}
	if n > 0 {
		if _, err := fs.WriteAt(ino, pattern(seed, n), 0); err != nil {
			return err
		}
	}
	return nil
}

func oracleWriteAt(fs vfs.FileSystem, p string, data []byte, off int64) error {
	ino, err := vfs.Walk(fs, p)
	if err != nil {
		return err
	}
	_, err = fs.WriteAt(ino, data, off)
	return err
}

func oracleReadAt(fs vfs.FileSystem, p string, off int64, n int) ([]byte, error) {
	ino, err := vfs.Walk(fs, p)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	rn, err := fs.ReadAt(ino, buf, off)
	return buf[:rn], err
}

func oracleTruncate(fs vfs.FileSystem, p string, size int64) error {
	ino, err := vfs.Walk(fs, p)
	if err != nil {
		return err
	}
	return fs.Truncate(ino, size)
}

func oracleRemoveFile(fs vfs.FileSystem, p string) error {
	dir, name, err := vfs.WalkDir(fs, p)
	if err != nil {
		return err
	}
	return fs.Unlink(dir, name)
}

func oracleMkdir(fs vfs.FileSystem, p string) error {
	dir, name, err := vfs.WalkDir(fs, p)
	if err != nil {
		return err
	}
	_, err = fs.Mkdir(dir, name)
	return err
}

func oracleRmdir(fs vfs.FileSystem, p string) error {
	dir, name, err := vfs.WalkDir(fs, p)
	if err != nil {
		return err
	}
	return fs.Rmdir(dir, name)
}

func oracleRename(fs vfs.FileSystem, from, to string) error {
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

// underFileOps is how many calls UnderFile chooses between.
const underFileOps = 7

// UnderFile makes one namespace call with parent where a directory
// belongs; the fuzzers and the oracle pass a regular file. Callers that
// resolve parents through vfs.WalkDir never do, so only an ino-level
// caller — a test, or a tenant of the wire service holding a fid —
// reaches the file systems' own directory checks. src/sname name an
// existing entry for the one call that needs a source.
func UnderFile(fs vfs.FileSystem, parent vfs.Ino, which byte, name string, src vfs.Ino, sname string) error {
	var err error
	switch which % underFileOps {
	case 0:
		_, err = fs.Create(parent, name)
	case 1:
		_, err = fs.Mkdir(parent, name)
	case 2:
		err = fs.Link(parent, name, parent)
	case 3:
		err = fs.Unlink(parent, name)
	case 4:
		err = fs.Rmdir(parent, name)
	case 5:
		err = fs.Rename(parent, name, fs.Root(), name)
	default:
		err = fs.Rename(src, sname, parent, name)
	}
	return err
}

func oracleUnderFile(fs vfs.FileSystem, p string, which byte, name string) error {
	file, err := vfs.Walk(fs, p)
	if err != nil {
		return err
	}
	dir, base, err := vfs.WalkDir(fs, p)
	if err != nil {
		return err
	}
	return UnderFile(fs, file, which, name, dir, base)
}

func oracleLink(fs vfs.FileSystem, target, name string) error {
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
