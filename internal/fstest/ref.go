package fstest

import (
	"fmt"
	"sort"

	"cffs/internal/blockio"
	"cffs/internal/vfs"
)

// Ref is a trivially-correct in-memory reference implementation of
// vfs.FileSystem: the oracle for randomized model checking and fuzzing
// of the real file systems, and the fixture for testing the path
// helpers and the conformance suite itself. Its argument validation
// mirrors the real implementations — same sentinels for bad names and
// offsets, "." and ".." resolving like the physical entries C-FFS
// stores — because the fuzz targets compare the two error-for-error.
type Ref struct {
	next  vfs.Ino
	nodes map[vfs.Ino]*refNode
}

type refNode struct {
	typ      vfs.FileType
	data     []byte
	nlink    uint32
	children map[string]vfs.Ino
	parent   vfs.Ino // directories: what ".." resolves to
}

func NewRef() *Ref {
	fs := &Ref{next: 2, nodes: map[vfs.Ino]*refNode{
		1: {typ: vfs.TypeDir, nlink: 2, children: map[string]vfs.Ino{}, parent: 1},
	}}
	return fs
}

// checkName mirrors vfs.CheckName, which the real file systems call. It
// is a copy on purpose: the oracle must not call the code it judges.
func checkName(name string) error {
	if len(name) == 0 || name == "." || name == ".." {
		return vfs.ErrInvalid
	}
	if len(name) > vfs.MaxNameLen {
		return fmt.Errorf("ref: name %q: %w", name, vfs.ErrNameTooLong)
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return fmt.Errorf("ref: name %q: %w", name, vfs.ErrInvalid)
		}
	}
	return nil
}

func (m *Ref) node(ino vfs.Ino) (*refNode, error) {
	n := m.nodes[ino]
	if n == nil {
		return nil, vfs.ErrNotExist
	}
	return n, nil
}

func (m *Ref) dir(ino vfs.Ino) (*refNode, error) {
	n, err := m.node(ino)
	if err != nil {
		return nil, err
	}
	if n.typ != vfs.TypeDir {
		return nil, vfs.ErrNotDir
	}
	return n, nil
}

func (m *Ref) Root() vfs.Ino { return 1 }

func (m *Ref) Lookup(dir vfs.Ino, name string) (vfs.Ino, error) {
	d, err := m.dir(dir)
	if err != nil {
		return 0, err
	}
	// "." and ".." resolve like the physical entries every real
	// directory holds.
	switch name {
	case ".":
		return dir, nil
	case "..":
		return d.parent, nil
	}
	ino, ok := d.children[name]
	if !ok {
		return 0, fmt.Errorf("lookup %q: %w", name, vfs.ErrNotExist)
	}
	return ino, nil
}

func (m *Ref) create(dir vfs.Ino, name string, typ vfs.FileType) (vfs.Ino, error) {
	// Validation order mirrors core: name first, then the directory.
	if err := checkName(name); err != nil {
		return 0, err
	}
	d, err := m.dir(dir)
	if err != nil {
		return 0, err
	}
	if _, ok := d.children[name]; ok {
		return 0, fmt.Errorf("create %q: %w", name, vfs.ErrExist)
	}
	ino := m.next
	m.next++
	n := &refNode{typ: typ, nlink: 1}
	if typ == vfs.TypeDir {
		n.nlink = 2
		n.children = map[string]vfs.Ino{}
		n.parent = dir
	}
	m.nodes[ino] = n
	d.children[name] = ino
	if typ == vfs.TypeDir {
		d.nlink++ // the child's ".."
	}
	return ino, nil
}

func (m *Ref) Create(dir vfs.Ino, name string) (vfs.Ino, error) {
	return m.create(dir, name, vfs.TypeReg)
}
func (m *Ref) Mkdir(dir vfs.Ino, name string) (vfs.Ino, error) {
	return m.create(dir, name, vfs.TypeDir)
}

func (m *Ref) Link(dir vfs.Ino, name string, target vfs.Ino) error {
	// Same check order as core: name, directory, target (directories are
	// never linkable), and only then the existing-entry collision.
	if err := checkName(name); err != nil {
		return err
	}
	d, err := m.dir(dir)
	if err != nil {
		return err
	}
	n, err := m.node(target)
	if err != nil {
		return err
	}
	if n.typ == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	if _, ok := d.children[name]; ok {
		return vfs.ErrExist
	}
	n.nlink++
	d.children[name] = target
	return nil
}

func (m *Ref) Unlink(dir vfs.Ino, name string) error {
	if name == "." || name == ".." {
		return vfs.ErrInvalid
	}
	d, err := m.dir(dir)
	if err != nil {
		return err
	}
	ino, ok := d.children[name]
	if !ok {
		return vfs.ErrNotExist
	}
	n := m.nodes[ino]
	if n.typ == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	delete(d.children, name)
	n.nlink--
	if n.nlink == 0 {
		delete(m.nodes, ino)
	}
	return nil
}

func (m *Ref) Rmdir(dir vfs.Ino, name string) error {
	if name == "." || name == ".." {
		return vfs.ErrInvalid
	}
	d, err := m.dir(dir)
	if err != nil {
		return err
	}
	ino, ok := d.children[name]
	if !ok {
		return vfs.ErrNotExist
	}
	n := m.nodes[ino]
	if n.typ != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	if len(n.children) > 0 {
		return vfs.ErrNotEmpty
	}
	delete(d.children, name)
	delete(m.nodes, ino)
	d.nlink--
	return nil
}

func (m *Ref) Rename(sdir vfs.Ino, sname string, ddir vfs.Ino, dname string) error {
	// Core's order: both names, the source directory and entry, the
	// destination directory, and only then what the move would do to it.
	if sname == "." || sname == ".." {
		return vfs.ErrInvalid
	}
	if err := checkName(dname); err != nil {
		return err
	}
	sd, err := m.dir(sdir)
	if err != nil {
		return err
	}
	ino, ok := sd.children[sname]
	if !ok {
		return vfs.ErrNotExist
	}
	dd, err := m.dir(ddir)
	if err != nil {
		return err
	}
	if sd == dd && sname == dname {
		// Renaming an entry onto itself is a no-op, like the real file
		// systems; falling through would unlink the node's only name
		// before re-adding it.
		return nil
	}
	if m.nodes[ino].typ == vfs.TypeDir && sd != dd {
		// A directory moved beneath itself would leave the namespace.
		parent := func(d vfs.Ino) (vfs.Ino, error) { return m.nodes[d].parent, nil }
		if err := vfs.CheckNotBelow(ino, ddir, m.Root(), parent); err != nil {
			return err
		}
	}
	if old, ok := dd.children[dname]; ok {
		if m.nodes[old].typ == vfs.TypeDir {
			return vfs.ErrIsDir
		}
		if err := m.Unlink(ddir, dname); err != nil {
			return err
		}
	}
	delete(sd.children, sname)
	dd.children[dname] = ino
	if m.nodes[ino].typ == vfs.TypeDir && sd != dd {
		sd.nlink--
		dd.nlink++
		m.nodes[ino].parent = ddir // the moved directory's ".." follows it
	}
	return nil
}

func (m *Ref) ReadDir(dir vfs.Ino) ([]vfs.DirEntry, error) {
	d, err := m.dir(dir)
	if err != nil {
		return nil, err
	}
	var ents []vfs.DirEntry
	for name, ino := range d.children {
		ents = append(ents, vfs.DirEntry{Name: name, Ino: ino, Type: m.nodes[ino].typ})
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	return ents, nil
}

func (m *Ref) ReadAt(ino vfs.Ino, p []byte, off int64) (int, error) {
	n, err := m.node(ino)
	if err != nil {
		return 0, err
	}
	if n.typ == vfs.TypeDir {
		return 0, vfs.ErrIsDir
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	if off >= int64(len(n.data)) {
		return 0, nil
	}
	return copy(p, n.data[off:]), nil
}

func (m *Ref) WriteAt(ino vfs.Ino, p []byte, off int64) (int, error) {
	n, err := m.node(ino)
	if err != nil {
		return 0, err
	}
	if n.typ == vfs.TypeDir {
		return 0, vfs.ErrIsDir
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	if len(p) == 0 {
		return 0, nil // a zero-length write never extends the file
	}
	end := off + int64(len(p))
	if end > int64(len(n.data)) {
		grown := make([]byte, end)
		copy(grown, n.data)
		n.data = grown
	}
	copy(n.data[off:], p)
	return len(p), nil
}

func (m *Ref) Truncate(ino vfs.Ino, size int64) error {
	n, err := m.node(ino)
	if err != nil {
		return err
	}
	if n.typ == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	if size < 0 {
		return vfs.ErrInvalid
	}
	if int64(len(n.data)) > size {
		n.data = n.data[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, n.data)
		n.data = grown
	}
	return nil
}

func (m *Ref) Stat(ino vfs.Ino) (vfs.Stat, error) {
	n, err := m.node(ino)
	if err != nil {
		return vfs.Stat{}, err
	}
	return vfs.Stat{
		Ino:    ino,
		Type:   n.typ,
		Nlink:  n.nlink,
		Size:   int64(len(n.data)),
		Blocks: (int64(len(n.data)) + blockio.BlockSize - 1) / blockio.BlockSize,
	}, nil
}

func (m *Ref) Sync() error  { return nil }
func (m *Ref) Close() error { return nil }
