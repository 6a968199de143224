package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/disk"
	"cffs/internal/fstest"
	"cffs/internal/sched"
	"cffs/internal/sim"
	"cffs/internal/vfs"
)

func newCFFS(t *testing.T, opts Options) *FS {
	t.Helper()
	d, err := disk.NewMem(disk.SeagateST31200(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(blockio.NewDevice(d, sched.CLook{}), opts)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// All four configurations of the paper's comparison grid must satisfy
// the same file system semantics.
func TestConformance(t *testing.T) {
	configs := []Options{
		{EmbedInodes: false, Grouping: false, Mode: ModeSync},
		{EmbedInodes: true, Grouping: false, Mode: ModeSync},
		{EmbedInodes: false, Grouping: true, Mode: ModeDelayed},
		{EmbedInodes: true, Grouping: true, Mode: ModeDelayed},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.Config()+"-"+cfg.Mode.String(), func(t *testing.T) {
			fstest.Run(t, func(t *testing.T) vfs.FileSystem {
				return newCFFS(t, cfg)
			}, fstest.FsckWith(Check))
		})
	}
}

func TestConfigNames(t *testing.T) {
	if (Options{EmbedInodes: true, Grouping: true}).Config() != "C-FFS" ||
		(Options{EmbedInodes: true}).Config() != "embedded-only" ||
		(Options{Grouping: true}).Config() != "grouping-only" ||
		(Options{}).Config() != "conventional" {
		t.Fatal("Config names wrong")
	}
}

// The headline metadata property: an embedded create is one ordered
// write; a conventional create is two. Same for delete.
func TestEmbeddedCreateIsOneOrderedWrite(t *testing.T) {
	for _, embed := range []bool{true, false} {
		fs := newCFFS(t, Options{EmbedInodes: embed, Mode: ModeSync})
		// Warm the path so allocation metadata is cached.
		if _, err := fs.Create(fs.Root(), "warm"); err != nil {
			t.Fatal(err)
		}
		fs.Device().Disk().ResetStats()
		if _, err := fs.Create(fs.Root(), "probe"); err != nil {
			t.Fatal(err)
		}
		got := fs.Device().Disk().Stats().Writes
		want := int64(2)
		if embed {
			want = 1
		}
		if got != want {
			t.Errorf("embed=%v: create issued %d ordered writes, want %d", embed, got, want)
		}
	}
}

func TestEmbeddedDeleteIsOneOrderedWrite(t *testing.T) {
	for _, embed := range []bool{true, false} {
		fs := newCFFS(t, Options{EmbedInodes: embed, Mode: ModeSync})
		ino, err := fs.Create(fs.Root(), "victim")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(ino, make([]byte, 1024), 0); err != nil {
			t.Fatal(err)
		}
		fs.Device().Disk().ResetStats()
		if err := fs.Unlink(fs.Root(), "victim"); err != nil {
			t.Fatal(err)
		}
		got := fs.Device().Disk().Stats().Writes
		want := int64(2)
		if embed {
			want = 1
		}
		if got != want {
			t.Errorf("embed=%v: delete issued %d ordered writes, want %d", embed, got, want)
		}
	}
}

// With grouping on, small files created in one directory must be
// physically adjacent — the property FFS locality lacks.
func TestGroupingMakesSiblingsAdjacent(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Mode: ModeDelayed})
	var phys []int64
	for i := 0; i < GroupBlocks; i++ {
		ino, err := fs.Create(fs.Root(), fmt.Sprintf("g%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(ino, make([]byte, 1024), 0); err != nil {
			t.Fatal(err)
		}
		in, err := fs.getLiveInode(ino)
		if err != nil {
			t.Fatal(err)
		}
		phys = append(phys, int64(in.Direct[0]))
	}
	// Directory blocks share the group with the files (co-location), so
	// a gap of one block may appear where the directory grew; anything
	// larger means grouping failed.
	for i := 1; i < len(phys); i++ {
		gap := phys[i] - phys[i-1]
		if gap < 1 || gap > 2 {
			t.Fatalf("files %d and %d at blocks %d and %d; want adjacent (dir block gaps allowed)",
				i-1, i, phys[i-1], phys[i])
		}
	}
	if span := phys[len(phys)-1] - phys[0]; span > 2*GroupBlocks {
		t.Fatalf("sibling files span %d blocks; grouping failed", span)
	}
}

// Reading one file of a flushed group must bring its siblings into the
// cache with a single disk request — the group read.
func TestGroupReadFetchesSiblings(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Mode: ModeDelayed})
	const n = 8
	for i := 0; i < n; i++ {
		if err := vfs.WriteFile(fs, fmt.Sprintf("/f%d", i), bytes.Repeat([]byte{byte(i)}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	// Re-walk to warm directory blocks, then count data-read requests.
	if _, err := vfs.ReadFile(fs, "/f0"); err != nil {
		t.Fatal(err)
	}
	before := fs.Device().Disk().Stats().Reads
	for i := 1; i < n; i++ {
		got, err := vfs.ReadFile(fs, fmt.Sprintf("/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("file %d corrupted", i)
		}
	}
	if extra := fs.Device().Disk().Stats().Reads - before; extra != 0 {
		t.Fatalf("reading %d grouped siblings cost %d extra disk reads; want 0 (group read)", n-1, extra)
	}
}

// Without grouping, the same pattern costs roughly one read per file.
func TestNoGroupingReadsPerFile(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Grouping: false, Mode: ModeDelayed})
	const n = 8
	for i := 0; i < n; i++ {
		if err := vfs.WriteFile(fs, fmt.Sprintf("/f%d", i), bytes.Repeat([]byte{byte(i)}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := vfs.ReadFile(fs, "/f0"); err != nil {
		t.Fatal(err)
	}
	before := fs.Device().Disk().Stats().Reads
	for i := 1; i < n; i++ {
		if _, err := vfs.ReadFile(fs, fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if extra := fs.Device().Disk().Stats().Reads - before; extra < int64(n-1) {
		t.Fatalf("ungrouped config read %d siblings with %d reads; expected >= one per file", n-1, extra)
	}
}

// Group state must survive delete: freeing all files of a group
// dissolves it, and the space is reusable by another directory.
func TestGroupDissolvesOnDelete(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Mode: ModeDelayed})
	free0, err := fs.FreeBlocks()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := vfs.WriteFile(fs, fmt.Sprintf("/d%d", i), make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := fs.Unlink(fs.Root(), fmt.Sprintf("d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	free1, err := fs.FreeBlocks()
	if err != nil {
		t.Fatal(err)
	}
	if free1 != free0 {
		t.Fatalf("blocks leaked through group lifecycle: %d -> %d", free0, free1)
	}
}

// Hard links force externalization: the inode moves out of the
// directory and both names keep working.
func TestLinkExternalizes(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Mode: ModeSync})
	ino, err := fs.Create(fs.Root(), "orig")
	if err != nil {
		t.Fatal(err)
	}
	if !isEmbedded(ino) {
		t.Fatal("fresh single-link file not embedded")
	}
	if err := fs.Link(fs.Root(), "other", ino); err != nil {
		t.Fatal(err)
	}
	newIno, err := fs.Lookup(fs.Root(), "orig")
	if err != nil {
		t.Fatal(err)
	}
	if isEmbedded(newIno) {
		t.Fatal("multi-link file still embedded")
	}
	otherIno, err := fs.Lookup(fs.Root(), "other")
	if err != nil {
		t.Fatal(err)
	}
	if otherIno != newIno {
		t.Fatalf("names resolve to %#x and %#x", uint64(newIno), uint64(otherIno))
	}
	st, err := fs.Stat(newIno)
	if err != nil || st.Nlink != 2 {
		t.Fatalf("stat after link: %+v, %v", st, err)
	}
	// The stale embedded ino must now be rejected, not misread.
	if _, err := fs.Stat(ino); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("stale embedded ino Stat = %v, want ErrNotExist", err)
	}
}

// An embedded ino changes across rename (the inode physically moves with
// its entry); the old handle must go stale cleanly.
func TestRenameChangesEmbeddedIno(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Mode: ModeDelayed})
	ino, err := fs.Create(fs.Root(), "before")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(ino, []byte("content"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(fs.Root(), "before", fs.Root(), "after"); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fs, "/after")
	if err != nil || string(got) != "content" {
		t.Fatalf("renamed contents = %q, %v", got, err)
	}
	if _, err := fs.Lookup(fs.Root(), "before"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatal("old name survived")
	}
}

// Large files must not consume group space beyond the threshold: blocks
// past GroupBlocks use conventional clustered allocation.
func TestLargeFileLeavesGroups(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Mode: ModeDelayed})
	ino, err := fs.Create(fs.Root(), "big")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 40*blockio.BlockSize)
	if _, err := fs.WriteAt(ino, data, 0); err != nil {
		t.Fatal(err)
	}
	in, err := fs.getLiveInode(vfsLookup(t, fs, "big"))
	if err != nil {
		t.Fatal(err)
	}
	// Blocks >= GroupBlocks should be contiguous with their neighbours
	// (clustered), and must not be inside the file's group extent.
	_, _, start, ok := fs.locateGroup(int64(in.Direct[0]))
	if !ok {
		t.Fatal("first block not in a group extent")
	}
	for lb := int64(GroupBlocks); lb < 40; lb++ {
		phys, err := fs.tree.Resolve(&in, lb)
		if err != nil {
			t.Fatal(err)
		}
		if phys >= start && phys < start+GroupBlocks {
			t.Fatalf("large-file block %d allocated inside the group extent", lb)
		}
	}
}

func TestMountRoundTripAllConfigs(t *testing.T) {
	for _, cfg := range []Options{
		{},
		{EmbedInodes: true},
		{Grouping: true},
		{EmbedInodes: true, Grouping: true},
	} {
		fs := newCFFS(t, cfg)
		if err := vfs.WriteFile(fs, "/data", []byte("persisted")); err != nil {
			t.Fatal(err)
		}
		if _, err := vfs.MkdirAll(fs, "/a/b"); err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFile(fs, "/a/b/c", []byte("deep")); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		fs2, err := Mount(fs.Device(), Options{Mode: cfg.Mode})
		if err != nil {
			t.Fatal(err)
		}
		if fs2.Options().EmbedInodes != cfg.EmbedInodes || fs2.Options().Grouping != cfg.Grouping {
			t.Fatalf("%s: options not restored from superblock", cfg.Config())
		}
		got, err := vfs.ReadFile(fs2, "/data")
		if err != nil || string(got) != "persisted" {
			t.Fatalf("%s: remount read = %q, %v", cfg.Config(), got, err)
		}
		got, err = vfs.ReadFile(fs2, "/a/b/c")
		if err != nil || string(got) != "deep" {
			t.Fatalf("%s: remount deep read = %q, %v", cfg.Config(), got, err)
		}
		// External inode allocation must keep working after the rescan.
		if _, err := fs2.Mkdir(fs2.Root(), "postmount"); err != nil {
			t.Fatalf("%s: mkdir after remount: %v", cfg.Config(), err)
		}
	}
}

func TestMountRejectsGarbage(t *testing.T) {
	d, _ := disk.NewMem(disk.SeagateST31200(), sim.NewClock())
	if _, err := Mount(blockio.NewDevice(d, sched.CLook{}), Options{}); err == nil {
		t.Fatal("mounted an unformatted device")
	}
}

// A directory's blocks hold 16 entries each with embedded inodes; the
// directory-size overhead the paper discusses must be visible.
func TestDirectorySizeGrowth(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Mode: ModeDelayed})
	for i := 0; i < 100; i++ {
		if _, err := fs.Create(fs.Root(), fmt.Sprintf("e%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := fs.Stat(fs.Root())
	if err != nil {
		t.Fatal(err)
	}
	// 100 entries + . + .. at 16 slots per block -> ceil(102/16) = 7 blocks.
	if want := int64(7 * blockio.BlockSize); st.Size != want {
		t.Fatalf("directory size %d, want %d", st.Size, want)
	}
}

func TestExternalInodeFileGrows(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: false, Mode: ModeDelayed})
	before := fs.sb.ExtBlocks
	// 32 inodes per block; create enough to force growth.
	for i := 0; i < 100; i++ {
		if _, err := fs.Create(fs.Root(), fmt.Sprintf("x%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if fs.sb.ExtBlocks <= before {
		t.Fatalf("inode file did not grow: %d -> %d", before, fs.sb.ExtBlocks)
	}
	// Free slots are reused after deletion without growing further.
	grown := fs.sb.ExtBlocks
	for i := 0; i < 100; i++ {
		if err := fs.Unlink(fs.Root(), fmt.Sprintf("x%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := fs.Create(fs.Root(), fmt.Sprintf("y%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if fs.sb.ExtBlocks != grown {
		t.Fatalf("inode file grew on reuse: %d -> %d", grown, fs.sb.ExtBlocks)
	}
}

func TestGroupSpanAndDescriptors(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Mode: ModeDelayed})
	ino, err := fs.Create(fs.Root(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(ino, make([]byte, 3*blockio.BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	in, err := fs.getLiveInode(vfsLookup(t, fs, "a"))
	if err != nil {
		t.Fatal(err)
	}
	g, ok := fs.groupOf(int64(in.Direct[0]))
	if !ok {
		t.Fatal("grouped block has no group span")
	}
	start, count := g.start, g.count
	// The span covers the file's three blocks plus the co-located
	// directory block.
	if count < 3 || count > 5 {
		t.Fatalf("span count %d, want 3-5", count)
	}
	if start > int64(in.Direct[0]) || start+int64(count) < int64(in.Direct[2])+1 {
		t.Fatalf("span [%d,+%d) does not cover file blocks %v", start, count, in.Direct[:3])
	}
}

func vfsLookup(t *testing.T, fs *FS, name string) vfs.Ino {
	t.Helper()
	ino, err := fs.Lookup(fs.Root(), name)
	if err != nil {
		t.Fatal(err)
	}
	return ino
}

// Regression: a large file fills its directory's group and then squats
// (via conventional clustered allocation) on the free slots of the next
// claimed extent. Small files created afterwards must still get real
// blocks — this once produced block-0 pointers and superblock damage.
func TestGroupSquattersDoNotBreakAllocation(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Mode: ModeDelayed})
	if err := vfs.WriteFile(fs, "/small0", bytes.Repeat([]byte{0xA0}, 1300)); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/huge", bytes.Repeat([]byte{0xB1}, 127*blockio.BlockSize)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("/post%02d", i)
		want := bytes.Repeat([]byte{byte(0xC0 + i)}, 5000)
		if err := vfs.WriteFile(fs, name, want); err != nil {
			t.Fatal(err)
		}
		got, err := vfs.ReadFile(fs, name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s corrupted after group squatting", name)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(fs.Device(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("image not clean: %v", rep.Problems)
	}
}

// TestOracle model-checks every configuration against the in-memory
// reference file system with a randomized operation stream.
func TestOracle(t *testing.T) {
	configs := []Options{
		{Mode: ModeSync},
		{EmbedInodes: true, Mode: ModeSync},
		{Grouping: true, Mode: ModeDelayed},
		{EmbedInodes: true, Grouping: true, Mode: ModeDelayed},
	}
	for i, cfg := range configs {
		cfg := cfg
		seed := uint64(1000 + i)
		t.Run(cfg.Config()+"-"+cfg.Mode.String(), func(t *testing.T) {
			fs := newCFFS(t, cfg)
			fstest.RunOracle(t, fs, 2500, seed)
			// The surviving image must also be structurally consistent.
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			rep, err := Check(fs.Device(), false)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				max := len(rep.Problems)
				if max > 5 {
					max = 5
				}
				t.Fatalf("image inconsistent after oracle run: %v", rep.Problems[:max])
			}
		})
	}
}
