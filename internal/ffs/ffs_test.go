package ffs

import (
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

func newFFS(t *testing.T, opts Options) *FS {
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

func TestConformanceSync(t *testing.T) {
	fstest.Run(t, func(t *testing.T) vfs.FileSystem {
		return newFFS(t, Options{Mode: ModeSync})
	}, fstest.FsckWith(Check))
}

func TestConformanceDelayed(t *testing.T) {
	fstest.Run(t, func(t *testing.T) vfs.FileSystem {
		return newFFS(t, Options{Mode: ModeDelayed})
	}, fstest.FsckWith(Check))
}

func TestMountExisting(t *testing.T) {
	fs := newFFS(t, Options{})
	if err := vfs.WriteFile(fs, "/keep", []byte("across mounts")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(fs.Device(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fs2, "/keep")
	if err != nil || string(got) != "across mounts" {
		t.Fatalf("remounted read = %q, %v", got, err)
	}
}

func TestMountRejectsGarbage(t *testing.T) {
	d, err := disk.NewMem(disk.SeagateST31200(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mount(blockio.NewDevice(d, sched.CLook{}), Options{}); err == nil {
		t.Fatal("mounted an unformatted device")
	}
}

func TestMkfsValidation(t *testing.T) {
	d, _ := disk.NewMem(disk.SeagateST31200(), sim.NewClock())
	dev := blockio.NewDevice(d, sched.CLook{})
	bad := []Options{
		{CGBlocks: 10},
		{CGBlocks: 1 << 20},
		{InodesPerCG: 7},
		{CGBlocks: 64, InodesPerCG: 2048},
	}
	for i, o := range bad {
		if _, err := Mkfs(dev, o); err == nil {
			t.Errorf("case %d: bad options accepted: %+v", i, o)
		}
	}
}

// Sync-mode creates must pay two ordered writes (inode, then dirent);
// this is the baseline cost that embedded inodes halve.
func TestSyncCreateUsesTwoOrderedWrites(t *testing.T) {
	fs := newFFS(t, Options{Mode: ModeSync})
	fs.Device().Disk().ResetStats()
	if _, err := fs.Create(fs.Root(), "twowrite"); err != nil {
		t.Fatal(err)
	}
	if got := fs.Device().Disk().Stats().Writes; got != 2 {
		t.Fatalf("sync create issued %d writes, want 2", got)
	}
}

func TestDelayedCreateUsesNoWrites(t *testing.T) {
	fs := newFFS(t, Options{Mode: ModeDelayed})
	fs.Device().Disk().ResetStats()
	if _, err := fs.Create(fs.Root(), "nowrite"); err != nil {
		t.Fatal(err)
	}
	if got := fs.Device().Disk().Stats().Writes; got != 0 {
		t.Fatalf("delayed create issued %d writes, want 0", got)
	}
}

// Unrelated small files must not be physically adjacent: FFS provides
// locality (same cylinder group), not adjacency. This property is the
// paper's core observation about conventional file systems, so the
// baseline must exhibit it.
func TestSmallFilesAreNotAdjacent(t *testing.T) {
	fs := newFFS(t, Options{Mode: ModeDelayed})
	var inos []vfs.Ino
	for i := 0; i < 20; i++ {
		ino, err := fs.Create(fs.Root(), fmt.Sprintf("s%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(ino, make([]byte, 1024), 0); err != nil {
			t.Fatal(err)
		}
		inos = append(inos, ino)
	}
	adjacent := 0
	var prev int64 = -100
	for _, ino := range inos {
		in, err := fs.getLiveInode(ino)
		if err != nil {
			t.Fatal(err)
		}
		phys := int64(in.Direct[0])
		if phys == prev+1 {
			adjacent++
		}
		prev = phys
	}
	if adjacent > 5 {
		t.Fatalf("%d/20 consecutive files physically adjacent; FFS placement should scatter them", adjacent)
	}
}

// Blocks within one file should cluster (FFS allocates a file's next
// block right after its previous one when free).
func TestFileInternalBlocksCluster(t *testing.T) {
	fs := newFFS(t, Options{Mode: ModeDelayed})
	ino, err := fs.Create(fs.Root(), "big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(ino, make([]byte, 8*blockio.BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	in, err := fs.getLiveInode(ino)
	if err != nil {
		t.Fatal(err)
	}
	contiguous := 0
	for i := 1; i < 8; i++ {
		if in.Direct[i] == in.Direct[i-1]+1 {
			contiguous++
		}
	}
	if contiguous < 6 {
		t.Fatalf("only %d/7 of a file's blocks contiguous", contiguous)
	}
}

func TestFreeCountsConsistent(t *testing.T) {
	fs := newFFS(t, Options{Mode: ModeDelayed})
	before, err := fs.FreeBlocks()
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/f", make([]byte, 10*blockio.BlockSize)); err != nil {
		t.Fatal(err)
	}
	mid, _ := fs.FreeBlocks()
	if mid >= before {
		t.Fatalf("free blocks did not drop: %d -> %d", before, mid)
	}
	if err := fs.Unlink(fs.Root(), "f"); err != nil {
		t.Fatal(err)
	}
	after, _ := fs.FreeBlocks()
	if after != before {
		t.Fatalf("free blocks leaked: %d -> %d", before, after)
	}
	fi, err := fs.FreeInodes()
	if err != nil {
		t.Fatal(err)
	}
	if fi <= 0 {
		t.Fatal("no free inodes reported")
	}
}

func TestOutOfInodes(t *testing.T) {
	// Tiny FS: one cylinder group's worth of inodes on a small region.
	d, err := disk.NewMem(disk.SeagateST31200(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(blockio.NewDevice(d, sched.CLook{}), Options{
		CGBlocks: 16384, InodesPerCG: 32, Mode: ModeDelayed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var firstErr error
	for i := 0; i < 2000; i++ {
		if _, err := fs.Create(fs.Root(), fmt.Sprintf("n%04d", i)); err != nil {
			firstErr = err
			break
		}
	}
	if !errors.Is(firstErr, vfs.ErrNoSpace) {
		t.Fatalf("exhaustion error = %v, want ErrNoSpace", firstErr)
	}
}

func TestModeString(t *testing.T) {
	if ModeSync.String() != "sync" || ModeDelayed.String() != "delayed" {
		t.Fatal("Mode.String wrong")
	}
}

// TestOracle model-checks the baseline against the reference file
// system with a randomized operation stream, then fscks the image.
func TestOracle(t *testing.T) {
	for _, mode := range []Mode{ModeSync, ModeDelayed} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			fs := newFFS(t, Options{Mode: mode})
			fstest.RunOracle(t, fs, 2500, uint64(77+mode))
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
