// Striped conformance matrix: every file system in the repository must
// behave identically whether it sits on one spindle or on a striped
// volume. The volume layer changes request timing and fan-out but must
// never change semantics; running the full battery and the oracle
// model-check over {1, 2, 4} disks is the test that keeps it honest.
package fstest_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/core"
	"cffs/internal/disk"
	"cffs/internal/ffs"
	"cffs/internal/fsck"
	"cffs/internal/fstest"
	"cffs/internal/sched"
	"cffs/internal/sim"
	"cffs/internal/vfs"
	"cffs/internal/volume"
)

// stripedDevice builds a driver over an n-spindle striped volume; n=1
// degenerates to a single-member volume (still through the volume
// layer, which must be a no-op semantically).
func stripedDevice(t *testing.T, n int) *blockio.Device {
	t.Helper()
	vol, err := volume.NewMem(disk.SeagateST31200(), n, sim.NewClock(), volume.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return blockio.NewDevice(vol, sched.CLook{})
}

// fsMaker describes one file system configuration under test: how to
// mkfs it on a device and how to fsck the image afterwards.
type fsMaker struct {
	name string
	mkfs func(dev *blockio.Device) (vfs.FileSystem, error)
	fsck func(dev *blockio.Device, repair bool) (*fsck.Report, error)
}

func coreMaker(name string, opts core.Options) fsMaker {
	return fsMaker{
		name: name,
		mkfs: func(dev *blockio.Device) (vfs.FileSystem, error) {
			return core.Mkfs(dev, opts)
		},
		fsck: core.Check,
	}
}

func allMakers() []fsMaker {
	return []fsMaker{
		coreMaker("conventional-sync", core.Options{Mode: core.ModeSync}),
		coreMaker("embedded-sync", core.Options{EmbedInodes: true, Mode: core.ModeSync}),
		coreMaker("grouping-delayed", core.Options{Grouping: true, Mode: core.ModeDelayed}),
		coreMaker("cffs-delayed", core.Options{EmbedInodes: true, Grouping: true, Mode: core.ModeDelayed}),
		{
			name: "ffs-sync",
			mkfs: func(dev *blockio.Device) (vfs.FileSystem, error) {
				return ffs.Mkfs(dev, ffs.Options{Mode: ffs.ModeSync})
			},
			fsck: ffs.Check,
		},
	}
}

var diskCounts = []int{1, 2, 4}

// TestStripedConformance runs the full behavioural battery for every
// file system configuration at every disk count.
func TestStripedConformance(t *testing.T) {
	for _, mk := range allMakers() {
		for _, n := range diskCounts {
			mk, n := mk, n
			t.Run(fmt.Sprintf("%s/%ddisk", mk.name, n), func(t *testing.T) {
				fstest.Run(t, func(t *testing.T) vfs.FileSystem {
					fs, err := mk.mkfs(stripedDevice(t, n))
					if err != nil {
						t.Fatal(err)
					}
					return fs
				}, fstest.FsckWith(mk.fsck))
			})
		}
	}
}

// TestStripedOracle model-checks every configuration at every disk
// count against the reference file system, then fscks the image.
func TestStripedOracle(t *testing.T) {
	for mi, mk := range allMakers() {
		for ni, n := range diskCounts {
			mk, n := mk, n
			seed := uint64(7000 + 10*mi + ni)
			t.Run(fmt.Sprintf("%s/%ddisk", mk.name, n), func(t *testing.T) {
				ops := 2000
				if testing.Short() {
					ops = 600
				}
				fs, err := mk.mkfs(stripedDevice(t, n))
				if err != nil {
					t.Fatal(err)
				}
				fstest.RunOracle(t, fs, ops, seed)
				fstest.FsckWith(mk.fsck)(t, fs)
			})
		}
	}
}

// TestStripedMatchesSingleDisk is the differential check: the same
// seeded operation stream applied to a single-disk mount and a striped
// mount must leave byte-identical logical contents and namespaces. The
// volume layer may reorder and fan out I/O, but the logical block
// address space it presents must be exactly that of one big disk.
func TestStripedMatchesSingleDisk(t *testing.T) {
	opts := core.Options{EmbedInodes: true, Grouping: true, Mode: core.ModeDelayed}
	single, err := core.Mkfs(stripedDevice(t, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	striped, err := core.Mkfs(stripedDevice(t, 4), opts)
	if err != nil {
		t.Fatal(err)
	}

	// Drive both with the same seeded stream of creates, writes,
	// mkdirs, renames, and unlinks.
	rng := sim.NewRNG(991)
	type node struct {
		path string
		dirA vfs.Ino // ino of the parent on each mount
		dirB vfs.Ino
		name string
	}
	dirsA := []vfs.Ino{single.Root()}
	dirsB := []vfs.Ino{striped.Root()}
	var files []node
	payload := make([]byte, 6*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}

	both := func(fn func(fs vfs.FileSystem, dirs []vfs.Ino) error) {
		t.Helper()
		if err := fn(single, dirsA); err != nil {
			t.Fatal(err)
		}
		if err := fn(striped, dirsB); err != nil {
			t.Fatal(err)
		}
	}

	for op := 0; op < 1200; op++ {
		di := rng.Intn(len(dirsA))
		switch r := rng.Intn(10); {
		case r < 5: // create + write
			name := fmt.Sprintf("f%d", op)
			sz := rng.Intn(len(payload))
			both(func(fs vfs.FileSystem, dirs []vfs.Ino) error {
				ino, err := fs.Create(dirs[di], name)
				if err != nil {
					return err
				}
				_, err = fs.WriteAt(ino, payload[:sz], 0)
				return err
			})
			files = append(files, node{dirA: dirsA[di], dirB: dirsB[di], name: name})
		case r < 6 && len(dirsA) < 40: // mkdir
			name := fmt.Sprintf("d%d", op)
			inoA, err := single.Mkdir(dirsA[di], name)
			if err != nil {
				t.Fatal(err)
			}
			inoB, err := striped.Mkdir(dirsB[di], name)
			if err != nil {
				t.Fatal(err)
			}
			dirsA = append(dirsA, inoA)
			dirsB = append(dirsB, inoB)
		case r < 8 && len(files) > 0: // overwrite a random file
			f := files[rng.Intn(len(files))]
			off := int64(rng.Intn(4096))
			n := rng.Intn(2048)
			errA := writeVia(single, f.dirA, f.name, payload[:n], off)
			errB := writeVia(striped, f.dirB, f.name, payload[:n], off)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("overwrite %s: single err=%v striped err=%v", f.name, errA, errB)
			}
		case len(files) > 0: // unlink
			fi := rng.Intn(len(files))
			f := files[fi]
			errA := single.Unlink(f.dirA, f.name)
			errB := striped.Unlink(f.dirB, f.name)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("unlink %s: single err=%v striped err=%v", f.name, errA, errB)
			}
			files = append(files[:fi], files[fi+1:]...)
		}
	}
	if err := single.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := striped.Sync(); err != nil {
		t.Fatal(err)
	}

	// Walk both namespaces and compare every entry and every byte.
	var walk func(a, b vfs.Ino, path string)
	walk = func(a, b vfs.Ino, path string) {
		entsA, err := single.ReadDir(a)
		if err != nil {
			t.Fatal(err)
		}
		entsB, err := striped.ReadDir(b)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(entsA, func(i, j int) bool { return entsA[i].Name < entsA[j].Name })
		sort.Slice(entsB, func(i, j int) bool { return entsB[i].Name < entsB[j].Name })
		if len(entsA) != len(entsB) {
			t.Fatalf("%s: %d entries on single vs %d striped", path, len(entsA), len(entsB))
		}
		for i := range entsA {
			ea, eb := entsA[i], entsB[i]
			if ea.Name != eb.Name || ea.Type != eb.Type {
				t.Fatalf("%s: entry %q/%v vs %q/%v", path, ea.Name, ea.Type, eb.Name, eb.Type)
			}
			if ea.Type == vfs.TypeDir {
				walk(ea.Ino, eb.Ino, path+"/"+ea.Name)
				continue
			}
			sa, err := single.Stat(ea.Ino)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := striped.Stat(eb.Ino)
			if err != nil {
				t.Fatal(err)
			}
			if sa.Size != sb.Size {
				t.Fatalf("%s/%s: size %d vs %d", path, ea.Name, sa.Size, sb.Size)
			}
			ba := make([]byte, sa.Size)
			bb := make([]byte, sb.Size)
			if _, err := single.ReadAt(ea.Ino, ba, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := striped.ReadAt(eb.Ino, bb, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ba, bb) {
				t.Fatalf("%s/%s: contents differ between single and striped mounts", path, ea.Name)
			}
		}
	}
	walk(single.Root(), striped.Root(), "")

	if err := single.Close(); err != nil {
		t.Fatal(err)
	}
	if err := striped.Close(); err != nil {
		t.Fatal(err)
	}
}

func writeVia(fs vfs.FileSystem, dir vfs.Ino, name string, p []byte, off int64) error {
	ino, err := fs.Lookup(dir, name)
	if err != nil {
		return err
	}
	_, err = fs.WriteAt(ino, p, off)
	return err
}
