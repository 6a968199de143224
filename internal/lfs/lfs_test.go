package lfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/disk"
	"cffs/internal/fault"
	"cffs/internal/fstest"
	"cffs/internal/sched"
	"cffs/internal/sim"
	"cffs/internal/ssd"
	"cffs/internal/vfs"
)

func newLFS(t *testing.T) *FS {
	t.Helper()
	d, err := disk.NewMem(disk.SeagateST31200(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(blockio.NewDevice(d, sched.CLook{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestConformance(t *testing.T) {
	fstest.Run(t, func(t *testing.T) vfs.FileSystem {
		return newLFS(t)
	}, fstest.FsckWith(Check))
}

func TestOracle(t *testing.T) {
	fs := newLFS(t)
	fstest.RunOracle(t, fs, 2500, 4242)
}

// The log discipline: a burst of small-file creates leaves the disk as
// a few large sequential writes, not one write per file.
func TestCreateBurstIsSequentialSegments(t *testing.T) {
	fs := newLFS(t)
	fs.Device().Disk().ResetStats()
	const n = 200
	for i := 0; i < n; i++ {
		ino, err := fs.Create(fs.Root(), fmt.Sprintf("f%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(ino, make([]byte, 1024), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	s := fs.Device().Disk().Stats()
	// ~200 data blocks + inodes + imap + checkpoint; merged at up to 16
	// blocks per request that is >= ~14 requests, far below one per file.
	if s.Writes > int64(n/3) {
		t.Fatalf("create burst issued %d writes for %d files; log should batch them", s.Writes, n)
	}
	if perReq := float64(s.SectorsWrite) / float64(s.Writes) * disk.SectorSize / 1024; perReq < 32 {
		t.Fatalf("mean write request only %.1f KB; segments should be written big", perReq)
	}
}

// Remount from the checkpoint must restore everything written before
// the last Sync.
func TestRemountFromCheckpoint(t *testing.T) {
	fs := newLFS(t)
	if _, err := vfs.MkdirAll(fs, "/a/b"); err != nil {
		t.Fatal(err)
	}
	want := []byte("logged and checkpointed")
	if err := vfs.WriteFile(fs, "/a/b/file", want); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(fs.Device(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fs2, "/a/b/file")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("remount read = %q, %v", got, err)
	}
	// And the remounted log must keep working (usage rebuilt correctly).
	for i := 0; i < 50; i++ {
		if err := vfs.WriteFile(fs2, fmt.Sprintf("/a/b/n%02d", i), make([]byte, 2048)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMountRejectsGarbage(t *testing.T) {
	d, _ := disk.NewMem(disk.SeagateST31200(), sim.NewClock())
	if _, err := Mount(blockio.NewDevice(d, sched.CLook{}), Options{}); err == nil {
		t.Fatal("mounted an unformatted device")
	}
}

// Drive the log around the disk until the cleaner must run, then verify
// every surviving file. This is the long-haul test of the cleaner's
// repointing logic.
func TestCleanerPreservesData(t *testing.T) {
	// A small disk so the log wraps quickly: use only a few hundred
	// segments by writing lots of data.
	d, err := disk.NewMem(disk.SeagateST31200(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(blockio.NewDevice(d, sched.CLook{}), Options{CacheBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	// Live set: 40 files x 64 KB = 2560 blocks. Churn: overwrite them
	// repeatedly; each round deads ~2560 blocks, so the log consumes
	// ~20 segments per round and wraps the 1898-segment disk... too
	// slowly. Instead, constrain live data but write many rounds sized
	// to push total appends past the log size.
	const files = 40
	blockSize := 64 * 1024
	content := func(round, i int) []byte {
		p := make([]byte, blockSize)
		for j := range p {
			p[j] = byte(round*31 + i*7 + j)
		}
		return p
	}
	rounds := (fs.nsegs*SegBlocks)/(files*16) + 3
	for r := 0; r < rounds; r++ {
		for i := 0; i < files; i++ {
			if err := vfs.WriteFile(fs, fmt.Sprintf("/f%02d", i), content(r, i)); err != nil {
				t.Fatalf("round %d file %d: %v", r, i, err)
			}
		}
		if r%7 == 0 {
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	last := rounds - 1
	for i := 0; i < files; i++ {
		got, err := vfs.ReadFile(fs, fmt.Sprintf("/f%02d", i))
		if err != nil {
			t.Fatalf("file %d after wrap: %v", i, err)
		}
		if !bytes.Equal(got, content(last, i)) {
			t.Fatalf("file %d corrupted after log wrap/cleaning", i)
		}
	}
	// Remount and verify again: the checkpoint chain survived cleaning.
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(fs.Device(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fs2, "/f00")
	if err != nil || !bytes.Equal(got, content(last, 0)) {
		t.Fatalf("remount after cleaning: %v", err)
	}
}

// Deleting everything must return the log to near-empty.
func TestDeleteReclaimsLog(t *testing.T) {
	fs := newLFS(t)
	free0, err := fs.FreeBlocks()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := vfs.WriteFile(fs, fmt.Sprintf("/x%03d", i), make([]byte, 8192)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := vfs.Remove(fs, fmt.Sprintf("/x%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	free1, err := fs.FreeBlocks()
	if err != nil {
		t.Fatal(err)
	}
	// Some slack for the root dir block, inode blocks, and imap copies.
	if free0-free1 > 32 {
		t.Fatalf("log leaked %d blocks across create/delete", free0-free1)
	}
}

// A crash (abandoned cache) rolls the file system back to its last
// checkpoint, losing later writes but never consistency.
func TestCrashRollsBackToCheckpoint(t *testing.T) {
	fs := newLFS(t)
	if err := vfs.WriteFile(fs, "/durable", []byte("checkpointed")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/volatile", []byte("not checkpointed")); err != nil {
		t.Fatal(err)
	}
	// CRASH: no sync; remount from the device.
	fs2, err := Mount(fs.Device(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fs2, "/durable")
	if err != nil || !bytes.Equal(got, []byte("checkpointed")) {
		t.Fatalf("checkpointed file lost: %q, %v", got, err)
	}
	if _, err := vfs.Walk(fs2, "/volatile"); err == nil {
		t.Fatal("post-checkpoint write survived the crash (should roll back)")
	}
	// The recovered log keeps working and checks clean.
	if err := vfs.WriteFile(fs2, "/after", []byte("recovered")); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(fs.Device(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("recovered image not clean: %v", rep.Problems)
	}
}

// A segment is discarded only after the checkpoint that stopped
// referencing it: until then a crash rolls back to a checkpoint that
// still reaches its blocks, and a discard destroys them.
func TestDiscardWaitsForCheckpoint(t *testing.T) {
	d, err := ssd.NewMem(ssd.DefaultSpec(), sim.NewClock(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	dev := blockio.NewDevice(d, sched.CLook{})
	fs, err := Mkfs(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	content := func(i int) []byte {
		return bytes.Repeat([]byte{byte(0x40 + i)}, SegBlocks*blockio.BlockSize/2)
	}
	const files = 8 // four segments' worth
	for i := 0; i < files; i++ {
		if err := vfs.WriteFile(fs, fmt.Sprintf("/big%d", i), content(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < files; i++ {
		if err := vfs.Remove(fs, fmt.Sprintf("/big%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.Stats().Discards; n != 0 {
		t.Fatalf("%d discards before the checkpoint that drops the segments", n)
	}
	// CRASH here: the old checkpoint reaches every file, intact.
	crashed, err := Mount(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < files; i++ {
		if got, err := vfs.ReadFile(crashed, fmt.Sprintf("/big%d", i)); err != nil || !bytes.Equal(got, content(i)) {
			t.Fatalf("file %d after a crash before the checkpoint: %v", i, err)
		}
	}

	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	st, ftl := d.Stats(), d.FTL()
	if st.Discards == 0 || ftl.Trims < 2*SegBlocks {
		t.Fatalf("%d discards unmapped %d pages after deleting %d segments of data", st.Discards, ftl.Trims, (files-1)/2)
	}
	if ftl.Trims%SegBlocks != 0 || int64(ftl.Trims/SegBlocks) != st.Discards {
		t.Fatalf("%d discards unmapped %d pages, want whole %d-block segments, one command each", st.Discards, ftl.Trims, SegBlocks)
	}
	// CRASH again: the new checkpoint reaches what is left, intact.
	crashed, err = Mount(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := vfs.ReadFile(crashed, "/big0"); err != nil || !bytes.Equal(got, content(0)) {
		t.Fatalf("surviving file after the discards: %v", err)
	}
	if _, err := vfs.Walk(crashed, "/big1"); err == nil {
		t.Fatal("deleted file reachable after the checkpoint")
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if rep, err := Check(dev, false); err != nil || !rep.Clean() {
		t.Fatalf("image after discards: %v, %v", err, rep)
	}
}

// Check must pass on a heavily used image.
func TestCheckAfterUse(t *testing.T) {
	fs := newLFS(t)
	for i := 0; i < 60; i++ {
		if err := vfs.WriteFile(fs, fmt.Sprintf("/f%02d", i), make([]byte, 3000)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if err := vfs.Remove(fs, fmt.Sprintf("/f%02d", i)); err != nil {
			t.Fatal(err)
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
	if rep.Files != 30 || rep.Dirs != 1 {
		t.Fatalf("check found %d files %d dirs, want 30/1", rep.Files, rep.Dirs)
	}
}

// TestTruncateReportsReadError: shrinking inside a block whose pointer
// block cannot be read must fail, not return nil with the stale tail
// left past the new end. The seed guarded the tail zeroing with
// `err == nil && addr != 0` and so dropped the error.
func TestTruncateReportsReadError(t *testing.T) {
	spec := disk.SeagateST31200()
	if err := spec.Validate(); err != nil { // also derives the geometry's size
		t.Fatal(err)
	}
	fst := fault.NewStore(disk.NewMemStore(spec.Geom.Bytes()), 1)
	d, err := disk.New(spec, sim.NewClock(), fst)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(blockio.NewDevice(d, sched.CLook{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ino, err := fs.Create(fs.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	// 15 whole blocks and a bit: the last block sits behind the
	// single-indirect block, and a cut inside it frees nothing, so the
	// tail zeroing is the only step that has to resolve it.
	size := int64(15*blockio.BlockSize + 500)
	if _, err := fs.WriteAt(ino, bytes.Repeat([]byte{0xAB}, int(size)), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	in, err := fs.getLiveInode(ino)
	if err != nil || in.Indir == 0 {
		t.Fatalf("no indirect block to fail: %v", err)
	}
	fst.FailSector(int64(in.Indir) * blockio.SectorsPerBlock)
	if err := fs.Truncate(ino, size-400); !errors.Is(err, fault.ErrReadFault) {
		t.Fatalf("truncate across an unreadable pointer block = %v, want the read fault", err)
	}
	if st, err := fs.Stat(ino); err != nil || st.Size != size {
		t.Fatalf("failed truncate changed the size to %d (%v), want %d", st.Size, err, size)
	}
}

// TestDirInsertReportsBadSlot: an insert aimed at bytes that do not
// decode as a record must fail. The seed's mutate closure returned
// silently, so the create that called it reported success having
// entered no name.
func TestDirInsertReportsBadSlot(t *testing.T) {
	fs := newLFS(t)
	din, err := fs.dirInode(RootIno)
	if err != nil {
		t.Fatal(err)
	}
	// Offset 4 is inside the "." record's header, not on a boundary.
	if err := fs.dirInsertAt(din, RootIno, recLoc{lb: 0, off: 4}, false, 99, vfs.TypeReg, "ghost"); err == nil {
		t.Fatal("insert at a non-record offset reported success")
	}
	if _, err := fs.Lookup(RootIno, "ghost"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("lookup after the failed insert = %v", err)
	}
}
