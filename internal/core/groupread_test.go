package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/disk"
	"cffs/internal/objstore"
	"cffs/internal/obs"
	"cffs/internal/sched"
	"cffs/internal/sim"
	"cffs/internal/ssd"
	"cffs/internal/vfs"
)

// The group-read policy, tested from the device's side of the driver:
// every count below is disk.Stats or the request trace, never a core
// counter, so what is asserted is what the device was asked to do.

// grTarget opens one of the three device models on an in-memory image of
// the ST31200's size, so all three hold the same file system layout. The
// ssd has one channel, like the benchmark's flash_churn: no readahead
// fan, so a group read is exactly one request.
func grTarget(t testing.TB, backend string) blockio.Target {
	t.Helper()
	clock := sim.NewClock()
	d, err := disk.NewMem(disk.SeagateST31200(), clock)
	if err != nil {
		t.Fatal(err)
	}
	size := d.Sectors() * disk.SectorSize
	var tgt blockio.Target
	switch backend {
	case "disk":
		tgt = d
	case "ssd":
		spec := ssd.DefaultSpec()
		spec.Channels = 1
		tgt, err = ssd.NewMem(spec, clock, size)
	case "objstore":
		tgt, err = objstore.NewMem(objstore.DefaultSpec(), clock, size)
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

const (
	grScanDirs    = 40 // the paper's case: 1-block files, read directory-major
	grScanPerDir  = 64
	grPoolBlocks  = 4 * 2048 // the churn case: 4x the default cache
	grPoolPerDir  = 48
	grSettleReads = 800 // random reads before the controller is judged
	grRandomReads = 2000
)

type grFile struct {
	dir  vfs.Ino
	name string
	size int
}

// grTree is a mounted file system holding both trees.
type grTree struct {
	fs         *FS
	tgt        blockio.Target
	scan, pool []grFile
	buf, want  []byte
}

func grFill(p []byte, key int) {
	for i := range p {
		p[i] = byte(key + i + i/251)
	}
}

// grBuild makes a C-FFS on tgt, creates the scan tree and then the pool
// of 2-5 block files, and leaves the cache cold and the counters zero.
func grBuild(t testing.TB, tgt blockio.Target, metrics *obs.Registry) *grTree {
	t.Helper()
	fs, err := Mkfs(blockio.NewDevice(tgt, sched.CLook{}),
		Options{EmbedInodes: true, Grouping: true, Mode: ModeDelayed, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	tr := &grTree{fs: fs, tgt: tgt, buf: make([]byte, 5*blockio.BlockSize), want: make([]byte, 5*blockio.BlockSize)}
	add := func(list *[]grFile, prefix string, perDir, size int) {
		if len(*list)%perDir == 0 {
			dir, err := fs.Mkdir(fs.Root(), fmt.Sprintf("%s%03d", prefix, len(*list)/perDir))
			if err != nil {
				t.Fatal(err)
			}
			*list = append(*list, grFile{dir: dir})
		} else {
			*list = append(*list, grFile{dir: (*list)[len(*list)-1].dir})
		}
		f := &(*list)[len(*list)-1]
		f.name, f.size = fmt.Sprintf("f%05d", len(*list)), size
		ino, err := fs.Create(f.dir, f.name)
		if err != nil {
			t.Fatal(err)
		}
		grFill(tr.buf[:size], len(*list))
		if _, err := fs.WriteAt(ino, tr.buf[:size], 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < grScanDirs*grScanPerDir; i++ {
		add(&tr.scan, "s", grScanPerDir, 1024)
	}
	rng := rand.New(rand.NewSource(22))
	for blocks := 0; blocks < grPoolBlocks; {
		n := 2 + rng.Intn(4)
		add(&tr.pool, "p", grPoolPerDir, n*blockio.BlockSize-rng.Intn(1000))
		blocks += n
	}
	tr.cold(t)
	return tr
}

// cold writes everything back, empties the cache and zeroes the counters.
func (tr *grTree) cold(t testing.TB) {
	t.Helper()
	if err := tr.fs.Flush(); err != nil {
		t.Fatal(err)
	}
	tr.tgt.ResetStats()
}

// read reads one whole file by name and checks its bytes.
func (tr *grTree) read(t testing.TB, list []grFile, i int) {
	t.Helper()
	f := list[i]
	ino, err := tr.fs.Lookup(f.dir, f.name)
	if err != nil {
		t.Fatal(err)
	}
	n, err := tr.fs.ReadAt(ino, tr.buf[:f.size], 0)
	if err != nil || n != f.size {
		t.Fatalf("%s: read %d of %d bytes: %v", f.name, n, f.size, err)
	}
	grFill(tr.want[:n], i+1)
	if !bytes.Equal(tr.buf[:n], tr.want[:n]) {
		t.Fatalf("%s: wrong bytes", f.name)
	}
}

// scanFiles reads scan files [from, to) in creation order.
func (tr *grTree) scanFiles(t testing.TB, from, to int) {
	for i := from; i < to; i++ {
		tr.read(t, tr.scan, i)
	}
}

// random reads n pool files drawn from rng and returns their total KB.
func (tr *grTree) random(t testing.TB, rng *rand.Rand, n int) (fileKB float64) {
	for ; n > 0; n-- {
		i := rng.Intn(len(tr.pool))
		tr.read(t, tr.pool, i)
		fileKB += float64(tr.pool[i].size) / 1024
	}
	return fileKB
}

// grReads is what a pattern cost in read requests.
type grReads struct {
	Reads, SectorsRead int64
	Digest             uint64 // over every request's (lba, sectors, direction), in order
}

func (g grReads) kb() float64 { return float64(g.SectorsRead) * disk.SectorSize / 1024 }

// measure runs fn with the request trace hashed and returns the reads.
func (tr *grTree) measure(fn func()) grReads {
	h := fnv.New64a()
	tr.tgt.SetTraceFunc(func(e disk.TraceEntry) {
		fmt.Fprintf(h, "%d %d %t\n", e.LBA, e.Count, e.Write)
	})
	tr.tgt.ResetStats()
	fn()
	tr.tgt.SetTraceFunc(nil)
	st := tr.tgt.Stats()
	return grReads{Reads: st.Reads, SectorsRead: st.SectorsRead, Digest: h.Sum64()}
}

// What each backend was asked for at the commit before the controller
// existed (the unconditional policy), captured by running these patterns
// there: grParentScan is the cold scan of the scan tree; grParentRandom
// is, cold again, grSettleReads+grRandomReads random pool reads from
// seed 7 on the two backends whose policy must not have changed.
var (
	grParentScan = map[string]grReads{
		"disk":     {Reads: 362, SectorsRead: 22736, Digest: 0x96711e431a755a26},
		"ssd":      {Reads: 362, SectorsRead: 22736, Digest: 0x96711e431a755a26},
		"objstore": {Reads: 284, SectorsRead: 22752, Digest: 0x59fbd5403d02859d},
	}
	grParentRandom = map[string]grReads{
		"disk":     {Reads: 4645, SectorsRead: 323504, Digest: 0x7519fc63654119c8},
		"objstore": {Reads: 35313, SectorsRead: 3503136, Digest: 0x1851f8ec169e1c16},
	}
)

func TestGroupReadPolicy(t *testing.T) {
	// (a) The paper's case keeps the paper's numbers on flash: a cold
	// directory-major scan of 1-block files uses nearly every block a
	// group read brings in, so the controller never leaves its first
	// state and the device sees the parent's requests.
	t.Run("scan-ssd", func(t *testing.T) {
		tr := grBuild(t, grTarget(t, "ssd"), nil)
		defer tr.fs.Close()
		got := tr.measure(func() { tr.scanFiles(t, 0, len(tr.scan)) })
		if got != grParentScan["ssd"] {
			t.Errorf("cold scan on ssd: %+v, parent %+v", got, grParentScan["ssd"])
		}
		if tr.fs.gr.declined {
			t.Error("a cold scan turned whole-group reads off")
		}
	})

	// (b) Random whole-file reads from a pool 4x the cache: once the
	// controller has settled, the device moves little more than the
	// files themselves, in at most one request per file.
	t.Run("random-ssd", func(t *testing.T) {
		tr := grBuild(t, grTarget(t, "ssd"), nil)
		defer tr.fs.Close()
		rng := rand.New(rand.NewSource(7))
		tr.random(t, rng, grSettleReads)
		if !tr.fs.gr.declined {
			t.Fatalf("%d random reads did not turn whole-group reads off", grSettleReads)
		}
		var fileKB float64
		got := tr.measure(func() { fileKB = tr.random(t, rng, grRandomReads) })
		t.Logf("device read %.0f KB in %d requests for %.0f KB in %d file reads",
			got.kb(), got.Reads, fileKB, grRandomReads)
		if got.kb() > 1.3*fileKB {
			t.Errorf("device read %.0f KB for %.0f KB of files, want at most 1.3x", got.kb(), fileKB)
		}
		if got.Reads > grRandomReads {
			t.Errorf("%d read requests for %d file reads, want at most one each", got.Reads, grRandomReads)
		}
	})

	// (c) Phase change: a scan starting while group reads are declined
	// turns them back on. Until it does, each group costs two requests
	// (its first file alone, then the rest on the second touch) and
	// resolves GroupBlocks-1 fills as used, so a window's worth of
	// groups is the bound; after it, the scan costs what it costs a mount
	// that never declined.
	t.Run("random-then-scan-ssd", func(t *testing.T) {
		tr := grBuild(t, grTarget(t, "ssd"), nil)
		defer tr.fs.Close()
		tr.random(t, rand.New(rand.NewSource(7)), grSettleReads)
		if !tr.fs.gr.declined {
			t.Fatal("random reads did not turn whole-group reads off")
		}
		const flipGroups = groupReadWindow/(GroupBlocks-1) + 2
		flipFiles := flipGroups * GroupBlocks
		tr.scanFiles(t, 0, flipFiles)
		if tr.fs.gr.declined {
			t.Fatalf("whole-group reads still off %d groups into a scan", flipGroups)
		}
		got := tr.measure(func() { tr.scanFiles(t, flipFiles, len(tr.scan)) })
		fresh := grBuild(t, grTarget(t, "ssd"), nil)
		defer fresh.fs.Close()
		fresh.scanFiles(t, 0, flipFiles)
		want := fresh.measure(func() { fresh.scanFiles(t, flipFiles, len(fresh.scan)) })
		// Counts, not the digest: the two caches hold different blocks, so
		// the one inode-map block is re-read at a different point.
		if got.Reads != want.Reads || got.SectorsRead != want.SectorsRead {
			t.Errorf("rest of the scan: %+v, on a mount that never declined %+v", got, want)
		}
	})

	// (d) A positioning device and a device whose fixed cost dwarfs its
	// transfer keep the parent's trace on both patterns: the disk because
	// it declares no cost, the object store because its break-even
	// (0.025) is below what a 16-block group read can score.
	for _, backend := range []string{"disk", "objstore"} {
		t.Run("parent-trace-"+backend, func(t *testing.T) {
			tr := grBuild(t, grTarget(t, backend), nil)
			defer tr.fs.Close()
			scan := tr.measure(func() { tr.scanFiles(t, 0, len(tr.scan)) })
			if scan != grParentScan[backend] {
				t.Errorf("cold scan: %+v, parent %+v", scan, grParentScan[backend])
			}
			tr.cold(t)
			random := tr.measure(func() {
				tr.random(t, rand.New(rand.NewSource(7)), grSettleReads+grRandomReads)
			})
			if random != grParentRandom[backend] {
				t.Errorf("random reads: %+v, parent %+v", random, grParentRandom[backend])
			}
		})
	}
}

// The device's declared cost must reach the policy through any wrapper
// that embeds blockio.Target — the shape of the benchmark's tracing
// interposer — or observing a mount would change what it reads.
func TestGroupReadCostSurvivesInterposer(t *testing.T) {
	run := func(tgt blockio.Target) grReads {
		tr := grBuild(t, tgt, nil)
		defer tr.fs.Close()
		rng := rand.New(rand.NewSource(7))
		tr.random(t, rng, grSettleReads)
		return tr.measure(func() { tr.random(t, rng, grRandomReads) })
	}
	bare := run(grTarget(t, "ssd"))
	wrapped := run(struct{ blockio.Target }{grTarget(t, "ssd")})
	if bare != wrapped {
		t.Errorf("through an interposer the device saw %+v, bare %+v", wrapped, bare)
	}
}

// Behaviour may not depend on observability: the same seeded churn with
// and without a metrics registry asks the device for the same work.
func TestGroupReadPolicyIgnoresMetrics(t *testing.T) {
	run := func(metrics *obs.Registry) disk.Stats {
		tr := grBuild(t, grTarget(t, "ssd"), metrics)
		defer tr.fs.Close()
		fs, rng := tr.fs, rand.New(rand.NewSource(11))
		for i := 0; i < 1500; i++ {
			pick := rng.Intn(len(tr.pool))
			f := &tr.pool[pick]
			ino, err := fs.Lookup(f.dir, f.name)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				if _, err := fs.ReadAt(ino, tr.buf[:f.size], 0); err != nil {
					t.Fatal(err)
				}
			} else if n := 512 + rng.Intn(3584); f.size+n <= len(tr.buf) {
				if _, err := fs.WriteAt(ino, tr.buf[:n], int64(f.size)); err != nil {
					t.Fatal(err)
				}
				f.size += n
			}
			if rng.Intn(2) == 0 {
				nf := grFile{dir: f.dir, name: fmt.Sprintf("n%05d", i), size: 1 + rng.Intn(4*blockio.BlockSize)}
				ino, err := fs.Create(nf.dir, nf.name)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fs.WriteAt(ino, tr.buf[:nf.size], 0); err != nil {
					t.Fatal(err)
				}
				tr.pool = append(tr.pool, nf)
			} else {
				victim := rng.Intn(len(tr.pool))
				v := tr.pool[victim]
				if err := fs.Unlink(v.dir, v.name); err != nil {
					t.Fatal(err)
				}
				tr.pool[victim] = tr.pool[len(tr.pool)-1]
				tr.pool = tr.pool[:len(tr.pool)-1]
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		return tr.tgt.Stats()
	}
	bare, observed := run(nil), run(obs.NewRegistry())
	if bare.Requests != observed.Requests || bare.SectorsRead != observed.SectorsRead ||
		bare.SectorsWrite != observed.SectorsWrite {
		t.Errorf("Metrics nil: %d requests, %d/%d sectors read/written; with a registry: %d, %d/%d",
			bare.Requests, bare.SectorsRead, bare.SectorsWrite,
			observed.Requests, observed.SectorsRead, observed.SectorsWrite)
	}
	if bare.Reads == 0 || bare.Writes == 0 {
		t.Errorf("the churn did no device work: %+v", bare)
	}
}
