package bench

import (
	"fmt"

	"cffs/internal/core"
	"cffs/internal/disk"
	"cffs/internal/trace"
	"cffs/internal/vfs"
	"cffs/internal/workload"
)

// Immediate reproduces the immediate-files ablation [Mullender84]: for
// files that fit the inode's spare bytes, inlining removes the data
// block entirely — with embedding, a tiny file lives wholly inside its
// directory.
func Immediate(cfg Config) ([]Table, error) {
	cfg = cfg.fill()
	t := Table{
		ID:      "immediate",
		Title:   "Immediate files: tiny-file benchmark (32 B files, sync metadata)",
		Columns: []string{"variant", "create (f/s)", "read (f/s)", "delete (f/s)"},
	}
	n := cfg.NumFiles / 2
	for _, v := range []fsVariant{
		cffsVariant("C-FFS", core.Options{EmbedInodes: true, Grouping: true}),
		cffsVariant("C-FFS+immediate", core.Options{EmbedInodes: true, Grouping: true, Immediate: true}),
	} {
		res, err := v.smallFile(cfg, core.ModeSync, n, 32, cfg.Dirs)
		if err != nil {
			return nil, err
		}
		t.AddRow(v.Name, f1(res[0].FilesPerSec()), f1(res[1].FilesPerSec()), f1(res[3].FilesPerSec()))
	}
	t.Notes = append(t.Notes, "inline data rides the directory block: zero data blocks, zero data requests")
	return []Table{t}, nil
}

// Readahead measures sequential large-file read bandwidth with
// prefetching, the feature the paper's prototype lacked.
func Readahead(cfg Config) ([]Table, error) {
	cfg = cfg.fill()
	t := Table{
		ID:      "readahead",
		Title:   "Sequential readahead: cold 8 MB file read",
		Columns: []string{"readahead (blocks)", "read (MB/s)", "disk reads"},
	}
	size := 8 << 20
	if cfg.Quick {
		size = 2 << 20
	}
	data := make([]byte, size)
	for _, ra := range []int{0, 4, 8, 16} {
		fs, dev, err := cffsVariant("ra", core.Options{
			EmbedInodes: true, Grouping: true, Readahead: ra,
		}).Build(cfg, core.ModeDelayed)
		if err != nil {
			return nil, err
		}
		if err := vfs.WriteFile(fs, "/big", data); err != nil {
			return nil, err
		}
		if fl, ok := fs.(vfs.Flusher); ok {
			if err := fl.Flush(); err != nil {
				return nil, err
			}
		}
		ino, err := vfs.Walk(fs, "/big")
		if err != nil {
			return nil, err
		}
		clk := dev.Disk().Clock()
		s0 := dev.Disk().Stats()
		start := clk.Now()
		buf := make([]byte, size)
		if _, err := fs.ReadAt(ino, buf, 0); err != nil {
			return nil, err
		}
		mbs := float64(size) / (float64(clk.Now()-start) / 1e9) / 1e6
		t.AddRow(fmt.Sprintf("%d", ra), f2(mbs), fmt.Sprintf("%d", dev.Disk().Stats().Sub(s0).Reads))
	}
	return []Table{t}, nil
}

// Postmark runs the PostMark-style churn benchmark across the grid —
// steady-state small-file transactions rather than clean phases.
func Postmark(cfg Config) ([]Table, error) {
	cfg = cfg.fill()
	t := Table{
		ID:      "postmark",
		Title:   "PostMark-style transactions (delayed metadata)",
		Columns: []string{"variant", "tx/s", "disk requests"},
	}
	pm := workload.PostmarkConfig{
		InitialFiles: cfg.NumFiles / 4,
		Transactions: cfg.NumFiles / 2,
		Dirs:         cfg.Dirs,
		Seed:         cfg.Seed,
	}
	variants := append(grid(),
		cffsVariant("C-FFS adaptive", core.Options{EmbedInodes: true, Grouping: true, AdaptiveGroupRead: true}),
		lfsVariant())
	for _, v := range variants {
		fs, _, err := v.Build(cfg, core.ModeDelayed)
		if err != nil {
			return nil, err
		}
		res, err := workload.RunPostmark(fs, pm)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.Name, err)
		}
		t.AddRow(v.Name, f1(res.TransactionsPS), fmt.Sprintf("%d", res.Disk.Requests))
	}
	return []Table{t}, nil
}

// SoftUpdates isolates the metadata-integrity cost itself: the
// conventional configuration under ordered synchronous writes versus
// delayed metadata (the [Ganger94] observation that synchronous
// metadata roughly halves create/delete throughput).
func SoftUpdates(cfg Config) ([]Table, error) {
	cfg = cfg.fill()
	t := Table{
		ID:      "softupdates",
		Title:   "Metadata integrity cost: sync vs delayed (conventional config)",
		Columns: []string{"phase", "sync (f/s)", "delayed (f/s)", "delayed vs sync"},
	}
	var results [2][]workload.PhaseResult
	for i, mode := range []core.Mode{core.ModeSync, core.ModeDelayed} {
		res, err := coreVariant("conventional", false, false).smallFile(cfg, mode, cfg.NumFiles/2, cfg.FileSize, cfg.Dirs)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	for p := range results[0] {
		s, d := results[0][p].FilesPerSec(), results[1][p].FilesPerSec()
		t.AddRow(results[0][p].Name, f1(s), f1(d), fx(d/s))
	}
	t.Notes = append(t.Notes, "the create/delete gap is what soft updates (and embedded inodes) attack")
	return []Table{t}, nil
}

// ProfileExp traces the small-file benchmark's read phase and reduces
// the request streams to the quantities the paper reasons about: C-FFS
// should show far fewer, far larger, far more adjacent requests.
func ProfileExp(cfg Config) ([]Table, error) {
	cfg = cfg.fill()
	t := Table{
		ID:    "profile",
		Title: "Read-phase disk request profile (delayed metadata)",
		Columns: []string{"variant", "requests", "mean KB", "mean ms",
			"adjacent", "median gap", "busy MB/s"},
	}
	for _, v := range pair() {
		fs, dev, err := v.Build(cfg, core.ModeDelayed)
		if err != nil {
			return nil, err
		}
		n := cfg.NumFiles / 2
		// Build and flush the files untraced.
		pre, err := workload.RunSmallFilePhase(fs, workload.SmallFileConfig{
			NumFiles: n, FileSize: cfg.FileSize, Dirs: cfg.Dirs, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		var entries []disk.TraceEntry
		dev.Disk().SetTrace(&entries)
		if err := pre.ReadPhase(); err != nil {
			return nil, err
		}
		dev.Disk().SetTrace(nil)
		p := trace.Analyze(entries)
		t.AddRow(v.Name, fmt.Sprintf("%d", p.Requests), f1(p.MeanRequestKB()),
			f2(p.MeanServiceMs()), fmt.Sprintf("%d", p.Adjacent),
			fmt.Sprintf("%d", p.MedianGap), f2(p.Bandwidth()))
	}
	t.Notes = append(t.Notes, "fewer, larger, more adjacent requests are the paper's mechanism made visible")
	return []Table{t}, nil
}

// LFSExp reproduces the paper's qualitative LFS comparison (Section 5):
// the log wins or ties every write-dominated phase, and its read
// performance depends on the read order matching the write order —
// which is where explicit grouping differs, batching by directory
// regardless of order.
func LFSExp(cfg Config) ([]Table, error) {
	cfg = cfg.fill()
	t := Table{
		ID:    "lfs",
		Title: "LFS vs C-FFS vs conventional (files/s; interleaved creation)",
		Columns: []string{"variant", "create", "read log order",
			"read by directory", "order penalty"},
	}
	n := cfg.NumFiles / 2
	sf := workload.SmallFileConfig{
		NumFiles: n, FileSize: cfg.FileSize, Dirs: cfg.Dirs, Seed: cfg.Seed,
	}
	variants := []fsVariant{
		coreVariant("conventional", false, false),
		coreVariant("C-FFS", true, true),
		lfsVariant(),
	}
	// Creation is interleaved across directories (multi-user activity),
	// so the log's write order crosses directories; the "by directory"
	// read order is then a user's grep over one project at a time.
	perDir := (n + cfg.Dirs - 1) / cfg.Dirs
	var interleaved []int
	for slot := 0; slot < perDir; slot++ {
		for d := 0; d < cfg.Dirs; d++ {
			if i := d*perDir + slot; i < n {
				interleaved = append(interleaved, i)
			}
		}
	}
	for _, v := range variants {
		fs, dev, err := v.Build(cfg, core.ModeDelayed)
		if err != nil {
			return nil, err
		}
		clk := dev.Disk().Clock()
		start := clk.Now()
		prep, err := workload.RunSmallFilePhaseOrder(fs, sf, interleaved)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.Name, err)
		}
		createFS := float64(n) / (float64(clk.Now()-start) / 1e9)

		start = clk.Now()
		if err := prep.ReadPhaseOrder(interleaved); err != nil {
			return nil, err
		}
		logFS := float64(n) / (float64(clk.Now()-start) / 1e9)

		start = clk.Now()
		if err := prep.ReadPhaseOrder(identity(n)); err != nil {
			return nil, err
		}
		dirFS := float64(n) / (float64(clk.Now()-start) / 1e9)

		t.AddRow(v.Name, f1(createFS), f1(logFS), f1(dirFS), fx(logFS/dirFS))
	}
	t.Notes = append(t.Notes,
		"creation interleaves directories (multi-user); 'in order' = log order, 'shuffled' = by directory",
		"the log's read throughput tracks write order; grouping's tracks the namespace")
	return []Table{t}, nil
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}
