package bench

import (
	"fmt"

	"cffs/internal/aging"
	"cffs/internal/core"
	"cffs/internal/disk"
	"cffs/internal/workload"
)

// AgingExp reproduces Section 4.3: the small-file benchmark run on file
// systems aged (Herrin93-style create/delete churn) to increasing
// utilizations. Fragmented free space starves explicit grouping of
// whole extents, so the C-FFS advantage shrinks with age — the paper's
// observed effect.
func AgingExp(cfg Config) ([]Table, error) {
	cfg = cfg.fill()
	t := Table{
		ID:    "aging",
		Title: "Small-file benchmark on aged file systems (delayed metadata)",
		Columns: []string{"utilization", "C-FFS create (f/s)", "C-FFS read (f/s)",
			"conv read (f/s)", "read speedup"},
	}
	utils := []float64{0.20, 0.50, 0.75}
	ops := 18000
	n := cfg.NumFiles / 4
	if cfg.Quick {
		utils = []float64{0.10, 0.45}
		ops = 6000
		n = cfg.NumFiles / 2
	}
	for _, u := range utils {
		var read [2]float64
		var create [2]float64
		for i, v := range pair() {
			fs, _, err := v.Build(cfg, core.ModeDelayed)
			if err != nil {
				return nil, err
			}
			if _, err := aging.Age(fs, aging.Config{
				Ops: ops, TargetUtil: u, Dirs: 40, MeanSize: 98304, Seed: cfg.Seed,
			}); err != nil {
				return nil, err
			}
			res, err := workload.RunSmallFile(fs, workload.SmallFileConfig{
				NumFiles: n, FileSize: cfg.FileSize, Dirs: max(4, cfg.Dirs/4), Seed: cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			create[i] = res[0].FilesPerSec()
			read[i] = res[1].FilesPerSec()
		}
		t.AddRow(fmt.Sprintf("%.0f%%", u*100),
			f1(create[1]), f1(read[1]), f1(read[0]), fx(read[1]/read[0]))
	}
	t.Notes = append(t.Notes, "pair order: index 0 conventional, 1 C-FFS")
	return []Table{t}, nil
}

// SchedulerAblation compares C-LOOK against FCFS under the small-file
// benchmark for both endpoints of the grid.
func SchedulerAblation(cfg Config) ([]Table, error) {
	cfg = cfg.fill()
	t := Table{
		ID:      "sched",
		Title:   "Scheduler ablation: create-phase and read-phase throughput (files/s)",
		Columns: []string{"variant", "scheduler", "create", "read", "delete"},
	}
	for _, schedName := range []string{"clook", "fcfs"} {
		for _, v := range pair() {
			c := cfg
			c.Scheduler = schedName
			res, err := v.smallFile(c, core.ModeDelayed, c.NumFiles/2, c.FileSize, c.Dirs)
			if err != nil {
				return nil, err
			}
			t.AddRow(v.Name, schedName, f1(res[0].FilesPerSec()), f1(res[1].FilesPerSec()), f1(res[3].FilesPerSec()))
		}
	}
	return []Table{t}, nil
}

// CacheSweep measures read-phase sensitivity to buffer-cache size.
func CacheSweep(cfg Config) ([]Table, error) {
	cfg = cfg.fill()
	t := Table{
		ID:      "cache",
		Title:   "Read-phase throughput vs buffer cache size (files/s)",
		Columns: []string{"cache (MB)", "conventional", "C-FFS"},
	}
	for _, blocks := range []int{256, 1024, 4096} {
		var read [2]float64
		for i, v := range pair() {
			c := cfg
			c.CacheBlocks = blocks
			res, err := v.smallFile(c, core.ModeDelayed, c.NumFiles/2, c.FileSize, c.Dirs)
			if err != nil {
				return nil, err
			}
			read[i] = res[1].FilesPerSec()
		}
		t.AddRow(f1(float64(blocks)*4/1024), f1(read[0]), f1(read[1]))
	}
	return []Table{t}, nil
}

// DriveSweep runs the benchmark on every drive in the catalog: the
// paper argues the techniques matter *more* on newer drives, whose
// bandwidth grew faster than their access times.
func DriveSweep(cfg Config) ([]Table, error) {
	cfg = cfg.fill()
	t := Table{
		ID:      "drives",
		Title:   "C-FFS read-phase speedup across drive generations",
		Columns: []string{"drive", "year", "conv read (f/s)", "C-FFS read (f/s)", "speedup"},
	}
	for _, spec := range disk.Catalog() {
		var read [2]float64
		for i, v := range pair() {
			c := cfg
			c.Drive = spec.Name
			res, err := v.smallFile(c, core.ModeDelayed, c.NumFiles/2, c.FileSize, c.Dirs)
			if err != nil {
				return nil, err
			}
			read[i] = res[1].FilesPerSec()
		}
		t.AddRow(spec.Name, fmt.Sprintf("%d", spec.Year), f1(read[0]), f1(read[1]), fx(read[1]/read[0]))
	}
	return []Table{t}, nil
}
