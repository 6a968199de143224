package bench

import (
	"fmt"

	"cffs/internal/core"
	"cffs/internal/obs"
	"cffs/internal/workload"
	wb "cffs/internal/writeback"
)

// asyncPolicy is the write-behind configuration the async variants
// mount with. Inline keeps the flush points inside the deterministic
// operation stream, so repeated runs measure identical simulated time;
// the policy (water marks, clustering, throttling) is exactly what a
// background mount applies.
func asyncPolicy() wb.Config {
	return wb.Config{Enabled: true, Inline: true}
}

// cffsWB is C-FFS mounted with the given write-behind policy.
func cffsWB(name string, cfg wb.Config) fsVariant {
	return cffsVariant(name, core.Options{EmbedInodes: true, Grouping: true, Writeback: cfg})
}

// The write-behind acceptance claim: an async C-FFS mount creates small
// files at least as fast as the synchronous mount, with fewer disk
// requests, and the gain comes from the daemon actually running.
var writebackGates = []Gate{
	{"writeback", "C-FFS async creates files at least as fast as C-FFS sync",
		func(p *Probe) {
			p.AtLeast("async create files/s", p.Cell("writeback", "C-FFS async", "create"), p.Cell("writeback", "C-FFS sync", "create"))
		}},
	{"writeback-requests", "C-FFS async issues fewer create-phase disk requests than C-FFS sync (and more than none)",
		func(p *Probe) {
			async, sync := p.Cell("writeback-requests", "C-FFS async", "create"), p.Cell("writeback-requests", "C-FFS sync", "create")
			if !(0 < async && async < sync) {
				p.Failf("create requests: async %.0f, sync %.0f", async, sync)
			}
		}},
	{"writeback-daemon", "the C-FFS async mount records daemon activity: writeback.flushes > 0 and writeback.blocks > 0",
		func(p *Probe) {
			for _, name := range []string{"writeback.flushes", "writeback.blocks"} {
				p.AtLeast("C-FFS async "+name, float64(p.Counter("C-FFS async", name)), 1)
			}
		}},
}

// WritebackExp measures what the write-behind daemon buys: the
// small-file benchmark on synchronous mounts against async mounts where
// the daemon retires dirty blocks early as clustered transfers, plus a
// sweep of the dirty-ratio limit showing how much write-behind headroom
// each file system needs before clustering pays off.
func WritebackExp(cfg Config) ([]Table, error) {
	cfg = cfg.fill()
	variants := []struct {
		fsVariant
		mode core.Mode
	}{
		{cffsWB("C-FFS sync", wb.Config{}), core.ModeSync},
		{cffsWB("C-FFS async", asyncPolicy()), core.ModeDelayed},
		{ffsWB("FFS sync", wb.Config{}), core.ModeSync},
		{ffsWB("FFS async", asyncPolicy()), core.ModeDelayed},
		{lfsWB("LFS", wb.Config{}), core.ModeDelayed},
		{lfsWB("LFS async", asyncPolicy()), core.ModeDelayed},
	}
	thr := Table{
		ID: "writeback",
		Title: fmt.Sprintf("Small-file throughput, sync vs async mounts (files/s; %d files of %d B)",
			cfg.NumFiles, cfg.FileSize),
		Columns: []string{"phase"},
	}
	req := Table{
		ID:      "writeback-requests",
		Title:   "Disk requests per phase, sync vs async mounts",
		Columns: []string{"phase"},
	}
	daemon := Table{
		ID:      "writeback-daemon",
		Title:   "Write-behind daemon activity (async mounts)",
		Columns: []string{"variant", "flush rounds", "blocks", "blocks/round", "throttle stalls"},
	}
	results := make([][]workload.PhaseResult, len(variants))
	for i, v := range variants {
		thr.Columns = append(thr.Columns, v.Name)
		req.Columns = append(req.Columns, v.Name)
		// Each variant gets its own registry: the async columns carry the
		// writeback.* counters, and comparisons never mix streams.
		r := obs.NewRegistry()
		vcfg := cfg
		vcfg.Registry = r
		res, err := v.smallFile(vcfg, v.mode, cfg.NumFiles, cfg.FileSize, cfg.Dirs)
		if err != nil {
			return nil, err
		}
		results[i] = res
		snap := r.Snapshot()
		cfg.Metrics.add(variantMetricsFrom(v.Name, snap, res))
		if rounds := snap.Counter("writeback.flushes"); rounds > 0 {
			blocks := snap.Counter("writeback.blocks")
			daemon.AddRow(v.Name,
				fmt.Sprintf("%d", rounds), fmt.Sprintf("%d", blocks),
				f1(float64(blocks)/float64(rounds)),
				fmt.Sprintf("%d", snap.Counter("writeback.throttle.stalls")))
		}
	}
	thr.Columns = append(thr.Columns, "C-FFS async vs sync")
	req.Columns = append(req.Columns, "C-FFS sync vs async")
	for p := range results[0] {
		tc := []string{results[0][p].Name}
		rc := []string{results[0][p].Name}
		for i := range variants {
			tc = append(tc, f1(results[i][p].FilesPerSec()))
			rc = append(rc, fmt.Sprintf("%d", results[i][p].Disk.Requests))
		}
		tc = append(tc, fx(results[1][p].FilesPerSec()/results[0][p].FilesPerSec()))
		rc = append(rc, fx(float64(results[0][p].Disk.Requests)/float64(results[1][p].Disk.Requests)))
		thr.AddRow(tc...)
		req.AddRow(rc...)
	}
	thr.Notes = append(thr.Notes,
		"sync mounts write metadata synchronously in operation order; async mounts let the",
		"write-behind daemon retire dirty blocks early as clustered scatter/gather transfers")

	sweep, err := writebackSweep(cfg)
	if err != nil {
		return nil, err
	}
	return []Table{thr, req, daemon, sweep}, nil
}

// writebackSweep varies the daemon's dirty-ratio limit: a tight limit
// flushes eagerly in small batches (approaching write-through), a loose
// one accumulates whole groups before the clustered write goes out.
func writebackSweep(cfg Config) (Table, error) {
	t := Table{
		ID:      "writeback-sweep",
		Title:   "Create throughput vs dirty-ratio limit (async mounts, files/s)",
		Columns: []string{"high water", "C-FFS", "FFS", "LFS"},
	}
	limits := []float64{0.02, 0.05, 0.10, 0.25, 0.50}
	if cfg.Quick {
		limits = []float64{0.02, 0.10, 0.50}
	}
	for _, hw := range limits {
		pol := wb.Config{
			Enabled: true, Inline: true,
			HighWater: hw, LowWater: hw / 2, HardLimit: min(2*hw, 0.9),
		}
		row := []string{fmt.Sprintf("%d%%", int(hw*100))}
		for _, v := range []fsVariant{cffsWB("C-FFS", pol), ffsWB("FFS", pol), lfsWB("LFS", pol)} {
			fs, dev, err := v.Build(cfg, core.ModeDelayed)
			if err != nil {
				return Table{}, fmt.Errorf("%s: %w", v.Name, err)
			}
			clk := dev.Disk().Clock()
			start := clk.Now()
			if _, err := workload.RunSmallFilePhase(fs, workload.SmallFileConfig{
				NumFiles: cfg.NumFiles, FileSize: cfg.FileSize, Dirs: cfg.Dirs, Seed: cfg.Seed,
			}); err != nil {
				return Table{}, fmt.Errorf("%s: %w", v.Name, err)
			}
			row = append(row, f1(float64(cfg.NumFiles)/(float64(clk.Now()-start)/1e9)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"create phase including final write-back; low water = half the high-water mark,",
		"hard limit = twice; small limits flush small batches, large ones flush whole groups")
	return t, nil
}
