package bench

import (
	"fmt"

	"cffs/internal/core"
	"cffs/internal/obs"
	"cffs/internal/workload"
)

// scalingCounts is the spindle sweep of the scaling experiment.
var scalingCounts = []int{1, 2, 4, 8}

// scalingMin4Disks is the payoff the group-sized stripe unit exists to
// deliver: small-file read and create throughput on four spindles over
// the single-disk rate.
const scalingMin4Disks = 2.0

var scalingGates = []Gate{
	{"scaling", fmt.Sprintf("read and create throughput rise from 1 to 2 to 4 disks and reach at least %.1fx at 4", scalingMin4Disks),
		func(p *Probe) {
			for _, phase := range []string{"read", "create"} {
				d1, d2, d4 := p.Cell("scaling", "1 disk", phase), p.Cell("scaling", "2 disks", phase), p.Cell("scaling", "4 disks", phase)
				p.Rising(phase+" files/s at 1, 2, 4 disks", d1, d2, d4)
				p.AtLeast(phase+" 4-disk speedup", d4/d1, scalingMin4Disks)
			}
		}},
	{"scaling", "no request in any run split across spindles (group/stripe alignment)",
		func(p *Probe) {
			for _, n := range scalingCounts {
				p.AtMost(spindleLabel(n)+" volume.split_requests", float64(p.Counter(spindleLabel(n), "volume.split_requests")), 0)
			}
		}},
}

func spindleLabel(n int) string {
	if n == 1 {
		return "1 disk"
	}
	return fmt.Sprintf("%d disks", n)
}

// ScalingExp measures what spindles buy once one disk is saturated by
// grouped traffic: the small-file benchmark on an asynchronous C-FFS
// mount over striped volumes of 1, 2, 4, and 8 disks. Creates scale
// because write-behind flush rounds cluster whole groups and the volume
// fans the batch out across arms; reads scale because group readahead
// widens each demand group read with the directory's next extents,
// which round-robin across spindles (stripe unit = group size). The
// balance table shows the per-spindle load staying even — the stripe
// mapping at work — and the volume.split_requests counter (gated at
// zero) proves no group transfer ever straddled two disks.
func ScalingExp(cfg Config) ([]Table, error) {
	cfg = cfg.fill()
	thr := Table{
		ID: "scaling",
		Title: fmt.Sprintf("Small-file throughput vs spindle count (files/s; %d files of %d B; C-FFS async)",
			cfg.NumFiles, cfg.FileSize),
		Columns: []string{"phase"},
	}
	spd := Table{
		ID:      "scaling-speedup",
		Title:   "Throughput relative to one spindle",
		Columns: []string{"phase"},
	}
	bal := Table{
		ID:      "scaling-balance",
		Title:   "Per-spindle load (whole run)",
		Columns: []string{"disks", "spindle", "requests", "sectors", "busy s", "busy share"},
	}
	results := make([][]workload.PhaseResult, len(scalingCounts))
	for ci, n := range scalingCounts {
		label := spindleLabel(n)
		thr.Columns = append(thr.Columns, label)
		spd.Columns = append(spd.Columns, label)
		r := obs.NewRegistry()
		dev, vol, err := cfg.newStripedDevice(n, r)
		if err != nil {
			return nil, err
		}
		fs, err := core.Mkfs(dev, core.Options{
			EmbedInodes: true, Grouping: true, Mode: core.ModeDelayed,
			CacheBlocks: cfg.CacheBlocks, Metrics: r, Writeback: asyncPolicy(),
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		res, err := workload.RunSmallFile(fs, workload.SmallFileConfig{
			NumFiles: cfg.NumFiles, FileSize: cfg.FileSize, Dirs: cfg.Dirs, Seed: cfg.Seed,
			Registry: r,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		results[ci] = res
		per := vol.PerDisk()
		var busyTotal int64
		for _, st := range per {
			busyTotal += st.BusyNanos
		}
		for i, st := range per {
			share := 0.0
			if busyTotal > 0 {
				share = float64(st.BusyNanos) / float64(busyTotal)
			}
			bal.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", i),
				fmt.Sprintf("%d", st.Requests), fmt.Sprintf("%d", st.SectorsMoved()),
				f1(float64(st.BusyNanos)/1e9), fmt.Sprintf("%d%%", int(share*100+0.5)))
		}
		cfg.Metrics.add(variantMetricsFrom(label, r.Snapshot(), res))
	}
	for p := range results[0] {
		tc := []string{results[0][p].Name}
		sc := []string{results[0][p].Name}
		base := results[0][p].FilesPerSec()
		for ci := range scalingCounts {
			fps := results[ci][p].FilesPerSec()
			tc = append(tc, f1(fps))
			sc = append(sc, fx(fps/base))
		}
		thr.AddRow(tc...)
		spd.AddRow(sc...)
	}
	thr.Notes = append(thr.Notes,
		"stripe unit = group size (64 KB): every explicit group lives on one spindle, and",
		"consecutive groups round-robin, so clustered writes and group readahead fan out")
	return []Table{thr, spd, bal}, nil
}
