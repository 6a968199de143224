package bench

import (
	"fmt"

	"cffs/internal/core"
	"cffs/internal/obs"
	"cffs/internal/sim"
	"cffs/internal/ssd"
	"cffs/internal/vfs"
	"cffs/internal/workload"
)

// The bounds of the SSD experiment: the matrix exists to state, with
// gates rather than prose, which C-FFS gains survive the move from
// mechanical disk to flash and which evaporate.
//
// Survives — request batching: each flash request still pays a fixed
// cost, so grouping a directory's files into few large transfers keeps
// paying. FFS must issue at least ssdReqAdvantageMin times the C-FFS
// create-phase requests per operation on the ssd backend, fresh and
// aged. (Measured: ~8x, fresh and aged alike, at quick scale.)
//
// Survives — ordered-write counts: the write stream is a property of
// the file system, not the device, so an embedded create must cost
// exactly one ordered write and a conventional create exactly two on
// both backends (checked exactly, no constant needed).
//
// Evaporates — seek locality: with no positioning state, placement
// buys nothing per request, so on a serial request stream (the matrix
// pins the ssd cells to one channel) the read speedup falls to what the
// request-count reduction alone explains. The C-FFS/conventional read
// speedup on ssd must be at most ssdSpeedupShrink of the same ratio on
// the disk. (Measured: disk ~13.6x, ssd ~2.2x at quick scale.) With
// all eight channels the grouped reads win big again — but as striped
// parallel transfers (the channel sweep), not as locality.
//
// The FTL's own axis: write amplification must respond to GC pressure —
// strictly more spare area means strictly less migration — and an aged
// device must actually show amplification (writeamp_x100 > 100) with GC
// runs recorded in the ssd.* metric families.
const (
	ssdReqAdvantageMin = 2.0  // FFS req/op over C-FFS req/op on flash, create phase
	ssdSpeedupShrink   = 0.75 // ssd read speedup as a fraction of disk read speedup
	ssdAgedWriteAmpMin = 102  // writeamp_x100 floor for aged ssd cells
)

var ssdGates = []Gate{
	{"ssd-matrix", fmt.Sprintf("FFS/C-FFS create req/op >= %.1fx on ssd, fresh and aged (batching survives)", ssdReqAdvantageMin),
		func(p *Probe) {
			for _, state := range []string{"fresh", "aged"} {
				ffs, cffs := p.Cell("ssd-matrix", "FFS create req/op", "ssd", state), p.Cell("ssd-matrix", "C-FFS create req/op", "ssd", state)
				p.AtLeast("ssd "+state+" FFS/C-FFS create req/op", ffs/cffs, ssdReqAdvantageMin)
			}
		}},
	// The fresh cells give the clean comparison (aging shrinks the disk
	// speedup on its own, which would flatter this gate).
	{"ssd-matrix", fmt.Sprintf("fresh ssd read speedup <= %.0f%% of fresh disk read speedup (seek locality evaporates)", 100*ssdSpeedupShrink),
		func(p *Probe) {
			speedup := func(backend string) float64 {
				return p.Cell("ssd-matrix", "C-FFS read (f/s)", backend, "fresh") / p.Cell("ssd-matrix", "conv read (f/s)", backend, "fresh")
			}
			p.AtMost("ssd/disk read-speedup ratio", speedup("ssd")/speedup("disk"), ssdSpeedupShrink)
		}},
	{"ssd-ftl", fmt.Sprintf("ssd cells carry the ssd.* families; the aged C-FFS cell shows gc runs > 0 and writeamp_x100 >= %d", ssdAgedWriteAmpMin),
		func(p *Probe) {
			for _, cell := range []string{"ssd-fresh/C-FFS", "ssd-fresh/FFS", "ssd-aged/C-FFS", "ssd-aged/FFS"} {
				p.Counter(cell, "ssd.gc.runs")
				p.Counter(cell, "ssd.writeamp_x100")
			}
			p.AtLeast("ssd-aged/C-FFS ssd.gc.runs", float64(p.Counter("ssd-aged/C-FFS", "ssd.gc.runs")), 1)
			p.AtLeast("ssd-aged/C-FFS ssd.writeamp_x100", float64(p.Counter("ssd-aged/C-FFS", "ssd.writeamp_x100")), ssdAgedWriteAmpMin)
		}},
	// Both file systems discard what they free (PR 23). The gate holds the
	// two ends of that: the discards do reach the FTL, and they are no
	// whole-device erase — the aged device is still an aged device.
	{"ssd-ftl", fmt.Sprintf("the aged C-FFS cell shows ssd.trims > 0 and still writeamp_x100 >= %d (discards reach the FTL and leave it aged)", ssdAgedWriteAmpMin),
		func(p *Probe) {
			p.AtLeast("ssd-aged/C-FFS ssd.trims", float64(p.Counter("ssd-aged/C-FFS", "ssd.trims")), 1)
			p.AtLeast("ssd-aged/C-FFS ssd.writeamp_x100", float64(p.Counter("ssd-aged/C-FFS", "ssd.writeamp_x100")), ssdAgedWriteAmpMin)
		}},
	{"ssd-channels", "create throughput at 8 channels does not trail 1 channel (batched write-back scales with channels)",
		func(p *Probe) {
			p.AtLeast("create f/s at 8 channels", p.Cell("ssd-channels", "create (f/s)", "8"), p.Cell("ssd-channels", "create (f/s)", "1"))
		}},
	{"ssd-gc", "write amplification and erase count fall strictly from 5% to 25% over-provisioning",
		func(p *Probe) {
			for _, col := range []string{"write amp", "erases"} {
				p.Rising(col+" at 25.0%, 5.0%", p.Cell("ssd-gc", col, "25.0%"), p.Cell("ssd-gc", col, "5.0%"))
			}
		}},
	{"ssd-ordered", "exact: an embedded create is 1 ordered write, a conventional create 2, on disk and ssd alike",
		func(p *Probe) {
			for _, backend := range []string{"disk", "ssd"} {
				if c, conv := p.Cell("ssd-ordered", backend, "C-FFS"), p.Cell("ssd-ordered", backend, "conventional"); c != 1 || conv != 2 {
					p.Failf("ordered writes per create on %s: C-FFS %.0f, conventional %.0f", backend, c, conv)
				}
			}
		}},
}

// matrixVariants are the file systems the backend matrix compares: the
// paper's endpoints plus the independent FFS baseline the req/op gate
// needs.
func matrixVariants() []fsVariant {
	return []fsVariant{
		coreVariant("conventional", false, false),
		coreVariant("C-FFS", true, true),
		ffsVariant(),
	}
}

// cellMeas is one (backend, age, variant) measurement: the four-phase
// results and the registry delta covering exactly the measured workload
// (aging churn, when present, is excluded by the delta).
type cellMeas struct {
	res  []workload.PhaseResult
	snap obs.Snapshot
}

// SSDExp is the backend matrix: the small-file benchmark on disk vs
// flash, fresh vs aged, with FTL accounting, a channel-count sweep, a
// GC-pressure sweep, and an exact ordered-write probe. Every claim the
// matrix makes about where the C-FFS bet breaks is a gate in ssdGates.
func SSDExp(cfg Config) ([]Table, error) {
	cfg = cfg.fill()
	n := max(400, cfg.NumFiles/2)
	dirs := max(4, cfg.Dirs/2)

	cells := []struct {
		backend string
		aged    bool
	}{
		{"disk", false},
		{"disk", true},
		{"ssd", false},
		{"ssd", true},
	}
	state := func(aged bool) string {
		if aged {
			return "aged"
		}
		return "fresh"
	}

	matrix := Table{
		ID: "ssd-matrix",
		Title: fmt.Sprintf("Small-file benchmark across the backend matrix (delayed metadata; %d files of %d B)",
			n, cfg.FileSize),
		Columns: []string{"backend", "state", "C-FFS create (f/s)", "conv read (f/s)", "C-FFS read (f/s)",
			"read speedup", "C-FFS create req/op", "FFS create req/op", "FFS/C-FFS"},
	}
	ftlT := Table{
		ID:      "ssd-ftl",
		Title:   "FTL accounting during the measured workload (ssd cells)",
		Columns: []string{"state", "variant", "host pages", "gc runs", "pages moved", "erases", "writeamp x100", "free blocks"},
	}

	all := make([]map[string]cellMeas, len(cells))
	for ci, c := range cells {
		all[ci] = make(map[string]cellMeas)
		cellName := c.backend + "-" + state(c.aged)
		for _, v := range matrixVariants() {
			vcfg := cfg
			vcfg.Backend = c.backend
			vcfg.Aged = c.aged
			vcfg.Registry = obs.NewRegistry()
			if c.backend == "ssd" {
				// One channel: the matrix times the serial request stream,
				// so the read-speedup comparison isolates what placement
				// locality is worth when every request costs the same
				// regardless of address. Channel parallelism — the axis
				// that lets grouped contiguous reads win again as big
				// striped transfers — is measured by the channel sweep.
				vcfg.Channels = 1
			}
			fs, _, err := v.Build(vcfg, core.ModeDelayed)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", cellName, v.Name, err)
			}
			pre := vcfg.Registry.Snapshot()
			res, err := workload.RunSmallFile(fs, workload.SmallFileConfig{
				NumFiles: n, FileSize: cfg.FileSize, Dirs: dirs, Seed: cfg.Seed,
				Registry: vcfg.Registry,
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", cellName, v.Name, err)
			}
			snap := vcfg.Registry.Snapshot().Delta(pre)
			all[ci][v.Name] = cellMeas{res: res, snap: snap}
			cfg.Metrics.add(variantMetricsFrom(cellName+"/"+v.Name, snap, res))
		}
	}

	reqPerOp := func(p workload.PhaseResult) float64 {
		if p.Files == 0 {
			return 0
		}
		return float64(p.Disk.Requests) / float64(p.Files)
	}
	for ci, c := range cells {
		conv, cffs, ffsM := all[ci]["conventional"], all[ci]["C-FFS"], all[ci]["FFS"]
		sp := cffs.res[1].FilesPerSec() / conv.res[1].FilesPerSec()
		cffsReq, ffsReq := reqPerOp(cffs.res[0]), reqPerOp(ffsM.res[0])
		matrix.AddRow(c.backend, state(c.aged),
			f1(cffs.res[0].FilesPerSec()),
			f1(conv.res[1].FilesPerSec()), f1(cffs.res[1].FilesPerSec()), fx(sp),
			f2(cffsReq), f2(ffsReq), fx(ffsReq/cffsReq))

		if c.backend == "ssd" {
			for _, name := range []string{"conventional", "C-FFS", "FFS"} {
				m := all[ci][name]
				ftlT.AddRow(state(c.aged), name,
					fmt.Sprintf("%d", m.snap.Counter("ssd.pages.host")),
					fmt.Sprintf("%d", m.snap.Counter("ssd.gc.runs")),
					fmt.Sprintf("%d", m.snap.Counter("ssd.gc.pages_moved")),
					fmt.Sprintf("%d", m.snap.Counter("ssd.gc.erases")),
					fmt.Sprintf("%d", m.snap.Gauges["ssd.writeamp_x100"]),
					fmt.Sprintf("%d", m.snap.Gauges["ssd.blocks.free"]))
			}
		}
	}
	matrix.Notes = append(matrix.Notes,
		"aged runs churn via internal/aging first; metrics deltas cover only the measured phases")

	chT, err := ssdChannelSweep(cfg)
	if err != nil {
		return nil, err
	}
	gcT, err := ssdGCSweep(cfg)
	if err != nil {
		return nil, err
	}
	ordT, err := ssdOrderedProbe(cfg)
	if err != nil {
		return nil, err
	}
	return []Table{matrix, ftlT, chT, gcT, ordT}, nil
}

// ssdChannelSweep runs the C-FFS small-file benchmark on the flash
// backend at increasing channel counts. Only the batched delayed writes
// can exploit channel parallelism (the serial request stream cannot),
// so the create phase — which ends in a clustered write-back — must not
// get slower as channels are added, and the sweep shows how much of the
// win batching alone is.
func ssdChannelSweep(cfg Config) (Table, error) {
	t := Table{
		ID:      "ssd-channels",
		Title:   "C-FFS on flash vs channel count (delayed metadata)",
		Columns: []string{"channels", "create (f/s)", "read (f/s)", "delete (f/s)"},
	}
	n := max(200, cfg.NumFiles/4)
	dirs := max(4, cfg.Dirs/4)
	for _, ch := range []int{1, 2, 4, 8} {
		vcfg := cfg
		vcfg.Backend = "ssd"
		vcfg.Channels = ch
		vcfg.Aged = false
		res, err := coreVariant("C-FFS", true, true).smallFile(vcfg, core.ModeDelayed, n, cfg.FileSize, dirs)
		if err != nil {
			return t, fmt.Errorf("ssd channels=%d: %w", ch, err)
		}
		t.AddRow(fmt.Sprintf("%d", ch),
			f1(res[0].FilesPerSec()), f1(res[1].FilesPerSec()), f1(res[3].FilesPerSec()))
	}
	return t, nil
}

// ssdGCSweep measures the FTL in isolation: random single-page
// overwrites on a small pre-dirtied device at three over-provisioning
// levels. More spare area means the greedy collector finds emptier
// victims, so write amplification and erase counts must fall strictly
// as over-provisioning grows — the knob the matrix's "aged" cells sit
// at one end of.
func ssdGCSweep(cfg Config) (Table, error) {
	t := Table{
		ID:      "ssd-gc",
		Title:   "FTL garbage collection vs over-provisioning (random overwrites, pre-dirtied device)",
		Columns: []string{"over-provision", "write amp", "pages moved", "erases", "max erase", "mean write (us)"},
	}
	const capacity = 32 << 20
	writes := 2 * capacity / ssd.DefaultSpec().PageBytes
	if cfg.Quick {
		writes /= 4
	}
	for _, op := range []float64{0.05, 0.125, 0.25} {
		spec := ssd.DefaultSpec()
		spec.OverProvision = op
		spec.PreDirty = true
		clk := sim.NewClock()
		dev, err := ssd.NewMem(spec, clk, capacity)
		if err != nil {
			return t, err
		}
		rng := sim.NewRNG(cfg.Seed + 0x55d)
		buf := make([]byte, spec.PageBytes)
		pages := int64(capacity / spec.PageBytes)
		spp := int64(spec.PageBytes / 512)
		for i := 0; i < writes; i++ {
			if err := dev.WriteV(rng.Int63n(pages)*spp, [][]byte{buf}); err != nil {
				return t, err
			}
		}
		st := dev.FTL()
		t.AddRow(fmt.Sprintf("%.1f%%", op*100), f2(st.WriteAmp),
			fmt.Sprintf("%d", st.Moved), fmt.Sprintf("%d", st.Erases),
			fmt.Sprintf("%d", st.MaxErase),
			f1(float64(clk.Now())/float64(writes)/1e3))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d random page overwrites per level on a pre-dirtied 32 MB device", writes))
	return t, nil
}

// ssdOrderedProbe measures the survival claim exactly: under synchronous
// metadata, an embedded create is one ordered write and a conventional
// create is two, and those counts are identical on disk and flash —
// the write stream belongs to the file system, not the device.
func ssdOrderedProbe(cfg Config) (Table, error) {
	t := Table{
		ID:      "ssd-ordered",
		Title:   "Ordered writes per create, synchronous metadata (exact)",
		Columns: []string{"variant", "disk", "ssd"},
	}
	for _, v := range pair() {
		var got [2]int64
		for bi, backend := range []string{"disk", "ssd"} {
			vcfg := cfg
			vcfg.Backend = backend
			vcfg.Aged = false
			fs, dev, err := v.Build(vcfg, core.ModeSync)
			if err != nil {
				return t, fmt.Errorf("%s/%s: %w", backend, v.Name, err)
			}
			// Warm the allocation path so the probe create is pure.
			if err := vfs.WriteFile(fs, "/warm", nil); err != nil {
				return t, err
			}
			dev.Disk().ResetStats()
			if err := vfs.WriteFile(fs, "/probe", nil); err != nil {
				return t, err
			}
			got[bi] = dev.Disk().Stats().Writes
		}
		t.AddRow(v.Name, fmt.Sprintf("%d", got[0]), fmt.Sprintf("%d", got[1]))
	}
	return t, nil
}
