package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"cffs/internal/obs"
	"cffs/internal/workload"
)

// MetricsLog collects per-variant metrics from metrics-aware
// experiments. Attach one via Config.Metrics; experiments that compare
// file system variants then mount each variant with its own fresh
// registry and append a record here as they finish. Experiments that
// predate the registry simply ignore it, so the log may come back
// empty.
type MetricsLog struct {
	Variants []VariantMetrics `json:"variants"`
}

// add appends one variant's record. Safe on a nil log, so experiments
// can call it unconditionally.
func (l *MetricsLog) add(v VariantMetrics) {
	if l != nil {
		l.Variants = append(l.Variants, v)
	}
}

// VariantMetrics is everything the registry saw while one file system
// variant ran one experiment: the whole-run snapshot, per-phase deltas
// when the workload reports them, and the derived per-operation disk
// request statistics the paper argues about.
type VariantMetrics struct {
	Variant string            `json:"variant"`
	Total   obs.Snapshot      `json:"total"`
	Phases  []PhaseMetrics    `json:"phases,omitempty"`
	PerOp   map[string]OpStat `json:"per_op,omitempty"`
}

// PhaseMetrics is the registry delta covering one benchmark phase.
type PhaseMetrics struct {
	Name    string       `json:"name"`
	Metrics obs.Snapshot `json:"metrics"`
}

// OpStat is the derived per-operation view of a snapshot: how many
// times an operation ran at the vfs boundary against how much disk
// traffic was attributed to it. RequestsPerOp is the paper's "disk
// requests per small-file operation" quantity.
type OpStat struct {
	Ops           int64   `json:"ops"`
	DiskRequests  int64   `json:"disk_requests"`
	DiskReads     int64   `json:"disk_reads"`
	DiskWrites    int64   `json:"disk_writes"`
	Sectors       int64   `json:"sectors"`
	RequestsPerOp float64 `json:"requests_per_op"`
}

// PerOp reduces a snapshot to per-operation disk statistics, keyed by
// operation name. Operations that neither ran nor received traffic are
// omitted; requests the op-context could not attribute appear under
// "none" (with Ops == 0).
func PerOp(s obs.Snapshot) map[string]OpStat {
	out := make(map[string]OpStat)
	for op := obs.OpNone; op < obs.NumOps; op++ {
		name := op.String()
		st := OpStat{
			Ops:          s.Counter("ops." + name),
			DiskRequests: s.Counter("disk.requests." + name),
			DiskReads:    s.Counter("disk.reads." + name),
			DiskWrites:   s.Counter("disk.writes." + name),
			Sectors:      s.Counter("disk.sectors." + name),
		}
		if st.Ops == 0 && st.DiskRequests == 0 {
			continue
		}
		if st.Ops > 0 {
			st.RequestsPerOp = float64(st.DiskRequests) / float64(st.Ops)
		}
		out[name] = st
	}
	return out
}

// variantMetricsFrom assembles a VariantMetrics from a whole-run
// snapshot and the workload's per-phase results.
func variantMetricsFrom(name string, total obs.Snapshot, phases []workload.PhaseResult) VariantMetrics {
	v := VariantMetrics{Variant: name, Total: total, PerOp: PerOp(total)}
	for _, p := range phases {
		v.Phases = append(v.Phases, PhaseMetrics{Name: p.Name, Metrics: p.Metrics})
	}
	return v
}

// Report is the machine-readable result of one experiment run: the
// rendered tables plus, for metrics-aware experiments, the per-variant
// registry contents. It is what `cffsbench -metrics-json` writes and
// what the experiment's gates are evaluated over.
type Report struct {
	Experiment string           `json:"experiment"`
	Config     Config           `json:"config"`
	Tables     []Table          `json:"tables"`
	Variants   []VariantMetrics `json:"variants,omitempty"`
}

// Report runs the experiment with metrics capture on, evaluates its
// gates over the result and renders them into the table notes. A gate
// violation is returned with the complete report, so the numbers that
// broke the bound can still be printed and written.
func (e Experiment) Report(cfg Config) (Report, error) {
	log := &MetricsLog{}
	cfg.Metrics = log
	tables, err := e.Run(cfg)
	if err != nil {
		return Report{}, fmt.Errorf("%s: %w", e.Name, err)
	}
	rep := Report{
		Experiment: e.Name,
		Config:     cfg.fill(),
		Tables:     tables,
		Variants:   log.Variants,
	}
	if err := rep.applyGates(e.Gates); err != nil {
		return rep, fmt.Errorf("%s: %w", e.Name, err)
	}
	return rep, nil
}

// RunReport is Report on the experiment of that name.
func RunReport(name string, cfg Config) (Report, error) {
	e, err := ByName(name)
	if err != nil {
		return Report{}, err
	}
	return e.Report(cfg)
}

// Render writes every table as aligned text.
func (r Report) Render(w io.Writer) {
	for _, t := range r.Tables {
		t.Render(w)
	}
}

// WriteJSON emits the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
