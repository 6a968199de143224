package bench

import (
	"fmt"

	"cffs/internal/core"
	"cffs/internal/obs"
	"cffs/internal/workload"
)

// namespaceCacheBlocks sizes the buffer cache for one scale of the
// namespace experiment: a fixed fraction (1/4) of the namespace's own
// metadata footprint. Holding the cache-to-namespace ratio constant
// across the two scales keeps the miss rates comparable, so the gated
// req/op ratio measures how many blocks one operation *touches* — the
// quantity the directory index bounds — rather than which scale
// happens to fit in a fixed-size cache.
func namespaceCacheBlocks(files, nDirs int) int {
	nsBlocks := files/14 + 4*nDirs + 16 // dir entry blocks + index + root/slack
	cache := nsBlocks / 4
	if cache < 16 {
		cache = 16
	}
	return cache
}

// The namespace bounds. namespaceRatioGate: requests per operation in
// the resolve and scan phases may grow at most 1.5x while the file
// count grows 100x. namespaceResolveMax is the absolute complement: a
// resolve is two component lookups, and with hash-indexed directories
// each costs at most one cold probe chain, so a full-path walk must
// average no more than 2 requests at either scale. Linear directory
// scans measure ~5 req/op here (the per-directory scan dominates, and
// the cache hides the growing root at both scales equally — which is
// also why the absolute bound is needed: the ratio alone stays flat
// even without the index).
const (
	namespaceRatioGate  = 1.5
	namespaceResolveMax = 2.0
)

var namespaceGates = []Gate{
	{"namespace", fmt.Sprintf("resolve and scan req/op grow at most %.1fx while files grow 100x", namespaceRatioGate),
		func(p *Probe) {
			for _, phase := range []string{"resolve", "scan"} {
				small, big := p.Cell("namespace", "req/op (small)", phase), p.Cell("namespace", "req/op (big)", phase)
				if small > 0 {
					p.AtMost(phase+" req/op growth", big/small, namespaceRatioGate)
				}
			}
		}},
	{"namespace", fmt.Sprintf("a full-path resolve costs at most %.1f requests at either scale (indexed ~1.1; linear ~5)", namespaceResolveMax),
		func(p *Probe) {
			for _, col := range []string{"req/op (small)", "req/op (big)"} {
				p.AtMost("resolve "+col, p.Cell("namespace", col, "resolve"), namespaceResolveMax)
			}
		}},
	{"namespace-pathcache", "the path cache took inserts, and a component lookup stays under 1 request, at both scales",
		func(p *Probe) {
			for _, scale := range []string{"small", "big"} {
				p.AtLeast(scale+" path-cache inserts", p.Cell("namespace-pathcache", "inserts", scale), 1)
				if lk := p.PerOp(scale, "lookup"); lk.Ops == 0 || lk.RequestsPerOp >= 1 {
					p.Failf("%s lookup: %d ops at %.2f req/op", scale, lk.Ops, lk.RequestsPerOp)
				}
			}
		}},
}

// NamespaceExp measures the namespace at a million files: the directory
// index and the full-path cache under a pure-metadata workload. It runs
// the same tree shape at two scales 100x apart — the per-directory fan
// stays fixed at 256 files, so what grows is the number of directories
// and with it the root directory itself — and gates the ratio of
// requests per operation between them. Phases per scale: populate
// (creates), resolve (random distinct full-path walks plus a deep
// chain), scan (readdir + stat of every entry).
func NamespaceExp(cfg Config) ([]Table, error) {
	cfg = cfg.fill()
	small := cfg.NumFiles     // default 10000
	big := 100 * cfg.NumFiles // default 1000000
	scales := []struct {
		label string
		files int
	}{
		{"small", small},
		{"big", big},
	}

	main := Table{
		ID: "namespace",
		Title: fmt.Sprintf("Million-file namespace: %d vs %d files (C-FFS delayed, indexed dirs + path cache, cache = namespace/4)",
			small, big),
		Columns: []string{"phase", "ops (small)", "req/op (small)", "ops (big)", "req/op (big)", "ratio"},
	}
	pc := Table{
		ID:      "namespace-pathcache",
		Title:   "Path cache activity (whole run)",
		Columns: []string{"scale", "hits", "misses", "inserts", "invalidations", "evictions"},
	}

	results := make([]workload.NamespaceResult, len(scales))
	for si, sc := range scales {
		r := obs.NewRegistry()
		nDirs := (sc.files + 255) / 256
		vcfg := cfg
		vcfg.CacheBlocks, vcfg.Registry = namespaceCacheBlocks(sc.files, nDirs), r
		fs, _, err := coreVariant("C-FFS", true, true).Build(vcfg, core.ModeDelayed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.label, err)
		}
		res, err := workload.RunNamespace(fs, workload.NamespaceConfig{
			NumFiles: sc.files,
			WalkOps:  sc.files / 4,
			Seed:     cfg.Seed,
			Registry: r,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.label, err)
		}
		results[si] = res
		s := r.Snapshot()
		pc.AddRow(sc.label,
			fmt.Sprintf("%d", s.Counter("core.pathcache.hits")),
			fmt.Sprintf("%d", s.Counter("core.pathcache.misses")),
			fmt.Sprintf("%d", s.Counter("core.pathcache.inserts")),
			fmt.Sprintf("%d", s.Counter("core.pathcache.invalidations")),
			fmt.Sprintf("%d", s.Counter("core.pathcache.evictions")))
		cfg.Metrics.add(variantMetricsFrom(sc.label, s, res.Phases))
	}

	reqPerOp := func(p workload.PhaseResult) float64 {
		if p.Files == 0 {
			return 0
		}
		return float64(p.Disk.Requests) / float64(p.Files)
	}
	for pi := range results[0].Phases {
		ps, pb := results[0].Phases[pi], results[1].Phases[pi]
		rs, rb := reqPerOp(ps), reqPerOp(pb)
		ratio := 0.0
		if rs > 0 {
			ratio = rb / rs
		}
		main.AddRow(ps.Name,
			fmt.Sprintf("%d", ps.Files), f2(rs),
			fmt.Sprintf("%d", pb.Files), f2(rb),
			fx(ratio))
	}
	main.Notes = append(main.Notes,
		"per-directory fan is fixed (256 files), so the growing structure is the root directory;",
		"the hash index keeps every lookup O(1) in directory size",
		"resolve walks distinct random paths, so path-cache repeat hits cannot flatter either scale")
	return []Table{main, pc}, nil
}
