// Command benchmark is the repository's one benchmark: five named
// workloads, ten end-to-end metrics on two named clocks (sim = simulated
// device time, host = wall clock of this process), and a per-layer
// budget timed from outside the layers. See README.md in this directory
// and BENCHMARK.json at the repo root.
//
//	go run ./benchmark [-workload name] [-seed N] [-seconds S] [-trace 0|1]
//	                   [-json out] [-spans file] [-aa] [-quick]
//
// With -workload it measures that one workload and prints, as its last
// line, the one-line JSON result the driver reads; without, it runs all
// five and prints a table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// result is one measured workload, untraced (end-to-end metrics) or
// traced (per-layer metrics).
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Samples   int64              `json:"latency_samples"`
	Rounds    []float64          `json:"rounds_ops_per_s,omitempty"`
	Values    map[string]float64 `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`

	spans []spanRec
}

// defs is the metric list the result carries.
func (res *result) defs() []metricDef {
	if res.Traced {
		return perLayer
	}
	return endToEnd
}

// untracedRun produces the end-to-end metrics for one workload.
func untracedRun(def *workloadDef, p params) (*result, error) {
	r := newRun(def, p, variant{})
	if err := r.measure(); err != nil {
		return nil, err
	}
	res := &result{Workload: def.name, Values: r.endToEndValues(), Rounds: r.roundOpsPerS(),
		Samples: r.total().lat.n, Problems: r.problems}
	res.Attempted, res.Failed = r.attempted()
	res.Correct = res.Failed == 0
	return res, nil
}

func measure(def *workloadDef, p params, traced bool) (*result, error) {
	if !traced {
		return untracedRun(def, p)
	}
	res, err := tracedRun(def, p)
	if err == nil && p.spans != "" {
		err = writeSpans(p.spans, def.name, res.spans)
	}
	return res, err
}

// driverLine is the last line of output under -workload.
func driverLine(res *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, m := range res.defs() {
		metrics[m.name] = mv{res.Values[m.name], m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

func printResult(res *result) {
	for _, m := range res.defs() {
		fmt.Printf("%-12s %-36s %14.4f %-6s %s\n", res.Workload, m.name, res.Values[m.name], m.unit, m.clock)
	}
	fmt.Printf("%-12s attempted %d, failed %d, latency samples %d\n", res.Workload, res.Attempted, res.Failed, res.Samples)
	for _, p := range res.Problems {
		fmt.Printf("%-12s PROBLEM: %s\n", res.Workload, p)
	}
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runAll measures every workload, untraced and (when asked) traced.
func runAll(p params, traced bool) ([]*result, error) {
	var out []*result
	passes := []bool{false}
	if traced {
		passes = append(passes, true)
	}
	for i := range workloads {
		for _, tr := range passes {
			res, err := measure(&workloads[i], p, tr)
			if err != nil {
				return nil, err
			}
			printResult(res)
			out = append(out, res)
		}
	}
	return out, nil
}

// compareAA prints how far two runs of the same code are apart on every
// workload x end-to-end metric, beside the bound, and applies the
// driver's rule: the second run may not be worse than the first by more
// than the bound. Positive means the second run was worse.
func compareAA(a, b []*result) bool {
	ok := true
	fmt.Printf("\n%-12s %-16s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "worse by", "bound")
	for i := range a {
		for _, m := range endToEnd {
			x, y := a[i].Values[m.name], b[i].Values[m.name]
			worse := ratio(y-x, x)
			if m.better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > m.bound {
				mark, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-12s %-16s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", a[i].Workload, m.name, x, y, 100*worse, 100*m.bound, mark)
		}
	}
	return ok
}

func main() {
	var (
		workload = flag.String("workload", "", "measure one workload ("+strings.Join(workloadNames(), ", ")+") and end with the driver's JSON line")
		seed     = flag.Uint64("seed", 42, "seed of every generated input")
		seconds  = flag.Float64("seconds", 15, "measured seconds per workload, split into rounds")
		trace    = flag.Int("trace", 0, "1: traced pass, per-layer metrics; 0: untraced pass, end-to-end metrics")
		jsonOut  = flag.String("json", "", "write the full report to this file")
		spans    = flag.String("spans", "", "with -trace 1: append the sampled span records to this file")
		aa       = flag.Bool("aa", false, "run the untraced benchmark twice and compare the runs against the bounds")
		quick    = flag.Bool("quick", false, "smoke test: a tenth of the files, 0.5 s rounds")
	)
	flag.Parse()
	p := params{seed: *seed, seconds: *seconds, rounds: 10, setups: 5, quick: *quick, spans: *spans}
	if *quick {
		p.seconds, p.rounds, p.setups = 1.5, 3, 1
	}
	if flag.NArg() > 0 || p.seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	var results []*result
	var err error
	ok, lastLine := true, ""
	switch {
	case *workload != "":
		def := findWorkload(*workload)
		if def == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		var res *result
		if res, err = measure(def, p, *trace == 1); err == nil {
			results = []*result{res}
			printResult(res)
			lastLine = driverLine(res)
		}
	case *aa:
		var second []*result
		if results, err = runAll(p, false); err == nil {
			if second, err = runAll(p, false); err == nil {
				ok = compareAA(results, second)
				results = append(results, second...)
			}
		}
	default:
		results, err = runAll(p, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, p, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	for _, res := range results {
		ok = ok && res.Correct
	}
	if lastLine != "" {
		fmt.Println(lastLine)
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func writeReport(path string, p params, results []*result) error {
	sort.SliceStable(results, func(i, j int) bool { return results[i].Workload < results[j].Workload })
	b, err := json.MarshalIndent(struct {
		Seed    uint64    `json:"seed"`
		Seconds float64   `json:"seconds"`
		Quick   bool      `json:"quick"`
		Results []*result `json:"results"`
	}{p.seed, p.seconds, p.quick, results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
