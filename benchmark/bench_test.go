package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declared `json:"end_to_end"`
	PerLayer   []declared `json:"per_layer"`
}

type declared struct {
	Name   string
	Unit   string
	Better string
	Bound  *float64
}

func loadDeclared(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclarationsAgree holds BENCHMARK.json and spec.go to one list of
// workloads and metrics, with the driver's naming rules.
func TestDeclarationsAgree(t *testing.T) {
	b := loadDeclared(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, spec.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q (or their why differs)", i, b.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.name)
		}
	}
	check := func(kind string, got []declared, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, spec.go %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go %s %s %s", kind, i, g, m.name, m.unit, m.better)
			}
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) || seen[m.name] {
				t.Errorf("%s %q: bad or repeated name, or bad unit %q", kind, m.name, m.unit)
			}
			seen[m.name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("%s %q: bound must be in (0, 0.25] and agree", kind, m.name)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q: per-layer metrics have no bound", kind, m.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d or paths %v out of contract", b.RunSeconds, b.Paths)
	}
}

func TestHistWithinOnePercent(t *testing.T) {
	for v := int64(1); v < 1<<39; v = v*21/20 + 1 {
		low, width := histBounds(histIndex(v))
		if v < low || v >= low+width {
			t.Fatalf("%d landed in bucket [%d, %d)", v, low, low+width)
		}
		if mid := float64(low) + float64(width-1)/2; math.Abs(mid-float64(v))/float64(v) > 0.01 {
			t.Fatalf("%d: bucket mid-point %v is more than 1%% away", v, mid)
		}
	}
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.record(v * 1000)
	}
	if p := h.quantile(0.5); math.Abs(p-500e3)/500e3 > 0.01 {
		t.Errorf("median of 1..1000 us = %v ns", p)
	}
	if p := h.tail(); math.Abs(p-990e3)/990e3 > 0.01 {
		t.Errorf("p99 of 1..1000 us = %v ns", p)
	}
}

var simMetrics = []string{"sim_ops_per_s", "dev_reqs_per_op", "dev_kb_per_op"}

// TestQuickRun is the smoke test: every declared workload runs untraced
// and traced at a tenth of the scale and emits every declared metric;
// the one-client workloads repeat their simulated-clock metrics exactly
// for one seed, and another seed changes the op stream.
func TestQuickRun(t *testing.T) {
	p := params{seed: 7, seconds: 0.3, rounds: 2, setups: 1, quick: true}
	for i := range workloads {
		def := &workloads[i]
		res, err := untracedRun(def, p)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d: %v", def.name, res.Attempted, res.Failed, res.Problems)
		}
		for _, m := range endToEnd {
			v, ok := res.Values[m.name]
			if !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v); it must be a positive number", def.name, m.name, v, ok)
			}
		}

		if def.clients == 1 {
			again, err := untracedRun(def, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range simMetrics {
				if res.Values[name] != again.Values[name] {
					t.Errorf("%s: %s = %v, then %v with the same seed", def.name, name, res.Values[name], again.Values[name])
				}
			}
		}

		traced, err := tracedRun(def, p)
		if err != nil {
			t.Fatal(err)
		}
		if !traced.Correct {
			t.Errorf("%s traced: failed %d of %d: %v", def.name, traced.Failed, traced.Attempted, traced.Problems)
		}
		for _, m := range perLayer {
			v, ok := traced.Values[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v)", def.name, m.name, v, ok)
			}
		}
		if len(traced.spans) == 0 {
			t.Errorf("%s: the traced pass kept no span records", def.name)
		}
	}

	other := p
	other.seed++
	a, err := untracedRun(findWorkload("flash_churn"), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := untracedRun(findWorkload("flash_churn"), other)
	if err != nil {
		t.Fatal(err)
	}
	if a.Values["dev_kb_per_op"] == b.Values["dev_kb_per_op"] {
		t.Errorf("flash_churn moves %v KB/op under seeds %d and %d: the op stream ignores the seed", a.Values["dev_kb_per_op"], p.seed, other.seed)
	}
	if string(newPattern(p.seed).ring) == string(newPattern(other.seed).ring) {
		t.Error("file contents ignore the seed")
	}
}
