package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed BENCH_*.json baselines from this commit's runs")

// TestBaselines is the benchmark trajectory. Every BENCH_*.json in the
// repository root names its own experiment and configuration; the
// experiment is re-run (or taken from this binary's Quick run when that
// is the configuration) and must reproduce the file byte for byte. The
// reports are deterministic on the simulated clock, so any difference
// is a behaviour change: the test prints the cells that moved, and
// `go test ./internal/bench -run TestBaselines -update` rewrites the
// files when the change is deliberate.
func TestBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs the committed experiments")
	}
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed baselines found: %v", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var base Report
			if err := json.Unmarshal(want, &base); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			var rep Report
			if base.Config == quick().fill() {
				rep = quickReport(t, base.Experiment)
			} else if rep, err = RunReport(base.Experiment, base.Config); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := rep.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			diffs := diffReports(base, rep)
			for _, d := range diffs[:min(len(diffs), 40)] {
				t.Error(d)
			}
			t.Fatalf("%s: -exp %s no longer reproduces the committed report (%d values differ); "+
				"rerun with -update if the change is deliberate", filepath.Base(path), base.Experiment, len(diffs))
		})
	}
}

// diffReports names every value that differs between two reports: table
// cells by table id, row and column header, the per-variant metrics by
// variant name and JSON path.
func diffReports(old, new Report) []string {
	a, b := flattenReport(old), flattenReport(new)
	var diffs []string
	for k, av := range a {
		if bv, ok := b[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: %s -> (gone)", k, av))
		} else if av != bv {
			diffs = append(diffs, fmt.Sprintf("%s: %s -> %s", k, av, bv))
		}
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: (new) -> %s", k, bv))
		}
	}
	sort.Strings(diffs)
	return diffs
}

func flattenReport(r Report) map[string]string {
	out := map[string]string{}
	for _, tb := range r.Tables {
		out["table "+tb.ID+" title"] = tb.Title
		out["table "+tb.ID+" notes"] = strings.Join(tb.Notes, " | ")
		for ri, row := range tb.Rows {
			for ci, c := range row {
				out[fmt.Sprintf("table %s row %d (%s) column %d (%s)", tb.ID, ri, row[0], ci, tb.Columns[min(ci, len(tb.Columns)-1)])] = c
			}
		}
	}
	flatten := func(path string, v any) {
		raw, _ := json.Marshal(v)
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber() // print counters as written, not as float64
		var tree any
		dec.Decode(&tree)
		flattenJSON(path, tree, out)
	}
	flatten("config", r.Config)
	for _, v := range r.Variants {
		flatten("variant "+v.Variant, v)
	}
	return out
}

func flattenJSON(path string, v any, out map[string]string) {
	switch v := v.(type) {
	case map[string]any:
		for k, c := range v {
			flattenJSON(path+"."+k, c, out)
		}
	case []any:
		for i, c := range v {
			flattenJSON(fmt.Sprintf("%s[%d]", path, i), c, out)
		}
	default:
		out[path] = fmt.Sprint(v)
	}
}

// TestReferencesResolve keeps the workflow and the docs honest about
// the registry: every `-exp <name>` they mention must be an experiment
// ByName accepts, so deleting one cannot leave a dangling job step or
// doc command behind. It also holds the gate language to one place: the
// workflow carries no inline Python except the recorder-overhead gate
// (a host-clock bound, not an experiment gate) and no benchdiff.
func TestReferencesResolve(t *testing.T) {
	exp := regexp.MustCompile(`-exp[ =]+([A-Za-z0-9_-]+)`)
	for _, file := range []string{".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		data, err := os.ReadFile(filepath.Join("../..", file))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range exp.FindAllSubmatch(data, -1) {
			if _, err := ByName(string(m[1])); err != nil {
				t.Errorf("%s: -exp %s: %v", file, m[1], err)
			}
		}
		if file != ".github/workflows/ci.yml" {
			continue
		}
		if n := bytes.Count(data, []byte("python3 - <<")); n != 1 {
			t.Errorf("%s has %d inline python blocks, want only the recorder-overhead one", file, n)
		}
		if bytes.Contains(data, []byte("benchdiff")) {
			t.Errorf("%s still mentions benchdiff", file)
		}
	}
}
