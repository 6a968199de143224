package bench

import (
	"fmt"
	"sort"
)

// Experiment is a named, runnable reproduction of one or more of the
// paper's tables/figures. Run fails only when the experiment could not
// be run; whether its numbers are acceptable is what Gates declares.
type Experiment struct {
	Name  string
	Brief string
	Run   func(Config) ([]Table, error)
	Gates []Gate
}

// Experiments returns the registry, sorted by name.
func Experiments() []Experiment {
	exps := []Experiment{
		{"table1", "Table 1: characteristics of three 1996 disk drives", Table1, nil},
		{"table2", "Table 2: the ST31200 testbed disk", Table2, nil},
		{"fig2", "Figure 2: access time vs request size", Figure2, nil},
		{"smallfile-sync", "Figures 4+5: small-file benchmark, synchronous metadata", Figure4, smallfileGates},
		{"smallfile-delayed", "Figure 6: small-file benchmark, soft updates emulated", Figure6, nil},
		{"sizesweep", "Figure 7: throughput vs file size", Figure7, nil},
		{"aging", "Section 4.3: benchmark on aged file systems", AgingExp, nil},
		{"apps", "Section 4.4: software-development applications", Apps, nil},
		{"dirsize", "Directory growth and attribute scans under embedded inodes", DirSize, nil},
		{"largefile", "Large-file bandwidth is unchanged", LargeFile, nil},
		{"sched", "Ablation: C-LOOK vs FCFS", SchedulerAblation, nil},
		{"cache", "Ablation: buffer cache size", CacheSweep, nil},
		{"drives", "Ablation: drive generations", DriveSweep, nil},
		{"immediate", "Extension: immediate files [Mullender84]", Immediate, nil},
		{"readahead", "Extension: sequential prefetching", Readahead, nil},
		{"postmark", "PostMark-style transaction churn", Postmark, nil},
		{"profile", "Read-phase request profile (the mechanism made visible)", ProfileExp, nil},
		{"lfs", "LFS comparison: log order vs namespace order [Rosenblum92]", LFSExp, nil},
		{"softupdates", "Metadata integrity cost in isolation [Ganger94]", SoftUpdates, nil},
		{"recovery", "Crash-point enumeration: fsck repair and recovery time", RecoveryExp, nil},
		{"writeback", "Async write-behind: sync vs async mounts, dirty-limit sweep", WritebackExp, writebackGates},
		{"scaling", "Striped multi-disk scaling: 1/2/4/8 spindles", ScalingExp, scalingGates},
		{"namespace", "Million-file namespace: indexed directories and the path cache at scale", NamespaceExp, namespaceGates},
		{"ssd", "Backend matrix: disk vs flash, fresh vs aged — where the C-FFS bet breaks", SSDExp, ssdGates},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].Name < exps[j].Name })
	return exps
}

// ByName finds an experiment. "smallfile" is accepted as an alias for
// "smallfile-sync", the paper's headline benchmark.
func ByName(name string) (Experiment, error) {
	if name == "smallfile" {
		name = "smallfile-sync"
	}
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (try: %v)", name, names())
}

func names() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.Name)
	}
	return out
}
