// Command cffsbench runs the reproduction experiments and prints the
// paper's tables and figures as text.
//
// Usage:
//
//	cffsbench [-exp name] [-backend name] [-drive name] [-sched clook|fcfs]
//	          [-files N] [-size bytes] [-dirs N] [-cache blocks] [-seed N]
//	          [-quick] [-aged] [-channels N] [-metrics-json path]
//	cffsbench -list
//
// With no -exp, every experiment runs in sequence (the full run takes a
// few minutes of real time; pass -quick for a fast pass). Every run
// evaluates the experiment's declared gates (bench.Experiment.Gates):
// the tables are printed, and a violated gate exits non-zero.
//
// -metrics-json writes the machine-readable report: with -exp it goes to
// exactly the given path; without -exp the path names a directory that
// receives one BENCH_<name>.json per experiment.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cffs/internal/bench"
	"cffs/internal/obs"
	"cffs/internal/obs/expo"
	"cffs/internal/store"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment to run (default: all)")
		list    = flag.Bool("list", false, "list experiments and exit")
		backend = flag.String("backend", "", `store backend: `+strings.Join(store.Names(), ", ")+` (default "disk")`)
		drive   = flag.String("drive", "", `disk model (default "Seagate ST31200")`)
		sch     = flag.String("sched", "", `scheduler: "clook" or "fcfs"`)
		files   = flag.Int("files", 0, "small-file benchmark file count (default 10000)")
		size    = flag.Int("size", 0, "small-file size in bytes (default 1024)")
		dirs    = flag.Int("dirs", 0, "directories for the small-file benchmark (default 100)")
		cache   = flag.Int("cache", 0, "buffer cache size in 4K blocks (default 2048)")
		seed    = flag.Uint64("seed", 0, "workload seed (default 42)")
		quick   = flag.Bool("quick", false, "shrink workloads ~10x")
		aged    = flag.Bool("aged", false, "age every file system (and the ssd FTL) before measuring")
		chans   = flag.Int("channels", 0, "ssd channel-count override (0 = backend default)")
		mjson   = flag.String("metrics-json", "", "write the JSON report (file with -exp, directory otherwise)")
		expoOn  = flag.String("expo", "", `serve live metrics over HTTP while experiments run (e.g. "127.0.0.1:9130")`)
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-18s %s\n", e.Name, e.Brief)
		}
		return
	}

	cfg := bench.Config{
		Backend:     *backend,
		Drive:       *drive,
		Scheduler:   *sch,
		NumFiles:    *files,
		FileSize:    *size,
		Dirs:        *dirs,
		CacheBlocks: *cache,
		Seed:        *seed,
		Quick:       *quick,
		Aged:        *aged,
		Channels:    *chans,
	}

	if *expoOn != "" {
		// Every variant mounted through the shared registry records into
		// it, so a dashboard scraping /metrics (or /delta) watches the run
		// live. (Experiments whose report carries per-variant metrics give
		// each variant a private registry instead.)
		cfg.Registry = obs.NewRegistry()
		srv := expo.New(expo.Config{Addr: *expoOn, Registry: cfg.Registry})
		addr, err := srv.Start()
		fatal(err)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "cffsbench: exposition server on http://%s/metrics\n", addr)
	}

	exps := bench.Experiments()
	if *exp != "" {
		e, err := bench.ByName(*exp)
		fatal(err)
		exps = []bench.Experiment{e}
	} else if *mjson != "" {
		fatal(os.MkdirAll(*mjson, 0o755))
	}
	for _, e := range exps {
		rep, err := e.Report(cfg)
		if rep.Tables == nil {
			fatal(err) // did not run
		}
		// A report that violated a gate is still printed and written: the
		// numbers that broke the bound are the useful artifact.
		rep.Render(os.Stdout)
		if *mjson != "" {
			path := *mjson
			if *exp == "" {
				path = filepath.Join(path, "BENCH_"+e.Name+".json")
			}
			fatal(writeReport(rep, path))
		}
		fatal(err)
	}
}

func writeReport(rep bench.Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cffsbench:", err)
		os.Exit(1)
	}
}
