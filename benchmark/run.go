package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// params are the knobs of one invocation.
type params struct {
	seed    uint64
	seconds float64 // measured seconds per run, split evenly into rounds
	rounds  int
	setups  int  // set-ups per run; setup_s is their median
	quick   bool // smoke-test scale: a tenth of the files
	spans   string
}

// instance is one set-up workload. Its stack is r.stk.
type instance interface {
	warm() error                 // bring caches and the Go runtime to steady state; not measured
	round(d time.Duration) error // one timed round of about d
	verify() error               // outside the timers: check what the rounds left behind
	close() error                // stop what set-up started, except the stack
}

// client is one closed-loop caller's measuring state. Only its own
// goroutine touches it while a round runs.
type client struct {
	id          int
	rng         *rng
	th          *tthread // nil in the untraced pass
	h           hist
	ops, failed int64
	last        int64
}

// start opens the first op of a timed stretch.
func (c *client) start() {
	c.last = now()
	c.th.opBegin()
}

// done closes the current op and opens the next: in a closed loop the
// end of one is the start of the other.
func (c *client) done(ok bool) {
	t := now()
	c.h.record(t - c.last)
	c.ops++
	if !ok {
		c.failed++
	}
	c.th.opEnd(c.last, t)
	c.th.opBegin()
	c.last = t
}

// accum is what one timed region, round or phase adds up to.
type accum struct {
	ops, failed    int64
	wallNs         int64
	mallocs, bytes uint64
	simNs          int64
	dev            devCounters
	cacheHits      int64
	cacheMisses    int64
	cachePrefetch  int64
	cacheEvictions int64
	cacheWrites    int64
	ftlHost        int64
	ftlFlash       int64
	ftlMoved       int64
	ftlGCRuns      int64
	ftlMaxErase    int64 // a level, not a delta
	reg            map[string]int64
	regHist        map[string]map[int]int64 // histogram name -> bucket -> count
	lat            hist
}

func newAccum() *accum {
	return &accum{reg: map[string]int64{}, regHist: map[string]map[int]int64{}}
}

// add folds b into a with the given sign; sign -1 turns two snapshots
// into a delta.
func (a *accum) add(b *accum, sign int64) {
	a.ops += sign * b.ops
	a.failed += sign * b.failed
	a.wallNs += sign * b.wallNs
	a.mallocs += uint64(sign) * b.mallocs
	a.bytes += uint64(sign) * b.bytes
	a.simNs += sign * b.simNs
	a.dev.add(b.dev, sign)
	a.cacheHits += sign * b.cacheHits
	a.cacheMisses += sign * b.cacheMisses
	a.cachePrefetch += sign * b.cachePrefetch
	a.cacheEvictions += sign * b.cacheEvictions
	a.cacheWrites += sign * b.cacheWrites
	a.ftlHost += sign * b.ftlHost
	a.ftlFlash += sign * b.ftlFlash
	a.ftlMoved += sign * b.ftlMoved
	a.ftlGCRuns += sign * b.ftlGCRuns
	if b.ftlMaxErase > a.ftlMaxErase {
		a.ftlMaxErase = b.ftlMaxErase
	}
	for k, v := range b.reg {
		a.reg[k] += sign * v
	}
	for k, buckets := range b.regHist {
		dst := a.regHist[k]
		if dst == nil {
			dst = map[int]int64{}
			a.regHist[k] = dst
		}
		for i, n := range buckets {
			dst[i] += sign * n
		}
	}
}

// run is one measurement of one workload on one stack variant.
type run struct {
	def *workloadDef
	p   params
	v   variant
	pat *pattern
	tr  *tracer // nil in the untraced pass

	stk     *stack
	inst    instance
	clients []*client

	acc      *accum            // where timed regions add up: the current round, or scratch outside rounds
	rounds   []*accum          // the timed rounds
	phases   map[string]*accum // timed regions by label, over all rounds
	buildSim *accum            // hot_read: device work of the tree build (see setupHotRead)
	simIters *accum            // iteration workloads: the first simIterations timed iterations
	simLeft  int               // how many of those are still to come
	setupNs  []int64
	liveHeap uint64

	problems []string // correctness findings beyond failed ops
	logMu    sync.Mutex
	logged   int
}

func newRun(def *workloadDef, p params, v variant) *run {
	r := &run{def: def, p: p, v: v, pat: newPattern(p.seed), phases: map[string]*accum{}, acc: newAccum(),
		simIters: newAccum(), simLeft: simIterations}
	if p.rounds < r.simLeft {
		r.simLeft = p.rounds
	}
	n := def.clients
	if n > runtime.NumCPU() {
		n = runtime.NumCPU()
	}
	if v.oneClient {
		n = 1
	}
	if v.traced {
		r.tr = newTracer(def.clients == 1) // svc_mixed has server goroutines even with one client
	}
	for i := 0; i < n; i++ {
		c := &client{id: i, rng: newRNG(mix(p.seed, uint64(0xc11e+i)))}
		if r.tr != nil {
			c.th = r.tr.thread()
		}
		r.clients = append(r.clients, c)
	}
	return r
}

// scaled shrinks a file count for the smoke test.
func (r *run) scaled(n int) int {
	if r.p.quick {
		return n / 10
	}
	return n
}

// problem records a correctness finding that is not one failed op.
func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// opErr reports a failed op's cause, the first few times.
func (r *run) opErr(what string, err error) {
	r.logMu.Lock()
	defer r.logMu.Unlock()
	if r.logged < 5 {
		r.logged++
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s: %v\n", r.def.name, what, err)
	}
}

// snapshot reads every cumulative counter a timed region is a delta of.
// The registry snapshot allocates, so it stays outside the MemStats
// window: MemStats is read last before a region and first after it.
func (r *run) snapshot(after bool) *accum {
	a := newAccum()
	var ms runtime.MemStats
	if after {
		runtime.ReadMemStats(&ms)
	}
	for _, c := range r.clients {
		a.ops += c.ops
		a.failed += c.failed
	}
	s := r.stk
	a.simNs = s.tgt.Clock().Now()
	a.dev = readDev(s.tgt)
	cs := s.fs.Cache().Stats()
	a.cacheHits, a.cacheMisses, a.cachePrefetch = cs.Hits, cs.Misses, cs.PrefetchFills
	a.cacheEvictions, a.cacheWrites = cs.Evictions, cs.WriteBacks
	if s.bk.SSD != nil {
		f := s.bk.SSD.FTL()
		a.ftlHost, a.ftlFlash, a.ftlMoved, a.ftlGCRuns = f.HostPages, f.FlashPages, f.Moved, f.GCRuns
		a.ftlMaxErase = int64(f.MaxErase)
	}
	if s.reg != nil {
		snap := s.reg.Snapshot()
		for k, v := range snap.Counters {
			a.reg[k] = v
		}
		for k, h := range snap.Histograms {
			if h.Count == 0 {
				continue
			}
			b := map[int]int64{}
			for _, hb := range h.Buckets {
				b[hb.Index] = hb.Count
			}
			a.regHist[k] = b
		}
	}
	if !after {
		runtime.ReadMemStats(&ms)
	}
	a.mallocs, a.bytes = ms.Mallocs, ms.TotalAlloc
	return a
}

// timed runs fn as a measured region of the current stack: everything
// the end-to-end metrics count happens inside one. A label also adds
// the region to that phase's totals.
func (r *run) timed(label string, fn func() error) error {
	before := r.snapshot(false)
	if r.tr != nil {
		r.tr.on.Store(true)
	}
	t0 := now()
	err := fn()
	wall := now() - t0
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	d := r.snapshot(true)
	d.add(before, -1)
	d.wallNs = wall
	r.acc.add(d, 1)
	if label != "" {
		if r.phases[label] == nil {
			r.phases[label] = newAccum()
		}
		r.phases[label].add(d, 1)
	}
	return err
}

// simIterations is how many timed iterations the simulated-clock
// metrics of an iteration workload cover. Every round runs at least one
// iteration, so a run always has them.
const simIterations = 8

// untilElapsed repeats a whole iteration until d has passed, and keeps
// the first timed iterations' totals for the simulated-clock metrics.
func (r *run) untilElapsed(d time.Duration, iter func() error) error {
	start := time.Now()
	for {
		if r.simLeft > 0 {
			r.simIters.add(r.acc, -1) // what the round held before this iteration
		}
		if err := iter(); err != nil {
			return err
		}
		if r.simLeft > 0 {
			r.simLeft--
			r.simIters.add(r.acc, 1)
		}
		if time.Since(start) >= d {
			return nil
		}
	}
}

// eachClient runs body once per client, concurrently, and waits.
func (r *run) eachClient(body func(c *client) error) error {
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = body(c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setUp builds the workload p.setups times and keeps the last; the
// others exist only so setup_s is a median rather than one sample.
func (r *run) setUp() error {
	for i := 0; i < r.p.setups; i++ {
		if r.inst != nil {
			if err := r.discard(); err != nil {
				return err
			}
		}
		runtime.GC() // every set-up starts from a collected heap, whatever the previous one left
		t0 := now()
		inst, err := r.def.setup(r)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", r.def.name, err)
		}
		r.setupNs = append(r.setupNs, now()-t0)
		r.inst = inst
	}
	return nil
}

func (r *run) discard() error {
	if err := r.inst.close(); err != nil {
		return err
	}
	_, err := r.stk.close(false)
	r.inst, r.stk = nil, nil
	return err
}

// measure runs warm-up, the timed rounds and the checks.
func (r *run) measure() error {
	if err := r.setUp(); err != nil {
		return err
	}
	if err := r.inst.warm(); err != nil {
		return fmt.Errorf("%s warm-up: %w", r.def.name, err)
	}
	per := time.Duration(r.p.seconds / float64(r.p.rounds) * float64(time.Second))
	for i := 0; i < r.p.rounds; i++ {
		r.acc = newAccum()
		for _, c := range r.clients {
			c.h.reset()
		}
		if err := r.inst.round(per); err != nil {
			return fmt.Errorf("%s round %d: %w", r.def.name, i, err)
		}
		for _, c := range r.clients {
			r.acc.lat.merge(&c.h)
		}
		r.rounds = append(r.rounds, r.acc)
	}
	r.acc = newAccum()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.liveHeap = ms.HeapAlloc

	if err := r.inst.verify(); err != nil {
		return fmt.Errorf("%s verify: %w", r.def.name, err)
	}
	if err := r.inst.close(); err != nil {
		return fmt.Errorf("%s close: %w", r.def.name, err)
	}
	probs, err := r.stk.close(true)
	if err != nil {
		return fmt.Errorf("%s: %w", r.def.name, err)
	}
	for _, p := range probs {
		r.problem("image check: %s", p)
	}
	r.inst, r.stk = nil, nil
	return nil
}

// total sums the timed rounds.
func (r *run) total() *accum {
	t := newAccum()
	for _, a := range r.rounds {
		t.add(a, 1)
		t.lat.merge(&a.lat)
	}
	return t
}

// simBase is what the simulated-clock metrics are computed over. On
// hot_read it is the tree build: the rounds must leave the device idle.
// On the iteration workloads it is the first few timed iterations: how
// many iterations fit a round depends on the host, and neither do
// flash_churn's sub-streams cost the same nor does a simulated rotation
// divide evenly into nanoseconds, so only a fixed set of iterations
// gives the same digits on every run. On svc_mixed it is all rounds.
func (r *run) simBase() *accum {
	switch {
	case r.buildSim != nil:
		return r.buildSim
	case r.simIters.ops > 0:
		return r.simIters
	}
	return r.total()
}

// attempted and failed count ops over every client and region (warm-up
// and verification included), plus one per correctness finding.
func (r *run) attempted() (attempted, failed int64) {
	for _, c := range r.clients {
		attempted += c.ops
		failed += c.failed
	}
	return attempted + int64(len(r.problems)), failed + int64(len(r.problems))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// roundOpsPerS lists each round's throughput.
func (r *run) roundOpsPerS() []float64 {
	var v []float64
	for _, a := range r.rounds {
		v = append(v, ratio(float64(a.ops), float64(a.wallNs)/1e9))
	}
	return v
}

// endToEndValues computes the ten end-to-end metrics, in spec order.
func (r *run) endToEndValues() map[string]float64 {
	var p50, p99, setup []float64
	for _, a := range r.rounds {
		p50 = append(p50, a.lat.quantile(0.5)/1e3)
		p99 = append(p99, a.lat.tail()/1e3)
	}
	for _, ns := range r.setupNs {
		setup = append(setup, float64(ns)/1e9)
	}
	t, sim := r.total(), r.simBase()
	ops, simOps := float64(t.ops), float64(sim.ops)
	return map[string]float64{
		"ops_per_s":       median(r.roundOpsPerS()),
		"lat_p50_us":      median(p50),
		"lat_p99_us":      median(p99),
		"allocs_per_op":   ratio(float64(t.mallocs), ops),
		"bytes_per_op":    ratio(float64(t.bytes), ops),
		"sim_ops_per_s":   ratio(simOps, float64(sim.simNs)/1e9),
		"dev_reqs_per_op": ratio(float64(sim.dev.reqs), simOps),
		"dev_kb_per_op":   ratio(float64(sim.dev.secRead+sim.dev.secWrite)/2, simOps),
		"live_heap_mb":    float64(r.liveHeap) / (1 << 20),
		"setup_s":         median(setup),
	}
}
