package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cffs/internal/obs"
)

// The traced run of one workload: a plain pass and a traced pass side
// by side (their difference is the tracing overhead, and on one-client
// workloads their simulated-clock metrics must be identical), the extra
// passes some per-layer metrics need, and the micro-loops. The shares
// of -seconds are fixed so a traced run takes about as long as an
// untraced one.
const (
	sharePlain  = 0.20
	shareTraced = 0.30
	shareExtra  = 0.10 // each of up to three extra passes
	shareMicro  = 0.04 // each of four micro-loops
)

// pass measures one variant for a share of the run's seconds.
func pass(def *workloadDef, p params, v variant, share float64, rounds int) (*run, error) {
	p.seconds *= share
	p.rounds = rounds
	p.setups = 1
	r := newRun(def, p, v)
	return r, r.measure()
}

// tracedRun produces every per-layer metric for one workload.
func tracedRun(def *workloadDef, p params) (*result, error) {
	plain, err := pass(def, p, variant{}, sharePlain, 2)
	if err != nil {
		return nil, err
	}
	traced, err := pass(def, p, variant{traced: true}, shareTraced, 2)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: def.name, Traced: true, Values: map[string]float64{}}
	for _, m := range perLayer {
		res.Values[m.name] = 0
	}
	runs := []*run{plain, traced}
	pe, te := plain.endToEndValues(), traced.endToEndValues()

	// An interposer that dropped an optional interface would change the
	// device work; with one client that work repeats exactly.
	if def.clients == 1 {
		for _, name := range []string{"sim_ops_per_s", "dev_reqs_per_op", "dev_kb_per_op"} {
			if pe[name] != te[name] {
				traced.problem("%s: %s is %v untraced and %v traced; the interposers must not change device work",
					def.name, name, pe[name], te[name])
			}
		}
	}
	layerValues(traced, res.Values)
	res.Values["bench.trace.overhead_pct"] = 100 * (1 - ratio(te["ops_per_s"], pe["ops_per_s"]))
	res.Values["bench.rounds_spread_pct"] = roundsSpread(plain)

	extra := func(v variant) (map[string]float64, error) {
		r, err := pass(def, p, v, shareExtra, 1)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		return r.endToEndValues(), nil
	}
	switch def.name {
	case "cold_read", "sync_write":
		conv, err := extra(variant{conventional: true})
		if err != nil {
			return nil, err
		}
		res.Values["core.vs_conventional.sim_x"] = ratio(pe["sim_ops_per_s"], conv["sim_ops_per_s"])
		res.Values["core.vs_conventional.reqs_x"] = ratio(conv["dev_reqs_per_op"], pe["dev_reqs_per_op"])
	case "hot_read":
		one, err := extra(variant{oneClient: true})
		if err != nil {
			return nil, err
		}
		bare, err := extra(variant{noRegistry: true})
		if err != nil {
			return nil, err
		}
		rec, err := extra(variant{recorder: true})
		if err != nil {
			return nil, err
		}
		res.Values["core.scaling_x"] = ratio(pe["ops_per_s"], one["ops_per_s"])
		res.Values["obs.registry.overhead_pct"] = 100 * (1 - ratio(pe["ops_per_s"], bare["ops_per_s"]))
		res.Values["flight.overhead_pct"] = 100 * (1 - ratio(rec["ops_per_s"], pe["ops_per_s"]))
	}
	// The micro-loops do not depend on the workload; every traced run
	// carries them so each run's per-layer panel is complete.
	micro := time.Duration(p.seconds * shareMicro * float64(time.Second))
	for _, loop := range []func(time.Duration, map[string]float64) error{microCodec, microWalk, microCache, microBlockio} {
		if err := loop(micro, res.Values); err != nil {
			return nil, err
		}
	}

	for _, r := range runs {
		a, f := r.attempted()
		res.Attempted += a
		res.Failed += f
		res.Problems = append(res.Problems, r.problems...)
	}
	res.Correct = res.Failed == 0
	res.Values["bench.fail_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	res.Samples = traced.total().lat.n
	res.spans = traced.tr.recs
	return res, nil
}

func roundsSpread(r *run) float64 {
	v := r.roundOpsPerS()
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return 100 * ratio(hi-lo, median(v))
}

// sumPrefix adds up the registry counters of one labelled family.
func sumPrefix(reg map[string]int64, prefix string) float64 {
	var n int64
	for k, v := range reg {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return float64(n)
}

// mergePrefix merges the registry histograms of one labelled family.
func mergePrefix(hists map[string]map[int]int64, prefix string) map[int]int64 {
	out := map[int]int64{}
	for k, b := range hists {
		if strings.HasPrefix(k, prefix) {
			for i, n := range b {
				out[i] += n
			}
		}
	}
	return out
}

// layerValues fills the per-layer metrics the traced pass itself
// yields: spans (T), registry deltas (R) and layer statistics (S) over
// its timed regions.
func layerValues(r *run, out map[string]float64) {
	t := r.total()
	ops := float64(t.ops)
	reg := func(name string) float64 { return float64(t.reg[name]) }
	aggs := r.tr.totals()
	spanSum := func(from, to spanName) (sum float64) {
		for sp := from; sp <= to; sp++ {
			sum += float64(aggs[sp].sum)
		}
		return sum
	}

	// srv: the client's Fid calls contain the wire, admission, dispatch
	// and the served file system; the interposer under the server times
	// the last, and the rest is srv's own.
	if fid := spanSum(spSrvWalk, spSrvUnlink); fid > 0 {
		inFS := spanSum(spCoreWalk, spCoreOther)
		out["srv.self_us_per_op"] = ratio((fid-inFS)/1e3, ops)
		out["srv.fs_us_per_op"] = ratio(inFS/1e3, ops)
	}
	out["srv.rpcs_per_op"] = ratio(sumPrefix(t.reg, "srv.requests{"), ops)
	out["srv.qos.wait_p99_us"] = regHistQuantile(mergePrefix(t.regHist, "srv.qos.wait.ns"), 0.99) / 1e3
	out["srv.qos.rejects"] = sumPrefix(t.reg, "srv.qos.rejects")
	out["srv.errors"] = sumPrefix(t.reg, "srv.errors")

	for sp, name := range map[spanName]string{
		spCoreWalk: "walk", spCoreLookup: "lookup", spCoreReadAt: "readat", spCoreStat: "stat",
		spCoreReadDir: "readdir", spCoreCreate: "create", spCoreWriteAt: "writeat",
		spCoreUnlink: "unlink", spCoreSync: "sync",
	} {
		a := &aggs[sp]
		out["core."+name+".us"] = ratio(float64(a.sum-a.child)/1e3, float64(a.n))
	}
	out["core.pathcache.hit_ratio"] = ratio(reg("core.pathcache.hits"), reg("core.pathcache.hits")+reg("core.pathcache.misses"))
	out["core.dirindex.probes_per_lookup"] = ratio(reg("core.dirindex.probes"), reg("ops.lookup"))
	out["core.inode.embedded_hit_ratio"] = ratio(reg("core.inode.embedded_hits"), reg("core.inode.embedded_hits")+reg("core.inode.external_reads"))
	out["core.groupread.blocks_per_read"] = ratio(reg("core.groupread.blocks"), reg("core.groupread.reads"))
	out["core.groupread.reads_per_op"] = ratio(reg("core.groupread.reads"), ops)
	if r.def.name == "sync_write" {
		for _, ph := range []string{"create", "overwrite", "delete"} {
			if a := r.phases[ph]; a != nil {
				out[fmt.Sprintf("core.phase.%s.sim_ops_per_s", ph)] = ratio(float64(a.ops), float64(a.simNs)/1e9)
				out[fmt.Sprintf("core.phase.%s.reqs_per_op", ph)] = ratio(float64(a.dev.reqs), float64(a.ops))
			}
		}
	}

	out["cache.hit_ratio"] = ratio(float64(t.cacheHits), float64(t.cacheHits+t.cacheMisses))
	out["cache.prefetch_fills_per_op"] = ratio(float64(t.cachePrefetch), ops)
	out["cache.prefetch.useful_ratio"] = ratio(reg("cache.prefetch.used"), reg("cache.prefetch.loaded"))
	out["cache.evictions_per_op"] = ratio(float64(t.cacheEvictions), ops)
	out["cache.writebacks_per_op"] = ratio(float64(t.cacheWrites), ops)
	out["cache.singleflight.dedup_per_kop"] = 1e3 * ratio(reg("cache.singleflight.dedup"), ops)

	out["writeback.blocks_per_flush"] = ratio(reg("writeback.blocks"), reg("writeback.flushes"))
	out["writeback.flushes_per_kop"] = 1e3 * ratio(reg("writeback.flushes"), ops)
	out["writeback.kicks.highwater_share"] = ratio(reg("writeback.kicks.highwater"), reg("writeback.kicks.highwater")+reg("writeback.kicks.tick"))
	out["writeback.throttle.stalls_per_kop"] = 1e3 * ratio(reg("writeback.throttle.stalls"), ops)
	out["writeback.throttle.wait_p99_us"] = regHistQuantile(t.regHist["writeback.throttle.ns"], 0.99) / 1e3

	out["blockio.merge_factor"] = ratio(reg("blockio.submit.reqs"), reg("blockio.submit.issued"))
	out["blockio.reqs_per_batch"] = ratio(reg("blockio.submit.reqs"), reg("blockio.submit.batches"))
	out["blockio.ordered_writes_per_op"] = ratio(float64(aggs[spDevOrdered].n), ops)

	d := t.dev
	hostPerReq := ratio(spanSum(spDevRead, spDevSubmit), float64(d.reqs))
	if t.ftlHost > 0 {
		out["ssd.host_ns_per_req"] = hostPerReq
		out["ssd.write_amp"] = ratio(float64(t.ftlFlash), float64(t.ftlHost))
		out["ssd.gc.runs_per_kop"] = 1e3 * ratio(float64(t.ftlGCRuns), ops)
		out["ssd.gc.moved_per_host_page"] = ratio(float64(t.ftlMoved), float64(t.ftlHost))
		out["ssd.gc.sim_share"] = ratio(reg("ssd.gc.ns"), float64(t.simNs))
		out["ssd.erase.max"] = float64(t.ftlMaxErase)
		return
	}
	out["disk.host_ns_per_req"] = hostPerReq
	out["disk.sim_reqs_per_s"] = ratio(float64(d.reqs), float64(d.busyNs)/1e9)
	out["disk.kb_per_req"] = ratio(float64(d.secRead+d.secWrite)/2, float64(d.reqs))
	out["disk.seek_share"] = ratio(float64(d.seekNs), float64(d.busyNs))
	out["disk.rotate_share"] = ratio(float64(d.rotateNs), float64(d.busyNs))
	out["disk.transfer_share"] = ratio(float64(d.transferNs), float64(d.busyNs))
	out["disk.onboard_hit_ratio"] = ratio(float64(d.onboardHits), float64(d.reads))
	out["disk.reads_per_op"] = ratio(float64(d.reads), ops)
	out["disk.writes_per_op"] = ratio(float64(d.writes), ops)
}

// regHistQuantile estimates a quantile of a registry histogram from
// its power-of-two buckets, taking each bucket's upper bound.
func regHistQuantile(buckets map[int]int64, q float64) float64 {
	var n int64
	idx := make([]int, 0, len(buckets))
	for i, c := range buckets {
		n += c
		idx = append(idx, i)
	}
	if n == 0 {
		return 0
	}
	sort.Ints(idx)
	rank := q * float64(n)
	var cum float64
	for _, i := range idx {
		cum += float64(buckets[i])
		if cum >= rank {
			return float64(obs.BucketHigh(i))
		}
	}
	return float64(obs.BucketHigh(idx[len(idx)-1]))
}
