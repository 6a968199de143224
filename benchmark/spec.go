package main

// The benchmark's declared surface: workload names, end-to-end metrics
// and per-layer metrics. BENCHMARK.json at the repo root repeats these
// lists for the driver; bench_test.go fails when the two disagree.

// Clocks. Every number names the one it was read from.
const (
	clockHost = "host" // wall clock of this Go process
	clockSim  = "sim"  // simulated device time: deterministic, the paper's clock
)

type workloadDef struct {
	name    string
	why     string
	clients int // closed-loop callers; 2 means min(2, nproc)
	setup   func(r *run) (instance, error)
}

var workloads = []workloadDef{
	{"cold_read", "paper read phase: 10000 x 1 KB files, cache flushed each pass, so group reads, embedded inodes, C-LOOK and the disk model carry the cost", 1, setupColdRead},
	{"sync_write", "paper write phases (create, overwrite, delete) with synchronous metadata on the same stack, so a read-side gain that costs writes shows", 1, setupSyncWrite},
	{"flash_churn", "PostMark-style churn on an aged one-channel SSD with inline write-behind: only workload where the FTL and flush policy, not seeks, carry the cost", 1, setupFlashChurn},
	{"hot_read", "fully cached tree read by 2 goroutines with the device idle: host cost of path cache, dir index, fs lock, cache hit path and allocations", 2, setupHotRead},
	{"svc_mixed", "cffsd default stack behind the loopback wire: 2 tenants mixing reads, walks, readdir and spool writes, so codec, QoS and dispatch sit on top of the same core calls", 2, setupSvcMixed},
}

type metricDef struct {
	name   string
	unit   string
	clock  string  // end-to-end: the clock; per-layer: the source letter (see perLayer)
	better string  // "higher" or "lower"
	bound  float64 // allowed worsening as a share of the parent's median (end-to-end only)
}

// endToEnd is what a user of the system sees. Every metric is reported
// on every workload and none is ever 0 (the driver compares ratios).
var endToEnd = []metricDef{
	{"ops_per_s", "op/s", clockHost, "higher", 0.25},     // ops completed / timed wall seconds, median round
	{"lat_p50_us", "us", clockHost, "lower", 0.25},       // median caller-visible latency of one op, median round
	{"lat_p99_us", "us", clockHost, "lower", 0.25},       // p99 of the same (at least 10 samples beyond it), median round
	{"allocs_per_op", "1/op", clockHost, "lower", 0.02},  // MemStats.Mallocs delta over the timed regions / ops
	{"bytes_per_op", "B/op", clockHost, "lower", 0.03},   // MemStats.TotalAlloc delta over the timed regions / ops
	{"sim_ops_per_s", "op/s", clockSim, "higher", 0.10},  // ops / simulated seconds (the paper's files/s)
	{"dev_reqs_per_op", "1/op", clockSim, "lower", 0.08}, // device requests / ops (paper Fig. 5)
	{"dev_kb_per_op", "KB/op", clockSim, "lower", 0.08},  // sectors read + written / ops
	{"live_heap_mb", "MB", clockHost, "lower", 0.10},     // HeapAlloc after runtime.GC() at the end of the last round
	{"setup_s", "s", clockHost, "lower", 0.25},           // wall time from workload start to the first warm-up op, median of the run's set-ups
}

// perLayer lists the single-layer metrics of the traced pass. Source:
// T = interposer spans, R = the mount's obs.Registry, S = a layer's
// Stats()/FTL(), M = micro-loop on a public function, X = an extra pass.
// A metric is 0 on a workload whose path does not cross its layer.
var perLayer = []metricDef{
	// srv: moves ops_per_s, lat_p50_us, allocs_per_op on svc_mixed only.
	{"srv.rpcs_per_op", "1/op", "R", "lower", 0},            // wire requests per user action
	{"srv.self_us_per_op", "us", "T", "lower", 0},           // client Fid-call spans minus time inside the served FS, per op
	{"srv.fs_us_per_op", "us", "T", "lower", 0},             // time inside the served FS per op
	{"srv.codec.ns_per_frame", "ns", "M", "lower", 0},       // WriteFcall+ReadFcall over the workload's frame mix
	{"srv.codec.allocs_per_frame", "1/op", "M", "lower", 0}, // allocations of the same
	{"srv.codec.bytes_per_frame", "B/op", "M", "lower", 0},  // bytes allocated by the same
	{"srv.qos.wait_p99_us", "us", "R", "lower", 0},          // p99 token-bucket wait (power-of-two buckets)
	{"srv.qos.rejects", "count", "R", "lower", 0},           // requests refused by admission
	{"srv.errors", "count", "R", "lower", 0},                // requests answered with Rerror
	// vfs: moves ops_per_s, allocs_per_op on hot_read.
	{"vfs.walk.ns_per_path", "ns", "M", "lower", 0},       // vfs.Walk of a cached 3-component path
	{"vfs.walk.allocs_per_path", "1/op", "M", "lower", 0}, // allocations of the same
	// core: host time per call with device time excluded.
	{"core.walk.us", "us", "T", "lower", 0},                          // mean self time of WalkPath
	{"core.lookup.us", "us", "T", "lower", 0},                        // mean self time of Lookup
	{"core.readat.us", "us", "T", "lower", 0},                        // mean self time of ReadAt
	{"core.stat.us", "us", "T", "lower", 0},                          // mean self time of Stat
	{"core.readdir.us", "us", "T", "lower", 0},                       // mean self time of ReadDir
	{"core.create.us", "us", "T", "lower", 0},                        // mean self time of Create
	{"core.writeat.us", "us", "T", "lower", 0},                       // mean self time of WriteAt
	{"core.unlink.us", "us", "T", "lower", 0},                        // mean self time of Unlink
	{"core.sync.us", "us", "T", "lower", 0},                          // mean self time of Sync
	{"core.pathcache.hit_ratio", "ratio", "R", "higher", 0},          // path cache hits / probes
	{"core.dirindex.probes_per_lookup", "1/op", "R", "lower", 0},     // index bucket probes / lookup ops
	{"core.inode.embedded_hit_ratio", "ratio", "R", "higher", 0},     // inode reads served from a directory block
	{"core.groupread.blocks_per_read", "1/op", "R", "higher", 0},     // blocks requested per group read
	{"core.groupread.reads_per_op", "1/op", "R", "lower", 0},         // group reads per op
	{"core.scaling_x", "x", "X", "higher", 0},                        // ops/s at 2 clients / ops/s at 1 client (hot_read)
	{"core.vs_conventional.sim_x", "x", "X", "higher", 0},            // simulated us per op with embedding and grouping off / on (paper: 5-7x on reads)
	{"core.vs_conventional.reqs_x", "x", "X", "higher", 0},           // dev_reqs_per_op with embedding and grouping off / on
	{"core.phase.create.sim_ops_per_s", "op/s", "S", "higher", 0},    // sync_write create phase
	{"core.phase.overwrite.sim_ops_per_s", "op/s", "S", "higher", 0}, // sync_write overwrite phase
	{"core.phase.delete.sim_ops_per_s", "op/s", "S", "higher", 0},    // sync_write delete phase
	{"core.phase.create.reqs_per_op", "1/op", "S", "lower", 0},       // sync_write create phase
	{"core.phase.overwrite.reqs_per_op", "1/op", "S", "lower", 0},    // sync_write overwrite phase
	{"core.phase.delete.reqs_per_op", "1/op", "S", "lower", 0},       // sync_write delete phase
	// cache
	{"cache.hit_ratio", "ratio", "S", "higher", 0},                 // hits / (hits + demand misses)
	{"cache.prefetch_fills_per_op", "1/op", "S", "lower", 0},       // blocks brought in by group reads per op
	{"cache.prefetch.useful_ratio", "ratio", "R", "higher", 0},     // prefetched blocks later used / loaded
	{"cache.evictions_per_op", "1/op", "S", "lower", 0},            // evictions per op
	{"cache.writebacks_per_op", "1/op", "S", "lower", 0},           // blocks written back per op
	{"cache.singleflight.dedup_per_kop", "1/kop", "R", "lower", 0}, // concurrent misses folded into one read, per 1000 ops
	{"cache.hit.ns", "ns", "M", "lower", 0},                        // cache.Read+Release of a resident block, 1 goroutine
	{"cache.hit.ns_2g", "ns", "M", "lower", 0},                     // the same from 2 goroutines at once, per call
	{"cache.hit.allocs", "1/op", "M", "lower", 0},                  // allocations per hit
	{"cache.miss_evict.ns", "ns", "M", "lower", 0},                 // cache.Read of a non-resident block on a full cache over a zero-cost device
	// writeback
	{"writeback.blocks_per_flush", "1/op", "R", "higher", 0},        // blocks per daemon flush round
	{"writeback.flushes_per_kop", "1/kop", "R", "lower", 0},         // flush rounds per 1000 ops
	{"writeback.kicks.highwater_share", "ratio", "R", "lower", 0},   // wake-ups caused by the high-water mark / all wake-ups
	{"writeback.throttle.stalls_per_kop", "1/kop", "R", "lower", 0}, // writers stalled at the hard limit per 1000 ops
	{"writeback.throttle.wait_p99_us", "us", "R", "lower", 0},       // p99 stall (power-of-two buckets)
	// blockio, sched
	{"blockio.merge_factor", "x", "R", "higher", 0},              // block requests submitted / device requests issued
	{"blockio.reqs_per_batch", "1/op", "R", "higher", 0},         // block requests per Submit
	{"blockio.ordered_writes_per_op", "1/op", "T", "lower", 0},   // barrier writes per op (1 vs 2 per create)
	{"blockio.submit.ns_per_req", "ns", "M", "lower", 0},         // Device.Submit of a 64-request batch over a zero-cost device, per request
	{"blockio.submit.allocs_per_batch", "1/op", "M", "lower", 0}, // allocations of the same batch
	{"sched.clook.ns_per_item", "ns", "M", "lower", 0},           // CLook.Order of 64 items, per item
	// disk
	{"disk.host_ns_per_req", "ns", "T", "lower", 0},       // host time inside the disk model per request (simulator speed)
	{"disk.sim_reqs_per_s", "1/s", "S", "higher", 0},      // requests per simulated second the drive is busy
	{"disk.kb_per_req", "KB", "S", "higher", 0},           // KB moved per request
	{"disk.seek_share", "ratio", "S", "lower", 0},         // seek time / busy time
	{"disk.rotate_share", "ratio", "S", "lower", 0},       // rotational latency / busy time
	{"disk.transfer_share", "ratio", "S", "higher", 0},    // transfer time / busy time
	{"disk.onboard_hit_ratio", "ratio", "S", "higher", 0}, // reads served by the drive's read-ahead cache
	{"disk.reads_per_op", "1/op", "S", "lower", 0},        // read requests per op
	{"disk.writes_per_op", "1/op", "S", "lower", 0},       // write requests per op
	// ssd: moves sim_us_per_op, ops_per_s on flash_churn only.
	{"ssd.write_amp", "x", "S", "lower", 0},                  // flash pages programmed / host pages written
	{"ssd.gc.runs_per_kop", "1/kop", "S", "lower", 0},        // GC activations per 1000 ops
	{"ssd.gc.moved_per_host_page", "ratio", "S", "lower", 0}, // pages migrated by GC per host page
	{"ssd.gc.sim_share", "ratio", "R", "lower", 0},           // simulated time spent in GC / simulated time
	{"ssd.erase.max", "count", "S", "lower", 0},              // highest per-block erase count
	{"ssd.host_ns_per_req", "ns", "T", "lower", 0},           // host time inside the flash model per request
	// obs, flight: move ops_per_s on hot_read.
	{"obs.registry.overhead_pct", "%", "X", "lower", 0}, // hot_read ops/s lost to mounting with a registry vs Metrics: nil
	{"flight.overhead_pct", "%", "X", "lower", 0},       // hot_read ops/s lost to an attached flight recorder
	// the benchmark itself
	{"bench.trace.overhead_pct", "%", "X", "lower", 0}, // ops/s lost to the interposers, traced vs untraced stack in one run
	{"bench.rounds_spread_pct", "%", "X", "lower", 0},  // (max - min) / median of the rounds' ops/s
	{"bench.fail_share", "ratio", "X", "lower", 0},     // ops that errored, returned wrong bytes or left an unclean image / ops attempted
}
