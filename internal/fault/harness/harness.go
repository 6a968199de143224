// Package harness enumerates crash states of a recorded workload and
// verifies that recovery repairs every one of them.
//
// The harness runs a workload once, failure-free, over a recording
// store (fault.Recorder), which captures every store-level write in
// order along with the operation-completion marks the workload emits.
// From that single recording it reconstructs the disk image a crash
// would have left behind at
//
//   - every write boundary (power cut between writes),
//   - sampled torn points (power cut mid-write: a sector-aligned
//     prefix of one multi-sector write lands, the suffix is lost), and
//   - sampled reorder states (the drive's volatile cache dropped a
//     legal subset of delayed writes issued since the last ordered
//     barrier — see Log.DroppableAt).
//
// Each reconstructed image is mounted fresh, repaired by the file
// system's fsck, re-checked to be clean, and optionally passed to a
// durability oracle. Reconstruction is offline — a snapshot of the
// post-mkfs image plus a replayed write prefix — so enumerating
// hundreds of states costs no workload re-execution.
package harness

import (
	"fmt"

	"cffs/internal/blockio"
	"cffs/internal/disk"
	"cffs/internal/fault"
	"cffs/internal/fsck"
	"cffs/internal/sched"
	"cffs/internal/sim"
)

// Config describes one file system under test. The harness stays
// independent of the concrete file systems by taking their entry
// points as callbacks.
type Config struct {
	// Spec is the simulated drive. Zero value selects the paper's
	// Seagate ST31200N.
	Spec disk.Spec

	// NewDevice, when non-nil, builds the device over a backing store —
	// the hook that lets a config put a striped volume (or any other
	// Target) under the file system. The store is the crash-state
	// substrate: the recorder wraps it directly, so multi-disk devices
	// must slice it into member windows (volume.Build does). Nil builds
	// a plain single disk.
	NewDevice func(spec disk.Spec, clk *sim.Clock, st disk.Store) *blockio.Device

	// ImageBytes sizes the backing store; zero means one drive,
	// spec.Geom.Bytes(). Striped configs set disks x that.
	ImageBytes int64

	// Mkfs builds an empty file system on dev and leaves it durable
	// (the callback must sync/close whatever it mounts).
	Mkfs func(dev *blockio.Device) error

	// Workload mounts dev, runs the operation mix, and closes the
	// mount. It must call mark(name) immediately after each operation
	// whose durability the oracle should track; the mark is stamped at
	// the current write boundary.
	Workload func(dev *blockio.Device, mark func(string)) error

	// Fsck checks the image on dev, repairing when repair is set, and
	// returns the report. It mounts and unmounts internally.
	Fsck func(dev *blockio.Device, repair bool) (*fsck.Report, error)

	// Verify, when non-nil, is the durability oracle: after a crash
	// state has been repaired, it receives the names of operations
	// whose completion marks precede the crash boundary and must
	// confirm their effects survived. The operation in flight at the
	// crash — partially applied by definition — is passed separately;
	// the oracle must accept either outcome for it. Only sound for
	// workloads whose operations reach durability before returning
	// (sync or ordered metadata modes); leave nil for delayed-write
	// baselines, where completion promises nothing.
	Verify func(dev *blockio.Device, completed []string, inflight string) error

	// TornSamples and ReorderSamples bound the sampled state spaces
	// (every multi-sector write boundary, resp. every boundary with a
	// non-empty droppable set, is a candidate). Zero means 8 each.
	TornSamples    int
	ReorderSamples int

	// MaxCrashPoints, when positive, caps the clean power-cut
	// enumeration by sampling boundaries evenly instead of walking all
	// of them. Zero enumerates every write boundary.
	MaxCrashPoints int

	// Seed drives the deterministic sampling.
	Seed int64
}

// Result aggregates what the enumeration found.
type Result struct {
	Writes        int // store-level writes in the recording
	CrashPoints   int // clean power-cut states checked
	TornStates    int // torn-write states checked
	ReorderStates int // reorder states checked

	Clean    int // states fsck found already consistent
	Repaired int // states fsck had to repair

	// Failures lists states that stayed broken: fsck errored, left
	// unrepairable problems, or did not converge to clean.
	Failures []string
	// DurabilityViolations lists states where the oracle found a
	// completed operation's effect missing after repair.
	DurabilityViolations []string

	// RecoveryNsTotal and RecoveryNsMax track simulated fsck repair
	// time across all checked states.
	RecoveryNsTotal int64
	RecoveryNsMax   int64
}

// States returns the total number of crash states checked.
func (r *Result) States() int { return r.CrashPoints + r.TornStates + r.ReorderStates }

// MeanRecoveryNs returns the average simulated repair time per state.
func (r *Result) MeanRecoveryNs() int64 {
	if n := r.States(); n > 0 {
		return r.RecoveryNsTotal / int64(n)
	}
	return 0
}

// Ok reports whether every state was repaired and every durability
// promise held.
func (r *Result) Ok() bool {
	return len(r.Failures) == 0 && len(r.DurabilityViolations) == 0
}

// Run records the workload and enumerates its crash states.
func Run(cfg Config) (*Result, *fault.Log, error) {
	cfg, err := cfg.fill()
	if err != nil {
		return nil, nil, err
	}
	snap, log, err := record(cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := enumerate(cfg, snap, log)
	return res, log, err
}

// fill resolves the config's defaults.
func (cfg Config) fill() (Config, error) {
	if cfg.Spec.Name == "" {
		cfg.Spec = disk.SeagateST31200()
	}
	if err := cfg.Spec.Validate(); err != nil { // also derives the geometry totals
		return cfg, err
	}
	if cfg.TornSamples == 0 {
		cfg.TornSamples = 8
	}
	if cfg.ReorderSamples == 0 {
		cfg.ReorderSamples = 8
	}
	if cfg.NewDevice == nil {
		cfg.NewDevice = newDev
	}
	if cfg.ImageBytes == 0 {
		cfg.ImageBytes = cfg.Spec.Geom.Bytes()
	}
	return cfg, nil
}

// record runs mkfs and then the workload, once and failure-free, and
// returns the post-mkfs image with the workload's write stream.
func record(cfg Config) (snap *disk.MemStore, log *fault.Log, err error) {
	// Phase 1: mkfs on a pristine store, then snapshot it. The
	// snapshot is the replay base: crashes during mkfs are out of
	// scope (the image is not a file system yet).
	base := disk.NewMemStore(cfg.ImageBytes)
	if err := cfg.Mkfs(cfg.NewDevice(cfg.Spec, sim.NewClock(), base)); err != nil {
		return nil, nil, fmt.Errorf("harness: mkfs: %w", err)
	}
	snap = base.Clone()

	// Phase 2: run the workload once over a recorder.
	rec := fault.NewRecorder(base)
	if err := cfg.Workload(cfg.NewDevice(cfg.Spec, sim.NewClock(), rec), rec.Mark); err != nil {
		return nil, nil, fmt.Errorf("harness: workload: %w", err)
	}
	return snap, rec.Log(), nil
}

// enumerate is phase 3: every crash state of log over snap, repaired
// and verified. It is apart from record so a test can check that the
// oracle sees an ill-ordered stream, by reordering a recorded one.
func enumerate(cfg Config, snap *disk.MemStore, log *fault.Log) (*Result, error) {
	res := &Result{Writes: len(log.Entries)}
	rng := sim.NewRNG(uint64(cfg.Seed)*2 + 1)

	for _, n := range crashBoundaries(len(log.Entries), cfg.MaxCrashPoints) {
		st := snap.Clone()
		if err := log.ApplyPrefix(st, n); err != nil {
			return res, err
		}
		res.CrashPoints++
		checkState(cfg, res, log, st, n, fmt.Sprintf("cut@%d", n))
	}

	for _, tp := range sampleTorn(log, rng, cfg.TornSamples) {
		st := snap.Clone()
		if err := log.ApplyTorn(st, tp.n, tp.sectors); err != nil {
			return res, err
		}
		res.TornStates++
		checkState(cfg, res, log, st, tp.n, fmt.Sprintf("torn@%d/%d", tp.n, tp.sectors))
	}

	for _, rp := range sampleReorder(log, rng, cfg.ReorderSamples) {
		st := snap.Clone()
		if err := log.ApplyPrefixDropping(st, rp.n, rp.drop); err != nil {
			return res, err
		}
		res.ReorderStates++
		// No durability oracle here: dropped writes are by definition
		// delayed, and the legality rule already keeps every write an
		// ordered barrier vouched for.
		checkRepair(cfg, res, st, fmt.Sprintf("reorder@%d(-%d)", rp.n, len(rp.drop)))
	}
	return res, nil
}

// checkState repairs one reconstructed image and, when the config has
// an oracle, verifies the durability of operations completed by
// boundary n.
func checkState(cfg Config, res *Result, log *fault.Log, st *disk.MemStore, n int, desc string) {
	dev, ok := checkRepair(cfg, res, st, desc)
	if !ok || cfg.Verify == nil {
		return
	}
	if err := cfg.Verify(dev, log.CompletedBy(n), log.InFlightAt(n)); err != nil {
		res.DurabilityViolations = append(res.DurabilityViolations,
			fmt.Sprintf("%s: %v", desc, err))
	}
}

// checkRepair runs fsck-with-repair on the image and re-checks that it
// converged to clean. It returns the device (for further verification)
// and whether the state ended consistent.
func checkRepair(cfg Config, res *Result, st *disk.MemStore, desc string) (*blockio.Device, bool) {
	clk := sim.NewClock()
	dev := cfg.NewDevice(cfg.Spec, clk, st)

	t0 := clk.Now()
	rep, err := cfg.Fsck(dev, true)
	if err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("%s: fsck: %v", desc, err))
		return dev, false
	}
	elapsed := clk.Now() - t0
	res.RecoveryNsTotal += elapsed
	if elapsed > res.RecoveryNsMax {
		res.RecoveryNsMax = elapsed
	}

	if len(rep.Unrepairable) > 0 {
		res.Failures = append(res.Failures,
			fmt.Sprintf("%s: %d unrepairable: %v", desc, len(rep.Unrepairable), rep.Unrepairable))
		return dev, false
	}
	if rep.Clean() {
		res.Clean++
	} else {
		res.Repaired++
		rep2, err := cfg.Fsck(dev, false)
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("%s: re-check: %v", desc, err))
			return dev, false
		}
		if !rep2.Clean() {
			res.Failures = append(res.Failures,
				fmt.Sprintf("%s: not clean after repair: %v", desc, rep2.Problems))
			return dev, false
		}
	}
	return dev, true
}

func newDev(spec disk.Spec, clk *sim.Clock, st disk.Store) *blockio.Device {
	d, err := disk.New(spec, clk, st)
	if err != nil {
		// Spec was validated when the base device was built; a failure
		// here is a harness bug, not a test outcome.
		panic(err)
	}
	return blockio.NewDevice(d, sched.CLook{})
}

// crashBoundaries returns the write boundaries to enumerate: all of
// 0..writes when max is zero or generous, else an even sample that
// always includes both endpoints.
func crashBoundaries(writes, max int) []int {
	total := writes + 1
	if max <= 0 || total <= max {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, i*writes/(max-1))
	}
	// The integer stride can repeat a boundary; dedup keeps the count
	// honest.
	dedup := out[:1]
	for _, n := range out[1:] {
		if n != dedup[len(dedup)-1] {
			dedup = append(dedup, n)
		}
	}
	return dedup
}

type tornPoint struct{ n, sectors int }

// sampleTorn picks up to k torn-write states: a multi-sector write and
// a proper sector prefix of it.
func sampleTorn(log *fault.Log, rng *sim.RNG, k int) []tornPoint {
	var cands []int
	for i := range log.Entries {
		if log.Entries[i].Sectors() > 1 {
			cands = append(cands, i)
		}
	}
	var out []tornPoint
	for _, i := range pick(rng, cands, k) {
		s := log.Entries[i].Sectors()
		out = append(out, tornPoint{n: i, sectors: 1 + rng.Intn(s-1)})
	}
	return out
}

type reorderPoint struct {
	n    int
	drop map[int]bool
}

// sampleReorder picks up to k boundaries with droppable delayed writes
// and a random non-empty legal subset to lose at each.
func sampleReorder(log *fault.Log, rng *sim.RNG, k int) []reorderPoint {
	var cands []int
	for n := 1; n <= len(log.Entries); n++ {
		if len(log.DroppableAt(n)) > 0 {
			cands = append(cands, n)
		}
	}
	var out []reorderPoint
	for _, n := range pick(rng, cands, k) {
		droppable := log.DroppableAt(n)
		drop := make(map[int]bool)
		for _, i := range droppable {
			if rng.Intn(2) == 1 {
				drop[i] = true
			}
		}
		if len(drop) == 0 {
			drop[droppable[rng.Intn(len(droppable))]] = true
		}
		out = append(out, reorderPoint{n: n, drop: drop})
	}
	return out
}

// pick returns up to k distinct elements of cands, order-preserving.
func pick(rng *sim.RNG, cands []int, k int) []int {
	if len(cands) <= k {
		return cands
	}
	chosen := make(map[int]bool, k)
	for len(chosen) < k {
		chosen[rng.Intn(len(cands))] = true
	}
	out := make([]int, 0, k)
	for i, c := range cands {
		if chosen[i] {
			out = append(out, c)
		}
	}
	return out
}
