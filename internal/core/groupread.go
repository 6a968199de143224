package core

import (
	"cffs/internal/blockio"
	"cffs/internal/cache"
)

// The group read and the policy that decides when to issue one. The
// paper's bet is that positioning costs so much more than transfer that
// fetching a whole 64 KB group for one missed 4 KB block is nearly free.
// On a device that declares a flat request cost (blockio.Target.FlatCost)
// the bet has a price, and the policy checks it against what the cache
// measures; on any other device the policy is the paper's.

// readBlockGrouped reads a block through the cache with the group-read
// policy: a miss on any block of a claimed group fetches the group's
// whole allocated span in one request, where groupReadWanted says that
// pays. Directory blocks and read-modify-write take this path; file
// reads take readFileBlock, which adds what a declined group read and
// an ungrouped block get instead.
func (fs *FS) readBlockGrouped(phys int64) (*cache.Buf, error) {
	if fs.opts.Grouping && fs.c.Peek(phys) == nil {
		if g, ok := fs.groupOf(phys); ok && fs.groupReadWanted(g.id) {
			if err := fs.groupRead(g); err != nil {
				return nil, err
			}
		}
	}
	return fs.c.Read(phys)
}

// groupRead fetches g's allocated span. With group readahead in effect
// (a striped volume underneath, or Options.GroupReadahead set), the read
// also carries the next few extents owned by the same directory, batched
// into one Submit so the volume can service them on different spindles
// in parallel.
func (fs *FS) groupRead(g group) error {
	fs.mGroupReads.Inc()
	fs.mGroupBlocks.Add(int64(g.count))
	var ahead []cache.Run
	if fan := fs.groupReadFan(); fan > 0 {
		ahead = fs.nextOwnedSpans(g.ag, g.k, fan)
	}
	if len(ahead) == 0 {
		return fs.c.ReadRun(g.start, g.count)
	}
	for _, r := range ahead {
		fs.mGroupBlocks.Add(int64(r.Count))
	}
	fs.mGroupPrefetch.Add(int64(len(ahead)))
	return fs.c.ReadRuns(append([]cache.Run{{Start: g.start, Count: g.count}}, ahead...))
}

// The group-read controller's constants. A decision stands for
// groupReadWindow resolved speculative fills; it changes only when the
// used share of that window is outside the break-even by more than
// groupReadHysteresis of it, so a share sitting on the line does not
// flap.
const (
	groupReadWindow     = 256
	groupReadHysteresis = 0.25
	recentGroups        = 32 // groups the recency rule remembers
)

// groupReadPolicy is the state behind groupReadWanted, guarded by
// FS.adaptMu: it is the one piece of FS state mutated on the read path,
// under mu held shared, so it has its own lock rather than riding on
// the FS write lock.
type groupReadPolicy struct {
	// breakEven is the used share of a group read's blocks above which
	// the read pays on this device; see groupReadBreakEven. Zero on a
	// device that declares no flat cost — there positioning dwarfs
	// transfer, the paper's premise, and the policy is the paper's.
	// Immutable after mount.
	breakEven float64

	// declined is the controller's state: false (where it starts) means
	// whole-group reads pay, true means fall back to the recency rule.
	// used and resolved are the cache's counts at the last decision.
	declined       bool
	used, resolved int64

	// recent is the recency rule's window: a ring of the last
	// recentGroups distinct group ids touched (0 = empty slot).
	recent [recentGroups]uint32
	next   int
}

// groupReadBreakEven derives groupReadPolicy.breakEven from the cost the
// device declares: an extra block in a request costs blockNs now and
// saves a whole fixedNs+blockNs request later if it is wanted, so it
// pays when it is wanted more than blockNs/(fixedNs+blockNs) of the
// time. A device that services several requests at once moves that many
// requests' blocks in one block time — and the readahead fan that rides
// on every group read there is sized to use exactly that — so the share
// is divided by the parallelism. Zero when the device declares no cost.
func groupReadBreakEven(dev *blockio.Device) float64 {
	fixedNs, blockNs := dev.Disk().FlatCost()
	if blockNs <= 0 {
		return 0
	}
	return float64(blockNs) / float64(fixedNs+blockNs) / float64(deviceParallelism(dev))
}

// groupReadWanted decides whether a miss in group gid fetches the whole
// group. On a device with no declared cost the answer is the paper's
// unconditional yes, without a lock or a byte of state. On a priced
// device the controller starts there too and keeps it while the cache
// reports that the blocks group reads bring in are used often enough to
// beat the device's break-even; when they are not, it falls back to the
// recency rule — whole group on the second recent touch of a group, one
// request's blocks on the first — which both bounds the waste and keeps
// supplying the samples that turn whole-group reads back on when a scan
// starts. Options.AdaptiveGroupRead pins the recency rule on any device.
func (fs *FS) groupReadWanted(gid uint32) bool {
	p := &fs.gr
	if p.breakEven == 0 && !fs.opts.AdaptiveGroupRead {
		return true
	}
	st := fs.c.Stats() // before the lock: a stale reading only defers a decision
	fs.adaptMu.Lock()
	defer fs.adaptMu.Unlock()
	if !fs.opts.AdaptiveGroupRead && p.pays(st) {
		return true
	}
	for _, g := range p.recent {
		if g == gid {
			return true
		}
	}
	p.recent[p.next] = gid
	p.next = (p.next + 1) % len(p.recent)
	return false
}

// pays reports the controller's current decision, first revising it if
// a full window of speculative fills has resolved since the last one.
func (p *groupReadPolicy) pays(st cache.Stats) bool {
	resolved := st.PrefetchUsed + st.PrefetchUnused
	if n := resolved - p.resolved; n >= groupReadWindow {
		share := float64(st.PrefetchUsed-p.used) / float64(n)
		if p.declined {
			p.declined = share <= p.breakEven*(1+groupReadHysteresis)
		} else {
			p.declined = share < p.breakEven*(1-groupReadHysteresis)
		}
		p.used, p.resolved = st.PrefetchUsed, resolved
	}
	return !p.declined
}
