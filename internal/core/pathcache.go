package core

import (
	"fmt"
	"strings"
	"sync"

	"cffs/internal/obs"
	"cffs/internal/vfs"
)

// pathCache is a sharded full-path→ino cache serving vfs.Walk through
// FS.WalkPath: a hit resolves any depth of path with zero component
// lookups and zero disk requests.
//
// Precision over heuristics: every entry remembers the whole inode
// chain it resolved through, and each shard keeps a reverse index from
// inode to the entries whose chain contains it. A namespace mutation
// invalidates by inode — unlink/rmdir kill the victim's paths, and a
// directory rename kills every cached path that passed through the
// moved directory (prefix invalidation), because all of them carried
// its ino in their chain. There is no TTL and no revalidation walk: the
// cache is exactly as fresh as the last mutation.
//
// Locking: shard mutexes sit below fs.mu in the hierarchy. Probes take
// only the shard mutex; an insert happens while the resolving walk
// still holds fs.mu shared, and invalidation runs under fs.mu held
// exclusively — so a stale entry can never be inserted after the
// mutation that would have killed it.
const (
	nPathShards      = 16
	defaultPathCache = 32768
)

type pathEnt struct {
	ino   vfs.Ino
	chain []vfs.Ino // every inode the resolution passed through, root included
	seq   uint64    // the shard's insertion number: names this entry's fifo slot
}

// fifoSlot is one insertion in a shard's eviction order. A drop
// (invalidation) leaves its slot behind; the slot is stale once entries
// no longer holds that key under that seq.
type fifoSlot struct {
	key string
	seq uint64
}

type pathShard struct {
	mu      sync.Mutex
	entries map[string]pathEnt
	byIno   map[vfs.Ino]map[string]struct{}
	fifo    []fifoSlot // fifo[head:] is the eviction order, oldest first
	head    int
	seq     uint64
}

type pathCache struct {
	shards  [nPathShards]pathShard
	perCap  int // per-shard entry capacity
	hits    *obs.Counter
	misses  *obs.Counter
	invals  *obs.Counter
	evicts  *obs.Counter
	inserts *obs.Counter
}

// newPathCache sizes a cache from Options.PathCache (0 = default,
// negative = disabled, returning nil — every method is nil-safe).
func newPathCache(capacity int, r *obs.Registry) *pathCache {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = defaultPathCache
	}
	perCap := (capacity + nPathShards - 1) / nPathShards
	if perCap < 1 {
		perCap = 1
	}
	pc := &pathCache{perCap: perCap}
	for i := range pc.shards {
		pc.shards[i].entries = make(map[string]pathEnt)
		pc.shards[i].byIno = make(map[vfs.Ino]map[string]struct{})
	}
	if r != nil {
		pc.hits = r.Counter("core.pathcache.hits")
		pc.misses = r.Counter("core.pathcache.misses")
		pc.invals = r.Counter("core.pathcache.invalidations")
		pc.evicts = r.Counter("core.pathcache.evictions")
		pc.inserts = r.Counter("core.pathcache.inserts")
	}
	return pc
}

func pathShardOf(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % nPathShards)
}

// pathKey canonicalizes split components back into one cache key.
func pathKey(comps []string) string { return "/" + strings.Join(comps, "/") }

// isPathKey reports whether path already is the key pathKey would
// rebuild from its components: absolute, at least one component, none
// of them empty or ".", no trailing slash. Such a path probes the cache
// as it stands — no split, no join, no allocation on a hit.
func isPathKey(path string) bool {
	return len(path) > 1 && path[0] == '/' && path[len(path)-1] != '/' &&
		!strings.Contains(path, "//") && !strings.Contains(path, "/./") &&
		!strings.HasSuffix(path, "/.")
}

// get probes the cache. Nil-safe.
func (pc *pathCache) get(key string) (vfs.Ino, bool) {
	if pc == nil {
		return 0, false
	}
	s := &pc.shards[pathShardOf(key)]
	s.mu.Lock()
	e, ok := s.entries[key]
	s.mu.Unlock()
	if ok {
		pc.hits.Inc()
		return e.ino, true
	}
	pc.misses.Inc()
	return 0, false
}

// put records a resolved path. The caller still holds fs.mu (shared),
// so no invalidation can race in between resolution and insertion.
// Nil-safe.
func (pc *pathCache) put(key string, ino vfs.Ino, chain []vfs.Ino) {
	if pc == nil {
		return
	}
	s := &pc.shards[pathShardOf(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		return
	}
	for len(s.entries) >= pc.perCap {
		// First-in first-out: the victim is a function of the insertion
		// history alone, so a one-client run repeats on the simulated
		// clock (map iteration order, the old policy, does not).
		s.dropLocked(s.oldestLocked())
		pc.evicts.Inc()
	}
	s.seq++
	s.entries[key] = pathEnt{ino: ino, chain: chain, seq: s.seq}
	s.pushLocked(fifoSlot{key, s.seq})
	for _, ci := range chain {
		set := s.byIno[ci]
		if set == nil {
			set = make(map[string]struct{})
			s.byIno[ci] = set
		}
		set[key] = struct{}{}
	}
	pc.inserts.Inc()
}

// live reports whether sl still names a cached entry.
func (s *pathShard) live(sl fifoSlot) bool {
	e, ok := s.entries[sl.key]
	return ok && e.seq == sl.seq
}

// oldestLocked pops slots until one is live and returns its key. Only
// called with entries non-empty, and every entry has a slot, so the
// queue cannot run dry first.
func (s *pathShard) oldestLocked() string {
	for {
		sl := s.fifo[s.head]
		s.fifo[s.head] = fifoSlot{}
		s.head++
		if s.live(sl) {
			return sl.key
		}
	}
}

// pushLocked appends one slot. Before the slice would grow it is
// compacted to its live slots, so it never holds more than twice the
// shard's capacity however many invalidations leave slots behind.
func (s *pathShard) pushLocked(sl fifoSlot) {
	if len(s.fifo) == cap(s.fifo) {
		n := 0
		for _, old := range s.fifo[s.head:] {
			if s.live(old) {
				s.fifo[n] = old
				n++
			}
		}
		clear(s.fifo[n:])
		s.fifo, s.head = s.fifo[:n], 0
	}
	s.fifo = append(s.fifo, sl)
}

// dropLocked removes one entry and its reverse-index links; the shard
// mutex is held.
func (s *pathShard) dropLocked(key string) {
	e, ok := s.entries[key]
	if !ok {
		return
	}
	delete(s.entries, key)
	for _, ci := range e.chain {
		if set := s.byIno[ci]; set != nil {
			delete(set, key)
			if len(set) == 0 {
				delete(s.byIno, ci)
			}
		}
	}
}

// invalidate kills every cached path whose resolution chain contains
// ino. Called under fs.mu held exclusively, after the mutation applied.
// Nil-safe.
func (pc *pathCache) invalidate(ino vfs.Ino) {
	if pc == nil || ino == 0 {
		return
	}
	for i := range pc.shards {
		s := &pc.shards[i]
		s.mu.Lock()
		if set := s.byIno[ino]; set != nil {
			for key := range set {
				s.dropLocked(key)
				pc.invals.Inc()
			}
		}
		s.mu.Unlock()
	}
}

// WalkPath resolves a whole absolute path in one call — the
// vfs.PathWalker capability. A cache hit returns immediately (a path
// already in key form is probed as given, so the hit allocates
// nothing); a miss resolves component by component under the shared FS
// lock (each component tracked as a lookup op, exactly like vfs.Walk's
// fallback loop would) and inserts the result before the lock is
// released.
func (fs *FS) WalkPath(path string) (vfs.Ino, error) {
	key, probed := path, isPathKey(path)
	if probed {
		if ino, ok := fs.pc.get(key); ok {
			return ino, nil
		}
	}
	comps := vfs.SplitPath(path)
	if len(comps) == 0 {
		return RootIno, nil
	}
	if !probed {
		key = pathKey(comps)
		if ino, ok := fs.pc.get(key); ok {
			return ino, nil
		}
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	cur := RootIno
	chain := make([]vfs.Ino, 1, len(comps)+1)
	chain[0] = cur
	for _, c := range comps {
		op := fs.trk.Begin(obs.OpLookup)
		next, err := fs.lookup(cur, c)
		op.End()
		if err != nil {
			return 0, fmt.Errorf("walk %s at %q: %w", path, c, err)
		}
		cur = next
		chain = append(chain, cur)
	}
	fs.pc.put(key, cur, chain)
	return cur, nil
}
