// Package cache implements the file block cache shared by both file
// systems.
//
// Following the paper (Section 3), buffers are indexed two ways: by
// physical disk address, like the original UNIX buffer cache, and by
// logical (file, offset) identity, like the SunOS integrated page cache
// [Gingell87, Moran87]. The dual index is what makes explicit grouping
// cheap: when C-FFS reads a whole group because one of its blocks was
// requested, the other blocks enter the cache under their physical
// identity alone — no back-translation to file/offset is needed — and a
// later logical access finds them by physical address after consulting
// the owning inode.
//
// # Concurrency
//
// The cache is safe for concurrent use. Locking is fine-grained:
//
//   - the physical index is split into shards, each with its own lock;
//   - the logical index has one lock (idMu);
//   - the LRU list, dirty accounting and dirty flags share one lock
//     (stateMu);
//   - per-buffer pin counts are atomic, and each buffer carries a ready
//     channel so concurrent misses on the same block single-flight the
//     disk read.
//
// The lock order is shard → idMu → stateMu; disk I/O is issued with no
// cache lock held. Pins are only acquired under a shard lock or idMu, so
// an evictor holding a buffer's shard lock plus idMu and observing zero
// pins knows no new pin can race it.
//
// Callers may read the Data of a shared pinned buffer concurrently, but
// mutating Data requires the caller to exclude every other user of that
// block — C-FFS does so with its file-system-level writer lock (see the
// lock hierarchy in internal/core).
package cache

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cffs/internal/blockio"
	"cffs/internal/obs"
)

// ID is the logical identity of a cached block: a file and a block index
// within it. Metadata blocks use reserved Ino values chosen by the file
// system.
type ID struct {
	Ino    uint64
	LBlock int64
}

// Buf is one cached block. Buffers returned by Read/Alloc are pinned;
// callers must Release them when done. Data is exactly one block.
type Buf struct {
	Block int64 // physical block number
	Data  []byte

	id    ID   // guarded by Cache.idMu
	hasID bool // guarded by Cache.idMu

	dirty bool // guarded by Cache.stateMu
	gone  bool // guarded by Cache.stateMu; removed from the cache

	pins    atomic.Int32
	lastUse atomic.Int64 // Cache.useTick value at the last touch

	// prefetched marks a block brought in speculatively (ReadRun,
	// ReadRuns) rather than on demand; the first hit consumes the mark as
	// "used", removal of a still-marked block counts as "unused". The
	// ratio of the two is the group-read fill ratio. The mark is kept
	// whether or not a registry is attached: the file system's group-read
	// policy reads the resolved counts, and a policy may not depend on
	// being observed.
	prefetched atomic.Bool

	// loaded is set once Data holds the block, just before ready is
	// closed, so the hit path learns a buffer is usable from one atomic
	// load instead of a receive on ready (each channel operation, even
	// on a closed channel, takes the runtime's channel lock). A failed
	// load never sets it: its waiters go through ready to loadErr.
	loaded  atomic.Bool
	loadErr error         // written before ready is closed
	ready   chan struct{} // closed once Data is loaded (or the load failed)

	c          *Cache
	prev, next *Buf // LRU list links, guarded by Cache.stateMu
}

// Dirty reports whether the buffer has unwritten modifications.
func (b *Buf) Dirty() bool {
	b.c.stateMu.Lock()
	defer b.c.stateMu.Unlock()
	return b.dirty
}

// ID returns the logical identity and whether one has been assigned.
func (b *Buf) ID() (ID, bool) {
	b.c.idMu.Lock()
	defer b.c.idMu.Unlock()
	return b.id, b.hasID
}

// Release unpins the buffer, making it evictable again.
func (b *Buf) Release() {
	if b.pins.Add(-1) < 0 {
		panic(fmt.Sprintf("cache: release of unpinned block %d", b.Block))
	}
}

// wait blocks until the buffer's load completes and reports its outcome.
func (b *Buf) wait() error {
	if b.loaded.Load() {
		return nil
	}
	<-b.ready
	return b.loadErr
}

// publish marks a successfully loaded buffer usable and wakes its
// waiters. loaded is stored first: whoever observes it must never have
// to wait on ready, and the store orders the Data writes before it.
func (b *Buf) publish() {
	b.loaded.Store(true)
	close(b.ready)
}

// Stats counts cache activity. Misses counts demand misses only: blocks
// a caller asked for that were not resident (Read, ReadDemand). Blocks
// brought in speculatively by group reads (ReadRun, ReadRuns) are
// PrefetchFills — folding them into Misses would inflate the demand-miss
// rate precisely when grouping works best. Each speculative fill
// resolves once: PrefetchUsed on its first hit, PrefetchUnused when it
// leaves the cache (evicted, invalidated or flushed) without one.
type Stats struct {
	Hits           int64
	Misses         int64
	PrefetchFills  int64
	PrefetchUsed   int64
	PrefetchUnused int64
	Evictions      int64
	WriteBacks     int64 // blocks written by Sync/eviction/WriteSync
}

// nShards is the physical-index shard count. Adjacent blocks land in
// different shards, so a group read's insertions spread across locks.
const nShards = 16

// shard is one slice of the physical index.
type shard struct {
	mu     sync.Mutex
	byPhys map[int64]*Buf
}

// Cache is a fixed-capacity write-back block cache over a block device.
// It is safe for concurrent use; see the package comment for the locking
// design. Under concurrent insertion the capacity is a soft bound:
// in-flight loads may transiently overshoot it by the number of
// concurrent missers.
type Cache struct {
	dev      *blockio.Device
	capacity int

	shards [nShards]shard

	idMu sync.Mutex // guards byID and Buf.id/hasID
	byID map[ID]*Buf

	// stateMu guards the LRU list, ndirty, and Buf.dirty/gone.
	// LRU list with sentinel: lru.next = most recent.
	stateMu sync.Mutex
	lru     Buf
	ndirty  int

	n       atomic.Int64 // resident blocks
	useTick atomic.Int64 // advances on every touch; drives the re-link skip

	hits       atomic.Int64
	misses     atomic.Int64
	prefFills  atomic.Int64
	prefUsed   atomic.Int64
	prefUnused atomic.Int64
	evictions  atomic.Int64
	writeBacks atomic.Int64

	// m holds optional obs instruments; every field is nil (a no-op
	// recorder) until SetMetrics attaches a registry.
	m cacheMetrics
}

// cacheMetrics is the cache's instrument set. obs instruments are
// nil-safe, so an unset cacheMetrics records nothing.
type cacheMetrics struct {
	shardHits   [nShards]*obs.Counter
	logicalHits *obs.Counter
	misses      *obs.Counter
	dedup       *obs.Counter
	evictions   *obs.Counter
	writeBacks  *obs.Counter
	prefLoaded  *obs.Counter
	prefUsed    *obs.Counter
	prefUnused  *obs.Counter
}

// evictFlushBatch bounds how many of the oldest dirty seed buffers are
// pushed out together (via FlushClustered) when eviction hits a dirty
// tail, so delayed writes stay clustered even under memory pressure.
// The write-behind daemon (internal/writeback) uses the same path with
// its own batch size.
const evictFlushBatch = 64

// evictRetries bounds how often an evictor re-picks a victim after
// losing a race (the victim got pinned, flushed-and-redirtied, or
// removed by a concurrent evictor) before giving up.
const evictRetries = 64

// New creates a cache of the given capacity in blocks.
func New(dev *blockio.Device, capacity int) *Cache {
	if capacity < 4 {
		panic(fmt.Sprintf("cache: capacity %d too small", capacity))
	}
	c := &Cache{
		dev:      dev,
		capacity: capacity,
		byID:     make(map[ID]*Buf),
	}
	for i := range c.shards {
		c.shards[i].byPhys = make(map[int64]*Buf)
	}
	c.lru.next = &c.lru
	c.lru.prev = &c.lru
	return c
}

func (c *Cache) shard(phys int64) *shard { return &c.shards[uint64(phys)%nShards] }

// SetMetrics attaches a registry the cache records into: per-shard hit
// counters (cache.hits.shard<i>), logical-index hits, demand misses
// (cache.misses — speculative group-read fills count under
// cache.prefetch.loaded instead), single-flight dedupe count,
// evictions, write-backs and the group-read prefetch fill counters.
// Call it at mount, before concurrent use.
func (c *Cache) SetMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	for i := range c.m.shardHits {
		c.m.shardHits[i] = r.Counter(fmt.Sprintf("cache.hits.shard%02d", i))
	}
	c.m.logicalHits = r.Counter("cache.hits.logical")
	c.m.misses = r.Counter("cache.misses")
	c.m.dedup = r.Counter("cache.singleflight.dedup")
	c.m.evictions = r.Counter("cache.evictions")
	c.m.writeBacks = r.Counter("cache.writebacks")
	c.m.prefLoaded = r.Counter("cache.prefetch.loaded")
	c.m.prefUsed = r.Counter("cache.prefetch.used")
	c.m.prefUnused = r.Counter("cache.prefetch.unused")
}

// hit records a hit on b found through the physical index.
func (c *Cache) hit(b *Buf) {
	c.hits.Add(1)
	c.usePrefetched(b)
	if c.m.misses != nil { // metrics attached
		c.m.shardHits[uint64(b.Block)%nShards].Inc()
	}
}

// usePrefetched resolves b's speculative mark as used on a hit. Load
// before swap: all but the first hit on a block pay one atomic load.
func (c *Cache) usePrefetched(b *Buf) {
	if b.prefetched.Load() && b.prefetched.Swap(false) {
		c.prefUsed.Add(1)
		c.m.prefUsed.Inc()
	}
}

// Device returns the underlying block device.
func (c *Cache) Device() *blockio.Device { return c.dev }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		PrefetchFills:  c.prefFills.Load(),
		PrefetchUsed:   c.prefUsed.Load(),
		PrefetchUnused: c.prefUnused.Load(),
		Evictions:      c.evictions.Load(),
		WriteBacks:     c.writeBacks.Load(),
	}
}

// Len returns the number of resident blocks.
func (c *Cache) Len() int { return int(c.n.Load()) }

// Capacity returns the cache capacity in blocks.
func (c *Cache) Capacity() int { return c.capacity }

// NDirty returns the number of dirty resident blocks.
func (c *Cache) NDirty() int {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.ndirty
}

// touch moves a buffer to the most-recent end of the LRU list. The move
// is amortized: a buffer touched again within the last capacity/8
// touches is already near the MRU end, and skipping its re-link keeps
// the hot read path off stateMu — under concurrent cache-hit reads the
// global LRU lock is otherwise the first serialization point. Fresh
// buffers (lastUse zero) always link, so single-touch access patterns
// see exact LRU.
func (c *Cache) touch(b *Buf) {
	tick := c.useTick.Add(1)
	if last := b.lastUse.Swap(tick); last != 0 && tick-last <= int64(c.capacity/8) {
		return
	}
	c.stateMu.Lock()
	if !b.gone {
		c.unlinkLocked(b)
		b.next = c.lru.next
		b.prev = &c.lru
		c.lru.next.prev = b
		c.lru.next = b
	}
	c.stateMu.Unlock()
}

// unlinkLocked removes a buffer from the LRU list; stateMu is held.
func (c *Cache) unlinkLocked(b *Buf) {
	if b.prev != nil {
		b.prev.next = b.next
		b.next.prev = b.prev
		b.prev, b.next = nil, nil
	}
}

// newBuf builds an unpublished buffer for phys.
func (c *Cache) newBuf(phys int64) *Buf {
	return &Buf{
		Block: phys,
		Data:  make([]byte, blockio.BlockSize),
		c:     c,
		ready: make(chan struct{}),
	}
}

// Peek returns the resident buffer for a physical block without pinning
// or disk I/O, or nil. The result is a residency hint: without a pin (or
// external exclusion) the buffer may be evicted at any time, and it may
// still be loading.
func (c *Cache) Peek(phys int64) *Buf {
	s := c.shard(phys)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byPhys[phys]
}

// GetByID returns the resident buffer with the given logical identity,
// pinned, or nil. This is the logical half of the dual index.
func (c *Cache) GetByID(id ID) *Buf {
	c.idMu.Lock()
	b := c.byID[id]
	if b == nil {
		c.idMu.Unlock()
		return nil
	}
	b.pins.Add(1)
	c.idMu.Unlock()
	c.touch(b)
	if err := b.wait(); err != nil {
		b.Release()
		return nil
	}
	c.hits.Add(1)
	c.usePrefetched(b)
	c.m.logicalHits.Inc()
	return b
}

// Read returns the buffer for a physical block, pinned, reading it from
// disk on a miss. Concurrent misses on the same block issue one disk
// read; the losers wait for the winner's load.
func (c *Cache) Read(phys int64) (*Buf, error) {
	s := c.shard(phys)
	s.mu.Lock()
	if b := s.byPhys[phys]; b != nil {
		b.pins.Add(1)
		s.mu.Unlock()
		if c.m.dedup != nil && !b.loaded.Load() {
			select {
			case <-b.ready:
			default:
				// Another goroutine's load is still in flight; this
				// caller is about to wait on it instead of issuing its
				// own read — the single-flight save.
				c.m.dedup.Inc()
			}
		}
		c.touch(b)
		if err := b.wait(); err != nil {
			b.Release()
			return nil, err
		}
		c.hit(b)
		return b, nil
	}
	b := c.newBuf(phys)
	b.pins.Add(1) // the caller's pin; also keeps the load unevictable
	s.byPhys[phys] = b
	c.n.Add(1)
	s.mu.Unlock()
	c.misses.Add(1)
	c.m.misses.Inc()
	c.touch(b)
	if err := c.makeRoom(); err != nil {
		c.fail(b, err)
		return nil, err
	}
	if err := c.dev.ReadBlock(phys, b.Data); err != nil {
		c.fail(b, err)
		return nil, err
	}
	b.publish()
	return b, nil
}

// Alloc returns a buffer for a physical block without reading the disk:
// the caller promises to initialize the full block (fresh allocations,
// full overwrites). A resident buffer is returned as-is.
func (c *Cache) Alloc(phys int64) (*Buf, error) {
	s := c.shard(phys)
	s.mu.Lock()
	if b := s.byPhys[phys]; b != nil {
		b.pins.Add(1)
		s.mu.Unlock()
		c.touch(b)
		if err := b.wait(); err != nil {
			b.Release()
			return nil, err
		}
		c.hit(b)
		return b, nil
	}
	b := c.newBuf(phys)
	b.publish() // zero-filled by construction; nothing to load
	b.pins.Add(1)
	s.byPhys[phys] = b
	c.n.Add(1)
	s.mu.Unlock()
	c.touch(b)
	if err := c.makeRoom(); err != nil {
		c.forget(b)
		b.Release()
		return nil, err
	}
	return b, nil
}

// fail publishes a load error to any waiters and withdraws the buffer.
func (c *Cache) fail(b *Buf, err error) {
	b.loadErr = err
	close(b.ready)
	c.forget(b)
	b.Release()
}

// forget force-removes a buffer from every structure regardless of pins;
// outstanding holders keep a detached buffer that is no longer the
// cache's copy of the block.
func (c *Cache) forget(b *Buf) {
	s := c.shard(b.Block)
	s.mu.Lock()
	c.idMu.Lock()
	c.stateMu.Lock()
	if s.byPhys[b.Block] == b {
		c.removeLocked(s, b)
	}
	c.stateMu.Unlock()
	c.idMu.Unlock()
	s.mu.Unlock()
}

// makeRoom evicts until the cache is back within capacity.
func (c *Cache) makeRoom() error {
	for c.n.Load() > int64(c.capacity) {
		if err := c.evictOne(); err != nil {
			return err
		}
	}
	return nil
}

// evictOne removes the least recently used unpinned buffer. If that
// buffer is dirty, the oldest dirty buffers are flushed as one scheduled
// batch first, so that eviction under write pressure still produces
// clustered disk writes. Races with concurrent pinners, flushers, and
// evictors are resolved by re-picking the victim.
func (c *Cache) evictOne() error {
	for attempt := 0; attempt < evictRetries; attempt++ {
		c.stateMu.Lock()
		var victim *Buf
		for b := c.lru.prev; b != &c.lru; b = b.prev {
			if b.pins.Load() == 0 {
				victim = b
				break
			}
		}
		if victim == nil {
			c.stateMu.Unlock()
			return fmt.Errorf("cache: all %d buffers pinned", c.n.Load())
		}
		dirty := victim.dirty
		c.stateMu.Unlock()

		if dirty {
			if _, err := c.FlushClustered(evictFlushBatch); err != nil {
				return err
			}
			continue // re-pick: the victim should now be clean
		}

		// Take the locks in order and re-validate: holding the shard
		// lock and idMu blocks new pins on the victim.
		s := c.shard(victim.Block)
		s.mu.Lock()
		c.idMu.Lock()
		c.stateMu.Lock()
		ok := s.byPhys[victim.Block] == victim &&
			victim.pins.Load() == 0 && !victim.dirty
		if ok {
			c.removeLocked(s, victim)
		}
		c.stateMu.Unlock()
		c.idMu.Unlock()
		s.mu.Unlock()
		if ok {
			c.evictions.Add(1)
			c.m.evictions.Inc()
			return nil
		}
	}
	return fmt.Errorf("cache: eviction starved after %d attempts", evictRetries)
}

// removeLocked detaches a buffer from the maps, the LRU list and the
// dirty accounting. The buffer's shard lock, idMu and stateMu are held.
func (c *Cache) removeLocked(s *shard, b *Buf) {
	delete(s.byPhys, b.Block)
	if b.hasID {
		delete(c.byID, b.id)
		b.hasID = false
	}
	c.unlinkLocked(b)
	if b.dirty {
		c.ndirty--
		b.dirty = false
	}
	if b.prefetched.Load() && b.prefetched.Swap(false) {
		c.prefUnused.Add(1)
		c.m.prefUnused.Inc()
	}
	b.gone = true
	c.n.Add(-1)
}

// MarkDirty flags the buffer for delayed write-back.
func (c *Cache) MarkDirty(b *Buf) {
	c.stateMu.Lock()
	if !b.dirty {
		b.dirty = true
		c.ndirty++
	}
	c.stateMu.Unlock()
}

// SetID assigns (or reassigns) the logical identity of a buffer,
// maintaining the logical index.
func (c *Cache) SetID(b *Buf, id ID) {
	c.idMu.Lock()
	defer c.idMu.Unlock()
	if b.hasID {
		if b.id == id {
			return
		}
		delete(c.byID, b.id)
	}
	// A stale mapping for this identity (e.g. a reallocated block) is
	// displaced; the physical index remains authoritative.
	if old := c.byID[id]; old != nil {
		old.hasID = false
	}
	b.id = id
	b.hasID = true
	c.byID[id] = b
}

// DropID removes a buffer's logical identity (file truncated or removed).
func (c *Cache) DropID(b *Buf) {
	c.idMu.Lock()
	defer c.idMu.Unlock()
	if b.hasID {
		delete(c.byID, b.id)
		b.hasID = false
	}
}

// WriteSync writes one buffer through to disk immediately and marks it
// clean. This is the ordered synchronous metadata write of conventional
// file systems — the operation embedded inodes exist to halve. It is
// issued as an explicit ordering barrier so fault injection knows the
// write must be durable before any later write (and after all earlier
// ones).
func (c *Cache) WriteSync(b *Buf) error {
	if err := c.dev.WriteBlockOrdered(b.Block, b.Data); err != nil {
		return err
	}
	c.stateMu.Lock()
	if b.dirty {
		b.dirty = false
		c.ndirty--
	}
	c.stateMu.Unlock()
	c.writeBacks.Add(1)
	c.m.writeBacks.Inc()
	return nil
}

// Invalidate drops a block from the cache even if dirty. File systems
// call this when freeing blocks, so data of deleted files is never
// written back — a large part of why delayed-write deletes are fast.
func (c *Cache) Invalidate(phys int64) {
	s := c.shard(phys)
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.byPhys[phys]
	if b == nil {
		return
	}
	c.idMu.Lock()
	c.stateMu.Lock()
	if b.pins.Load() > 0 {
		c.stateMu.Unlock()
		c.idMu.Unlock()
		panic(fmt.Sprintf("cache: invalidate of pinned block %d", phys))
	}
	c.removeLocked(s, b)
	c.stateMu.Unlock()
	c.idMu.Unlock()
}

// ReadRun ensures blocks [start, start+count) are resident, issuing the
// fewest possible disk requests: each maximal run of missing blocks is
// one scatter/gather read. Resident blocks (clean or dirty) are left
// untouched. This is the group-read primitive of explicit grouping, and
// its fills are speculative: nobody has asked for most of these blocks
// yet, so each is marked and later resolves as used or unused.
//
// The buffers of a run are pinned while the run is assembled so that
// inserting the tail cannot evict the head; to keep that safe on tiny
// caches, runs longer than half the capacity are split. Blocks another
// goroutine is already loading are left to that goroutine, splitting the
// run around them.
func (c *Cache) ReadRun(start int64, count int) error {
	return c.readRun(start, count, false)
}

// ReadDemand is ReadRun for blocks the caller is about to consume, every
// one of them: the physically contiguous blocks of one read request,
// fetched as one disk request instead of block by block. Its fills are
// demand misses, not speculation — they carry no mark and say nothing
// about whether group reads pay.
func (c *Cache) ReadDemand(start int64, count int) error {
	return c.readRun(start, count, true)
}

// readRun is ReadRun and ReadDemand: the two differ only in how the
// blocks they bring in are accounted.
func (c *Cache) readRun(start int64, count int, demand bool) error {
	maxRun := c.maxClaim()
	i := 0
	for i < count {
		claimed := c.claimMissing(start+int64(i), min(count-i, maxRun))
		if len(claimed) == 0 {
			i++
			continue
		}
		if demand {
			c.misses.Add(int64(len(claimed)))
			c.m.misses.Add(int64(len(claimed)))
		} else {
			c.markSpeculative(claimed)
		}
		if err := c.makeRoom(); err != nil {
			return c.failAll(claimed, err)
		}
		bufs := make([][]byte, len(claimed))
		for k, b := range claimed {
			bufs[k] = b.Data
		}
		if err := c.dev.ReadBlocks(start+int64(i), bufs); err != nil {
			return c.failAll(claimed, err)
		}
		if !demand {
			c.prefFills.Add(int64(len(claimed)))
		}
		publishAll(claimed)
		i += len(claimed)
	}
	return nil
}

// maxClaim bounds how many placeholders one call holds pinned at once.
func (c *Cache) maxClaim() int { return max(c.capacity/2, 1) }

// claimMissing inserts pinned placeholders for the blocks from start on
// that are not resident, stopping at the first that is or after limit.
func (c *Cache) claimMissing(start int64, limit int) []*Buf {
	var claimed []*Buf
	for len(claimed) < limit {
		phys := start + int64(len(claimed))
		s := c.shard(phys)
		s.mu.Lock()
		if s.byPhys[phys] != nil {
			s.mu.Unlock()
			break
		}
		b := c.newBuf(phys)
		b.pins.Add(1)
		s.byPhys[phys] = b
		c.n.Add(1)
		s.mu.Unlock()
		c.touch(b)
		claimed = append(claimed, b)
	}
	return claimed
}

// markSpeculative marks bufs as speculative fills, not demand misses.
// The demand access that triggered the read follows as an ordinary
// Read, which finds its block resident and records a hit plus a "used"
// mark — the prefetch hid the miss, which is the fact worth measuring.
func (c *Cache) markSpeculative(bufs []*Buf) {
	c.m.prefLoaded.Add(int64(len(bufs)))
	for _, b := range bufs {
		b.prefetched.Store(true)
	}
}

// failAll withdraws a claimed run whose load failed and returns err.
func (c *Cache) failAll(bufs []*Buf, err error) error {
	for _, b := range bufs {
		c.fail(b, err)
	}
	return err
}

// publishAll makes a loaded run usable and drops the loader's pins.
func publishAll(bufs []*Buf) {
	for _, b := range bufs {
		b.publish()
		b.Release()
	}
}

// Run names a block range for ReadRuns.
type Run struct {
	Start int64
	Count int
}

// ReadRuns ensures every block range in runs is resident, issuing all
// missing sub-runs together as ONE scheduled batch (a single
// Device.Submit). Where ReadRun's per-run reads serialize, a batch lets
// a striped volume service runs that land on different spindles in
// parallel — this is the group-readahead primitive: the demand group
// plus the next few related group extents go out as one fan-out.
//
// Like ReadRun, resident and in-flight blocks are skipped and the fills
// are speculative, and the total claimed at once is capped at half the
// cache capacity; runs past the cap are simply not prefetched (the
// eventual demand access brings them in).
func (c *Cache) ReadRuns(runs []Run) error {
	maxRun := c.maxClaim()
	type claim struct {
		start int64
		bufs  []*Buf
	}
	var claims []claim
	total := 0
	for _, r := range runs {
		for i := 0; i < r.Count && total < maxRun; {
			claimed := c.claimMissing(r.Start+int64(i), min(r.Count-i, maxRun-total))
			if len(claimed) == 0 {
				i++
				continue
			}
			claims = append(claims, claim{start: r.Start + int64(i), bufs: claimed})
			total += len(claimed)
			i += len(claimed)
		}
	}
	if len(claims) == 0 {
		return nil
	}
	all := make([]*Buf, 0, total)
	for _, cl := range claims {
		all = append(all, cl.bufs...)
	}
	c.markSpeculative(all)
	if err := c.makeRoom(); err != nil {
		return c.failAll(all, err)
	}
	reqs := make([]blockio.Req, len(claims))
	for i, cl := range claims {
		bufs := make([][]byte, len(cl.bufs))
		for k, b := range cl.bufs {
			bufs[k] = b.Data
		}
		reqs[i] = blockio.Req{Block: cl.start, Bufs: bufs}
	}
	if err := c.dev.Submit(reqs); err != nil {
		return c.failAll(all, err)
	}
	c.prefFills.Add(int64(len(all)))
	publishAll(all)
	return nil
}

// Sync writes back every dirty buffer as one scheduled, merged batch.
func (c *Cache) Sync() error {
	_, err := c.flushDirty(func(*Buf) bool { return true })
	return err
}

// FlushClustered writes back up to seeds of the oldest dirty buffers
// together with every dirty buffer physically contiguous with them, as
// one scheduled batch, and returns the number of blocks written.
// Expanding each seed to its full dirty run is what keeps write-behind
// clustered: the oldest dirty block of an explicit group drags the rest
// of the group's dirty blocks into the same batch, where Submit merges
// the physically adjacent ones into scatter/gather transfers. Both
// eviction pressure and the write-behind daemon flush through here, so
// partial write-back never degrades into single-block dribbles.
func (c *Cache) FlushClustered(seeds int) (int, error) {
	victims := make(map[*Buf]bool)
	c.stateMu.Lock()
	marked := 0
	var picked []*Buf
	for b := c.lru.prev; b != &c.lru && marked < seeds; b = b.prev {
		if b.dirty {
			victims[b] = true
			picked = append(picked, b)
			marked++
		}
	}
	c.stateMu.Unlock()
	// Grow each seed into its maximal run of resident dirty neighbors.
	// Residency and dirtiness are re-checked under stateMu by flushDirty,
	// so a raced eviction here only costs a smaller batch.
	for _, b := range picked {
		for dir := int64(-1); dir <= 1; dir += 2 {
			for off := dir; ; off += dir {
				nb := c.Peek(b.Block + off)
				if nb == nil || victims[nb] || !nb.Dirty() {
					break
				}
				victims[nb] = true
			}
		}
	}
	return c.flushDirty(func(b *Buf) bool { return victims[b] })
}

// flushDirty writes back dirty buffers selected by want, in one Submit,
// returning the number of blocks written. The batch is collected under
// stateMu and submitted without cache locks; concurrent flushers may
// write a block twice (harmless), and the dirty check on completion
// keeps the accounting exact.
func (c *Cache) flushDirty(want func(*Buf) bool) (int, error) {
	var bufs []*Buf
	c.stateMu.Lock()
	for b := c.lru.next; b != &c.lru; b = b.next {
		if b.dirty && want(b) {
			bufs = append(bufs, b)
		}
	}
	c.stateMu.Unlock()
	if len(bufs) == 0 {
		return 0, nil
	}
	sort.Slice(bufs, func(i, j int) bool { return bufs[i].Block < bufs[j].Block })
	reqs := make([]blockio.Req, len(bufs))
	for i, b := range bufs {
		reqs[i] = blockio.Req{Write: true, Block: b.Block, Bufs: [][]byte{b.Data}}
	}
	if err := c.dev.Submit(reqs); err != nil {
		return 0, err
	}
	c.stateMu.Lock()
	for _, b := range bufs {
		if b.dirty {
			b.dirty = false
			c.ndirty--
			c.writeBacks.Add(1)
			c.m.writeBacks.Inc()
		}
	}
	c.stateMu.Unlock()
	return len(bufs), nil
}

// Flush writes back all dirty data and then empties the cache. The
// benchmark harness calls this between phases so each phase starts cold,
// as the paper's methodology requires ("we forcefully write back all
// dirty blocks before considering the measurement complete"). Flush
// requires a quiescent cache: it fails on any pinned buffer.
func (c *Cache) Flush() error {
	if err := c.Sync(); err != nil {
		return err
	}
	for si := range c.shards {
		s := &c.shards[si]
		s.mu.Lock()
		for _, b := range s.byPhys {
			if b.pins.Load() > 0 {
				s.mu.Unlock()
				return fmt.Errorf("cache: Flush with pinned block %d", b.Block)
			}
			c.idMu.Lock()
			c.stateMu.Lock()
			c.removeLocked(s, b)
			c.stateMu.Unlock()
			c.idMu.Unlock()
		}
		s.mu.Unlock()
	}
	return nil
}
