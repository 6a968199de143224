package srv

import (
	"sync"
	"sync/atomic"
	"time"
)

// QoS is the per-tenant quality-of-service configuration.
//
// Two mechanisms compose, at different depths:
//
//   - Token-bucket admission (Rate/Burst) runs in the connection reader
//     before a request is even queued, so an over-rate tenant's own
//     reader stalls. The stall's granularity is the *connection*, not
//     the tenant: a connection that multiplexes attaches for several
//     tenants shares one reader, so an over-rate tenant's wait delays
//     the others riding the same connection. Tenant-level isolation
//     therefore assumes each tenant dials its own connections — the
//     deployment shape the client library and workload driver use; only
//     the fair-share dispatcher below isolates tenants that insist on
//     sharing one. It sits in front of the writeback throttle
//     (writeback.Daemon.Admit inside the fs entry points): admission
//     bounds how fast requests *arrive*, the writeback throttle bounds
//     how much dirty state they may *pin* once admitted.
//
//   - The fair-share dispatcher runs between the queues and the worker
//     pool that calls into the fs (and from there into C-LOOK request
//     scheduling). With FairShare on, workers round-robin across
//     tenants with pending work, one request per tenant per turn, so a
//     tenant with a thousand queued readdirs still only gets one slot
//     per cycle while a tenant with two queued reads gets serviced
//     every cycle. Per-request work is bounded (reads by msize, readdir
//     by page size), which is what makes one-request quanta fair. With
//     FairShare off all tenants share one FIFO — the measured
//     "no isolation" baseline.
//
// The buckets run on the wall clock, not the simulated disk clock: the
// simulated clock only advances when disk work is done, so pacing
// against it would deadlock an idle tenant.
type QoS struct {
	// Workers is the dispatcher pool size — the number of requests in
	// the fs concurrently. 0 means DefaultWorkers.
	Workers int
	// FairShare round-robins dispatch across tenants instead of
	// serving one global FIFO.
	FairShare bool
	// QueueCap bounds each tenant's pending-request queue (the global
	// FIFO gets QueueCap per known tenant). Overflow is answered with
	// ErrLimit instead of queued. 0 means DefaultQueueCap.
	QueueCap int
	// Rate is each tenant's sustained admission rate in requests per
	// second; 0 disables the bucket. Burst is the bucket depth, i.e.
	// how far a tenant may run ahead of the rate; 0 means DefaultBurst.
	Rate  float64
	Burst int
}

// Defaults for zero QoS fields.
const (
	DefaultWorkers  = 8
	DefaultQueueCap = 4096
	DefaultBurst    = 64
)

// bucket is a wall-clock token bucket. A nil bucket admits everything.
type bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time // injectable for tests
	sleep  func(time.Duration)
}

func newBucket(rate float64, burst int) *bucket {
	if rate <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = DefaultBurst
	}
	b := &bucket{rate: rate, burst: float64(burst), tokens: float64(burst), now: time.Now, sleep: time.Sleep}
	b.last = b.now()
	return b
}

// wait blocks until a token is available and returns how long it waited.
func (b *bucket) wait() time.Duration {
	if b == nil {
		return 0
	}
	var total time.Duration
	for {
		b.mu.Lock()
		now := b.now()
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
		if b.tokens >= 1 {
			b.tokens--
			b.mu.Unlock()
			return total
		}
		need := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
		b.mu.Unlock()
		b.sleep(need)
		total += need
	}
}

// request is one queued operation: parsed into its unit, tagged,
// admitted, waiting for a worker.
type request struct {
	c     *conn
	t     *tenant
	u     *unit
	start time.Time
}

// reqRing is a FIFO of requests that keeps its array when it drains, so
// a queue that empties between requests — the steady state of a
// closed-loop client — is not re-grown from nil on every enqueue.
type reqRing struct {
	buf  []request
	head int
	n    int
}

func (q *reqRing) push(r request) {
	if q.n == len(q.buf) {
		grown := make([]request, max(8, 2*len(q.buf)))
		copy(grown[copy(grown, q.buf[q.head:]):], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = r
	q.n++
}

func (q *reqRing) pop() request {
	r := q.buf[q.head]
	q.buf[q.head] = request{} // the ring must not pin a served unit
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return r
}

// dispatcher moves requests from per-tenant queues to the worker pool.
type dispatcher struct {
	mu     sync.Mutex
	cond   *sync.Cond
	fair   bool
	cap    int
	fifo   reqRing   // fair == false: one shared queue
	ring   []*tenant // fair == true: tenants with pending work
	next   int       // ring scan position
	closed bool
	wg     sync.WaitGroup
}

func newDispatcher(fair bool, queueCap int) *dispatcher {
	d := &dispatcher{fair: fair, cap: queueCap}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// enqueue queues r, reporting false when the tenant's queue (or the
// shared FIFO's per-tenant share) is full or the dispatcher is closed.
func (d *dispatcher) enqueue(r request) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	q := &d.fifo
	if d.fair {
		q = &r.t.pending
	}
	if q.n >= d.cap {
		return false
	}
	if d.fair && !r.t.inRing {
		d.ring = append(d.ring, r.t)
		r.t.inRing = true
	}
	q.push(r)
	r.t.m.queueDepth.Add(1)
	d.cond.Signal()
	return true
}

// dequeue blocks for the next request; ok is false once the dispatcher
// is closed and drained.
func (d *dispatcher) dequeue() (request, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.fair {
			for range d.ring {
				if d.next >= len(d.ring) {
					d.next = 0
				}
				t := d.ring[d.next]
				if t.pending.n > 0 {
					r := t.pending.pop()
					if t.pending.n == 0 {
						d.ring = append(d.ring[:d.next], d.ring[d.next+1:]...)
						t.inRing = false
					} else {
						d.next++
					}
					r.t.m.queueDepth.Add(-1)
					return r, true
				}
				d.next++
			}
		} else if d.fifo.n > 0 {
			r := d.fifo.pop()
			r.t.m.queueDepth.Add(-1)
			return r, true
		}
		if d.closed {
			return request{}, false
		}
		d.cond.Wait()
	}
}

// run starts the worker pool.
func (d *dispatcher) run(workers int, handle func(request)) {
	for i := 0; i < workers; i++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for {
				r, ok := d.dequeue()
				if !ok {
					return
				}
				handle(r)
			}
		}()
	}
}

// close drains nothing: workers finish what they dequeued, the rest is
// abandoned (their connections are closing anyway) — but the abandoned
// requests' queue-depth gauges are settled here, so srv.queue.depth
// does not read non-zero forever after a shutdown with pending work.
// Blocks until all workers exit.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	for d.fifo.n > 0 {
		d.fifo.pop().t.m.queueDepth.Add(-1)
	}
	for _, t := range d.ring {
		t.m.queueDepth.Add(int64(-t.pending.n))
		t.pending = reqRing{}
		t.inRing = false
	}
	d.ring, d.next = nil, 0
	d.cond.Broadcast()
	d.mu.Unlock()
	d.wg.Wait()
}

// tenantStack is the ambient who-is-running record, the same
// best-effort shape as the obs op stack: workers push the tenant before
// calling into the fs and pop it after, and the trace hook (which runs
// synchronously on the issuing goroutine) reads the top to label drops.
// Under concurrent workers attribution is approximate — a request may
// be blamed on a sibling tenant mid-overlap — but the value is always
// *some* currently active tenant, never garbage.
//
// The stack holds pointers to the tenants' own name fields, which never
// change while the server lives, so readers can hold the top pointer
// lock-free and a served request allocates nothing here.
type tenantStack struct {
	mu    sync.Mutex
	stack []*string
	top   atomic.Pointer[string]
}

// push makes *name the running tenant until the matching pop.
func (s *tenantStack) push(name *string) {
	s.mu.Lock()
	s.stack = append(s.stack, name)
	s.top.Store(name)
	s.mu.Unlock()
}

// pop removes the newest entry, resurfacing the one below it.
func (s *tenantStack) pop() {
	s.mu.Lock()
	if n := len(s.stack); n > 0 {
		s.stack = s.stack[:n-1]
		if n > 1 {
			s.top.Store(s.stack[n-2])
		} else {
			s.top.Store(nil)
		}
	}
	s.mu.Unlock()
}

func (s *tenantStack) current() string {
	if p := s.top.Load(); p != nil {
		return *p
	}
	return ""
}
