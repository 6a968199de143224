package srv

import (
	"testing"
	"time"
)

// TestBucketPacing drives the token bucket on a fake clock: burst
// tokens go out instantly, then admission is paced at the configured
// rate, with waits accounted.
func TestBucketPacing(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBucket(10, 4) // 10 req/s, burst 4
	b.now = func() time.Time { return now }
	b.sleep = func(d time.Duration) { now = now.Add(d) }
	b.last = now

	for i := 0; i < 4; i++ {
		if w := b.wait(); w != 0 {
			t.Fatalf("burst token %d waited %v", i, w)
		}
	}
	// Bucket empty: the next token costs 1/rate = 100ms.
	if w := b.wait(); w != 100*time.Millisecond {
		t.Fatalf("paced wait = %v, want 100ms", w)
	}
	// Idle time refills up to burst, never beyond.
	now = now.Add(time.Hour)
	for i := 0; i < 4; i++ {
		if w := b.wait(); w != 0 {
			t.Fatalf("refilled token %d waited %v", i, w)
		}
	}
	if w := b.wait(); w != 100*time.Millisecond {
		t.Fatalf("wait after refill burst = %v, want 100ms", w)
	}
	// Rate 0 disables the bucket entirely.
	if nb := newBucket(0, 10); nb != nil {
		t.Fatal("rate 0 should yield nil bucket")
	}
	var nb *bucket
	if w := nb.wait(); w != 0 {
		t.Fatalf("nil bucket waited %v", w)
	}
}

func mkTenant(name string) *tenant {
	return &tenant{name: name, m: newTenantMetrics(nil, name)}
}

// TestDispatcherFairShare queues an aggressor burst and a victim
// trickle, then dequeues single-file: fair-share must alternate
// tenants, so the victim's requests come out near the front instead of
// behind the whole burst.
func TestDispatcherFairShare(t *testing.T) {
	d := newDispatcher(true, 1000)
	agg, vic := mkTenant("agg"), mkTenant("vic")
	for i := 0; i < 100; i++ {
		if !d.enqueue(request{t: agg, u: &unit{}}) {
			t.Fatal("aggressor enqueue refused")
		}
	}
	for i := 0; i < 2; i++ {
		if !d.enqueue(request{t: vic, u: &unit{}}) {
			t.Fatal("victim enqueue refused")
		}
	}
	var vicPos []int
	for i := 0; i < 102; i++ {
		r, ok := d.dequeue()
		if !ok {
			t.Fatal("dispatcher closed early")
		}
		if r.t == vic {
			vicPos = append(vicPos, i)
		}
	}
	if len(vicPos) != 2 || vicPos[1] > 4 {
		t.Fatalf("victim dequeued at %v; want both within the first ~4 slots", vicPos)
	}

	// FIFO mode: the victim waits behind the full burst.
	d2 := newDispatcher(false, 1000)
	for i := 0; i < 100; i++ {
		d2.enqueue(request{t: agg, u: &unit{}})
	}
	d2.enqueue(request{t: vic, u: &unit{}})
	for i := 0; i < 100; i++ {
		if r, _ := d2.dequeue(); r.t != agg {
			t.Fatalf("fifo position %d served %s, want agg", i, r.t.name)
		}
	}
	if r, _ := d2.dequeue(); r.t != vic {
		t.Fatal("fifo tail should be the victim")
	}
}

// TestDispatcherQueueCap checks per-tenant overflow reporting and that
// a full aggressor queue does not block a victim enqueue in fair mode.
func TestDispatcherQueueCap(t *testing.T) {
	d := newDispatcher(true, 3)
	agg, vic := mkTenant("agg"), mkTenant("vic")
	for i := 0; i < 3; i++ {
		if !d.enqueue(request{t: agg, u: &unit{}}) {
			t.Fatal("within-cap enqueue refused")
		}
	}
	if d.enqueue(request{t: agg, u: &unit{}}) {
		t.Fatal("over-cap enqueue accepted")
	}
	if !d.enqueue(request{t: vic, u: &unit{}}) {
		t.Fatal("victim enqueue refused while aggressor full")
	}
	if got := agg.m.queueDepth.Value(); got != 3 {
		t.Fatalf("aggressor queue depth = %d, want 3", got)
	}
	if got := vic.m.queueDepth.Value(); got != 1 {
		t.Fatalf("victim queue depth = %d, want 1", got)
	}
	// close abandons everything still queued and settles the gauges:
	// srv.queue.depth must not read non-zero forever after shutdown.
	d.close()
	if _, ok := d.dequeue(); ok {
		t.Fatal("dequeue after close returned abandoned work")
	}
	if got := agg.m.queueDepth.Value(); got != 0 {
		t.Fatalf("aggressor queue depth after close = %d, want 0", got)
	}
	if got := vic.m.queueDepth.Value(); got != 0 {
		t.Fatalf("victim queue depth after close = %d, want 0", got)
	}
}

// TestTenantStack exercises the ambient attribution stack.
func TestTenantStack(t *testing.T) {
	var s tenantStack
	if got := s.current(); got != "" {
		t.Fatalf("empty stack current = %q", got)
	}
	a, b := "a", "b"
	s.push(&a)
	if got := s.current(); got != "a" {
		t.Fatalf("current = %q, want a", got)
	}
	s.push(&b)
	if got := s.current(); got != "b" {
		t.Fatalf("current = %q, want b", got)
	}
	s.pop()
	if got := s.current(); got != "a" {
		t.Fatalf("after pop current = %q, want a", got)
	}
	s.pop()
	if got := s.current(); got != "" {
		t.Fatalf("after final pop current = %q, want empty", got)
	}
}
