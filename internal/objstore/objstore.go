// Package objstore simulates an object-store-style backend: every
// request pays a high fixed round-trip latency, transfers stream at a
// flat per-channel bandwidth, and there is no positioning state at all —
// no seek curve, no rotation, no on-board cache. Requests on distinct
// channels service concurrently, and the channel pool is unbounded by
// default.
//
// The device exists to test where the paper's bet breaks. C-FFS wins on
// a mechanical disk for two separable reasons: grouped placement turns
// many seeks into one (locality), and grouped transfer turns many
// requests into one (batching). An object store deletes the first reason
// entirely — addresses are just keys, adjacent means nothing — but makes
// the second reason *more* valuable, because each request carries a
// fixed multi-millisecond price no matter how small it is. Running the
// experiment matrix on this target shows which half of the C-FFS gain is
// seek locality (it evaporates) and which half is request batching (it
// survives, amplified). Hadoop Perfect File (PAPERS.md) motivates the
// same trade on HDFS: packing small files into container objects to
// amortize fixed per-request cost.
//
// The request engine is internal/flatdev, shared with the ssd backend;
// this package is its millisecond, unbounded-channel parameter set with
// no write hook — an object PUT costs what a GET costs.
package objstore

import (
	"cffs/internal/disk"
	"cffs/internal/flatdev"
	"cffs/internal/sim"
)

// Spec parameterizes the object store's timing model.
type Spec struct {
	Name string

	// RTT is the fixed per-request latency in seconds: connection,
	// protocol, and service overhead paid by every request regardless of
	// size. This is the term explicit grouping amortizes.
	RTT float64

	// Bandwidth is the streaming rate of one request in bytes/second
	// once the fixed cost is paid.
	Bandwidth float64

	// Channels bounds how many requests service concurrently; 0 means
	// unbounded (every request in a batch runs in parallel).
	Channels int
}

// DefaultSpec models a generic networked object store: 5 ms per
// request, 32 MB/s per channel, unbounded parallelism. At these numbers
// a 1 KB read costs ~5 ms and a full 64 KB group read ~7 ms — the
// request count, not the byte count, dominates small-file traffic.
func DefaultSpec() Spec {
	return Spec{Name: "objstore", RTT: 5e-3, Bandwidth: 32e6, Channels: 0}
}

// params is the spec as the flat-cost request engine takes it.
func (s Spec) params() flatdev.Params {
	return flatdev.Params{Name: "objstore", Fixed: s.RTT, Bandwidth: s.Bandwidth, Channels: s.Channels}
}

// Validate checks the spec for usable values.
func (s Spec) Validate() error { return s.params().Validate() }

// Parallelism reports how many requests a store with this spec services
// concurrently.
func (s Spec) Parallelism() int { return s.params().Parallelism() }

// Store is a simulated object store presenting a flat logical sector
// address space over a byte store: the flat-cost request engine, which
// supplies blockio.Target, blockio.BatchSubmitter and the Parallelism
// probe, under this package's Spec. It is safe for concurrent use.
type Store struct {
	*flatdev.Device
	spec Spec
}

// New builds an object store of the given byte capacity (a sector
// multiple) over an existing byte store.
func New(spec Spec, clock *sim.Clock, st disk.Store, capacity int64) (*Store, error) {
	k, err := flatdev.New(spec.params(), clock, st, capacity, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Store{Device: k, spec: spec}, nil
}

// NewMem builds an object store over a fresh in-memory image.
func NewMem(spec Spec, clock *sim.Clock, capacity int64) (*Store, error) {
	return New(spec, clock, disk.NewMemStore(capacity), capacity)
}

// Spec returns the timing parameters.
func (o *Store) Spec() Spec { return o.spec }
