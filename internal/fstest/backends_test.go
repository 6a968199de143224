// Backend conformance matrix: the behavioural battery and the oracle
// model-check run against every registered store provider, through
// several mount stacks (default cache, starved cache, async
// write-behind). The store seam changes request timing, scheduling, and
// parallelism — it must never change file-system semantics, and this
// matrix is what a new backend has to pass to exist. CI shards it by
// backend via -run 'TestBackend(Conformance|Oracle)/<name>'.
package fstest_test

import (
	"fmt"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/core"
	"cffs/internal/fstest"
	"cffs/internal/store"
	"cffs/internal/vfs"
	"cffs/internal/writeback"
)

// backendNames is the provider matrix. Every registered provider must
// be here; TestBackendMatrixCoversRegistry enforces it so a future
// backend cannot dodge conformance by forgetting to list itself.
var backendNames = []string{"disk", "fault", "striped", "objstore", "ssd"}

func backendDevice(t *testing.T, backend string) *blockio.Device {
	t.Helper()
	cfg := store.Config{Backend: backend}
	if backend == "striped" {
		cfg.Disks = 2
	}
	bk, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bk.Bytes.Close() })
	return bk.Device()
}

// mountStack is one cache/daemon configuration layered over a backend.
type mountStack struct {
	name string
	opts core.Options
}

func mountStacks() []mountStack {
	return []mountStack{
		{"default", core.Options{EmbedInodes: true, Grouping: true, Mode: core.ModeDelayed}},
		// A starved cache forces constant eviction, so every path hits
		// the backend instead of the buffer cache.
		{"tinycache", core.Options{EmbedInodes: true, Grouping: true, Mode: core.ModeDelayed, CacheBlocks: 128}},
		// The write-behind daemon issues clustered batches from a
		// background goroutine — the stack most sensitive to a backend's
		// batch submission path.
		{"async", core.Options{EmbedInodes: true, Grouping: true, Mode: core.ModeDelayed,
			Writeback: writeback.Config{Enabled: true}}},
	}
}

func TestBackendMatrixCoversRegistry(t *testing.T) {
	listed := map[string]bool{}
	for _, n := range backendNames {
		listed[n] = true
	}
	for _, name := range store.Names() {
		if !listed[name] {
			t.Errorf("provider %q is registered but missing from the conformance matrix", name)
		}
	}
	if len(backendNames) != len(store.Names()) {
		t.Errorf("matrix lists %v, registry has %v", backendNames, store.Names())
	}
}

// TestSSDDeclaredCapabilities pins the ssd provider's declared Features
// to the opened device's actual behaviour: no seek curve (service time
// is address-independent), parallelism equal to the configured channel
// count, and working ordered writes. The declaration is what every
// consumer above the seam trusts; this test is what makes it true.
func TestSSDDeclaredCapabilities(t *testing.T) {
	cfg := store.Config{Backend: "ssd", Channels: 4}
	f, err := store.FeaturesFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Seek {
		t.Error("ssd declares Seek=true; the backend exists to have no seek curve")
	}
	if !f.Ordered {
		t.Error("ssd declares Ordered=false; crash enumeration depends on barriers")
	}
	if !f.Batch {
		t.Error("ssd declares Batch=false; channel makespan needs batch submission")
	}
	if f.Parallelism != 4 {
		t.Errorf("ssd declares Parallelism=%d with 4 channels", f.Parallelism)
	}

	bk, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bk.Bytes.Close() })
	if pr, ok := bk.Target.(interface{ Parallelism() int }); !ok || pr.Parallelism() != f.Parallelism {
		t.Errorf("device parallelism probe does not match declared %d", f.Parallelism)
	}

	// Seek=false, verified: a far pair of reads costs exactly what a
	// near pair costs. On the disk backend this same probe shows a
	// difference — that contrast is the experiment matrix's whole point.
	dev := bk.Device()
	buf := make([]byte, blockio.BlockSize)
	elapsed := func(block int64) int64 {
		start := bk.Target.Clock().Now()
		if err := dev.ReadBlock(block, buf); err != nil {
			t.Fatal(err)
		}
		return bk.Target.Clock().Now() - start
	}
	near := elapsed(1)
	far := elapsed(dev.Blocks() - 1)
	if near != far {
		t.Errorf("address-dependent timing on ssd: adjacent read %dns, far read %dns", near, far)
	}

	// Ordered=true, verified: a barrier write reaches the device.
	if err := dev.WriteBlockOrdered(0, buf); err != nil {
		t.Errorf("ordered write failed: %v", err)
	}
}

// TestBackendConformance runs the capability-flagged battery over every
// provider × mount stack. The file systems under test are fully
// featured, so the suite's Features come from AllFeatures; the gate
// exists for backends that are not.
func TestBackendConformance(t *testing.T) {
	for _, backend := range backendNames {
		for _, stack := range mountStacks() {
			backend, stack := backend, stack
			t.Run(fmt.Sprintf("%s/%s", backend, stack.name), func(t *testing.T) {
				fstest.Suite{
					Factory: func(t *testing.T) vfs.FileSystem {
						fs, err := core.Mkfs(backendDevice(t, backend), stack.opts)
						if err != nil {
							t.Fatal(err)
						}
						return fs
					},
					Features: fstest.AllFeatures(),
					Fsck:     fstest.FsckWith(core.Check),
				}.Run(t)
			})
		}
	}
}

// TestBackendOracle model-checks every provider against the reference
// file system under the default and async stacks, then fscks the image
// the run left behind.
func TestBackendOracle(t *testing.T) {
	for bi, backend := range backendNames {
		for si, stack := range mountStacks() {
			if stack.name == "tinycache" {
				continue // covered by the battery; oracle adds little here
			}
			backend, stack := backend, stack
			seed := uint64(8200 + 10*bi + si)
			t.Run(fmt.Sprintf("%s/%s", backend, stack.name), func(t *testing.T) {
				ops := 2000
				if testing.Short() {
					ops = 600
				}
				fs, err := core.Mkfs(backendDevice(t, backend), stack.opts)
				if err != nil {
					t.Fatal(err)
				}
				fstest.RunOracle(t, fs, ops, seed)
				fstest.FsckWith(core.Check)(t, fs)
			})
		}
	}
}
