package store

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/core"
	"cffs/internal/ffs"
)

func TestUnknownBackendTypedError(t *testing.T) {
	_, err := Open(Config{Backend: "punchcards"})
	if !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("Open(punchcards) = %v, want ErrUnknownBackend", err)
	}
	if _, err := FeaturesFor(Config{Backend: "punchcards"}); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("FeaturesFor(punchcards) = %v, want ErrUnknownBackend", err)
	}
}

func TestRegistryLists(t *testing.T) {
	want := []string{"disk", "fault", "objstore", "ssd", "striped"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, p := range Providers() {
		if p.Brief == "" || p.FeaturesFor == nil || p.Open == nil {
			t.Errorf("provider %q is missing a description or hooks", p.Name)
		}
	}
}

// configFor gives each provider an in-memory config it can open.
func configFor(name string) Config {
	cfg := Config{Backend: name}
	if name == "striped" {
		cfg.Disks = 2
	}
	return cfg
}

// TestWrapperPreservesInnerFeatures is the satellite gate: a wrapper
// provider must not silently change capabilities it does not own. The
// fault wrapper adds Faulty; the striped wrapper adds Batch and
// parallelism; everything else must match the inner provider's word.
func TestWrapperPreservesInnerFeatures(t *testing.T) {
	for _, p := range Providers() {
		if p.Wraps == "" {
			continue
		}
		inner, err := ByName(p.Wraps)
		if err != nil {
			t.Fatalf("%s wraps unregistered %q: %v", p.Name, p.Wraps, err)
		}
		cfg := configFor(p.Name).fill()
		in := inner.FeaturesFor(cfg)
		out := p.FeaturesFor(cfg)
		if out.Ordered != in.Ordered || out.AtomicSectors != in.AtomicSectors ||
			out.AtomicRequests != in.AtomicRequests || out.Seek != in.Seek ||
			out.FileImage != in.FileImage || out.Stats != in.Stats || out.Discard != in.Discard {
			t.Errorf("%s (wraps %s): features %+v do not preserve inner %+v",
				p.Name, p.Wraps, out, in)
		}
		switch p.Name {
		case "fault":
			if !out.Faulty {
				t.Errorf("fault wrapper does not declare Faulty")
			}
		case "striped":
			if !out.Batch || out.Parallelism != cfg.Disks {
				t.Errorf("striped wrapper: Batch=%v Parallelism=%d, want batch with %d spindles",
					out.Batch, out.Parallelism, cfg.Disks)
			}
		}
	}
}

// TestDeclaredFeaturesMatchRuntime opens every provider and checks the
// declaration against the device that actually came back.
func TestDeclaredFeaturesMatchRuntime(t *testing.T) {
	for _, p := range Providers() {
		t.Run(p.Name, func(t *testing.T) {
			cfg := configFor(p.Name)
			bk, err := Open(cfg)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer bk.Bytes.Close()
			f := bk.Features
			if want, err := FeaturesFor(cfg); err != nil || f != want {
				t.Errorf("opened Features %+v != declared %+v (%v)", f, want, err)
			}
			_, isBatch := bk.Target.(blockio.BatchSubmitter)
			if f.Batch != isBatch {
				t.Errorf("Batch=%v but BatchSubmitter=%v", f.Batch, isBatch)
			}
			if pr, ok := bk.Target.(interface{ Parallelism() int }); ok {
				if f.Parallelism != pr.Parallelism() {
					t.Errorf("Parallelism=%d but device reports %d", f.Parallelism, pr.Parallelism())
				}
			} else if f.Parallelism != 1 {
				t.Errorf("Parallelism=%d but device has no parallelism probe", f.Parallelism)
			}
			if f.Faulty != (bk.Fault != nil) {
				t.Errorf("Faulty=%v but Fault handle=%v", f.Faulty, bk.Fault)
			}
			// A device either positions (cost depends on distance, so it
			// declares no flat price) or is flat-priced, never both.
			if fixedNs, blockNs := bk.Target.FlatCost(); f.Seek != (fixedNs == 0 && blockNs == 0) {
				t.Errorf("Seek=%v but the device declares a flat cost of %d ns + %d ns/block", f.Seek, fixedNs, blockNs)
			}
			if f.Stats {
				buf := make([]byte, blockio.BlockSize)
				if err := bk.Target.WriteV(0, [][]byte{buf}); err != nil {
					t.Fatalf("WriteV: %v", err)
				}
				if st := bk.Target.Stats(); st.Requests == 0 || st.Writes == 0 {
					t.Errorf("Stats declared but no accounting after a write: %+v", st)
				}
			}
			// A device discards exactly when it says so: the block reads
			// back destroyed and the command was counted, or neither.
			pat := bytes.Repeat([]byte{0xA5}, blockio.BlockSize)
			got := make([]byte, blockio.BlockSize)
			if err := bk.Target.WriteV(0, [][]byte{pat}); err != nil {
				t.Fatalf("WriteV: %v", err)
			}
			before := bk.Target.Stats().Discards
			if err := bk.Target.Discard(0, blockio.SectorsPerBlock); err != nil {
				t.Fatalf("Discard: %v", err)
			}
			if err := bk.Target.ReadV(0, [][]byte{got}); err != nil {
				t.Fatalf("ReadV: %v", err)
			}
			changed, rose := !bytes.Equal(got, pat), bk.Target.Stats().Discards > before
			if changed != rose || f.Discard != changed {
				t.Errorf("Discard=%v but the block changed=%v and Stats.Discards rose=%v", f.Discard, changed, rose)
			}
		})
	}
}

func TestDisksSelectsStriped(t *testing.T) {
	bk, err := Open(Config{Disks: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer bk.Bytes.Close()
	if bk.Name != "striped" || bk.Volume == nil {
		t.Errorf("Open(Disks:2) gave backend %q (volume=%v), want striped", bk.Name, bk.Volume != nil)
	}
}

func TestFaultsBeneathAnyBackend(t *testing.T) {
	for _, name := range []string{"disk", "striped", "objstore", "ssd"} {
		cfg := configFor(name)
		cfg.Faults = true
		bk, err := Open(cfg)
		if err != nil {
			t.Fatalf("Open(%s, faults): %v", name, err)
		}
		if bk.Fault == nil || !bk.Features.Faulty {
			t.Errorf("%s: Faults did not arm the injector", name)
		}
		bk.Bytes.Close()
	}
}

// TestSSDConfigKnobs checks the seam-level ssd parameters: the channel
// override must show up in both the declared Features and the opened
// device, and SSDAged must hand back a pre-dirtied FTL (every logical
// page mapped, accounting zeroed).
func TestSSDConfigKnobs(t *testing.T) {
	cfg := Config{Backend: "ssd", Channels: 3}
	f, err := FeaturesFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Parallelism != 3 {
		t.Errorf("declared Parallelism=%d with Channels=3", f.Parallelism)
	}
	bk, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bk.Bytes.Close()
	if bk.SSD == nil {
		t.Fatal("ssd backend has no SSD handle")
	}
	if got := bk.SSD.Spec().Channels; got != 3 {
		t.Errorf("opened device has %d channels, want 3", got)
	}
	if st := bk.SSD.FTL(); st.FreeBlocks == 0 {
		t.Errorf("fresh FTL has no free blocks: %+v", st)
	}

	aged, err := Open(Config{Backend: "ssd", SSDAged: true})
	if err != nil {
		t.Fatal(err)
	}
	defer aged.Bytes.Close()
	st := aged.SSD.FTL()
	if st.HostPages != 0 || st.FlashPages != 0 {
		t.Errorf("aged FTL accounting not zeroed: %+v", st)
	}
	if !aged.SSD.Spec().PreDirty {
		t.Error("SSDAged did not set PreDirty")
	}
}

func TestDetectFS(t *testing.T) {
	mk := func(t *testing.T, format func(*blockio.Device) error) *Backend {
		t.Helper()
		bk, err := Open(Config{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := format(bk.Device()); err != nil {
			t.Fatalf("format: %v", err)
		}
		return bk
	}

	cffsImg := mk(t, func(dev *blockio.Device) error {
		fs, err := core.Mkfs(dev, core.Options{EmbedInodes: true, Grouping: true})
		if err != nil {
			return err
		}
		return fs.Close()
	})
	defer cffsImg.Bytes.Close()
	if k, err := DetectFS(cffsImg.Bytes); err != nil || k != KindCFFS {
		t.Errorf("DetectFS(cffs image) = %v, %v", k, err)
	}

	ffsImg := mk(t, func(dev *blockio.Device) error {
		fs, err := ffs.Mkfs(dev, ffs.Options{})
		if err != nil {
			return err
		}
		return fs.Close()
	})
	defer ffsImg.Bytes.Close()
	if k, err := DetectFS(ffsImg.Bytes); err != nil || k != KindFFS {
		t.Errorf("DetectFS(ffs image) = %v, %v", k, err)
	}

	blank, err := Open(Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer blank.Bytes.Close()
	k, err := DetectFS(blank.Bytes)
	if !errors.Is(err, ErrUnknownImage) || k != KindUnknown {
		t.Errorf("DetectFS(blank) = %v, %v; want ErrUnknownImage", k, err)
	}

	if KindCFFS.String() != "cffs" || KindUnknown.String() != "unknown" {
		t.Errorf("FSKind strings: %v %v", KindCFFS, KindUnknown)
	}
}

// TestFileImagePersists round-trips a formatted image through a file:
// every FileImage backend must reopen what another run wrote.
func TestFileImagePersists(t *testing.T) {
	for _, name := range []string{"disk", "objstore", "ssd"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "disk.img")
			cfg := configFor(name)
			cfg.Path = path

			bk, err := Open(cfg)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			fs, err := core.Mkfs(bk.Device(), core.Options{EmbedInodes: true, Grouping: true})
			if err != nil {
				t.Fatalf("Mkfs: %v", err)
			}
			if err := fs.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := bk.Bytes.Close(); err != nil {
				t.Fatalf("close image: %v", err)
			}

			again, err := Open(cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer again.Bytes.Close()
			if k, err := DetectFS(again.Bytes); err != nil || k != KindCFFS {
				t.Errorf("reopened image: DetectFS = %v, %v", k, err)
			}
		})
	}
}
