package harness

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/core"
	"cffs/internal/fault"
	"cffs/internal/ffs"
	"cffs/internal/flatdev"
	"cffs/internal/ssd"
	"cffs/internal/vfs"
)

// The discard-order oracle. A discard destroys bytes on the device (the
// flat device writes a poison page through the recorded store), so a
// discard issued one write too early is a crash state in which a file
// still has its name and no longer has its data. The namespace oracle
// cannot see that and the smallfile workload could not show it (it
// writes zeros, and checks no contents), so this file has its own
// workload and its own oracle.

// discardPattern is path's content: 1-3 blocks of bytes that depend on
// the path and the offset, so no file reads as another, as zeros or as a
// poison page.
func discardPattern(path string) []byte {
	h := fnv.New32a()
	h.Write([]byte(path))
	key := h.Sum32()
	p := make([]byte, 900+key%9000)
	for i := range p {
		p[i] = byte(key>>8) + byte(i) + byte(i/251)
	}
	return p
}

// discardWorkload writes files, makes them durable, unlinks some — each
// unlink discards the file's blocks — and creates more, which the
// allocator places on the blocks just freed; twice over, so a reused
// block is itself freed and reused. Marks: "create P", "unlink P", and
// "sync" once everything created so far is on the device.
func discardWorkload(fs vfs.FileSystem, closer func() error, mark func(string)) error {
	create := func(gen string, n int) error {
		for i := 0; i < n; i++ {
			path := fmt.Sprintf("/%s%d", gen, i)
			if err := vfs.WriteFile(fs, path, discardPattern(path)); err != nil {
				return err
			}
			mark("create " + path)
		}
		if err := fs.Sync(); err != nil {
			return err
		}
		mark("sync")
		return nil
	}
	unlink := func(paths ...string) error {
		for _, path := range paths {
			if err := vfs.Remove(fs, path); err != nil {
				return err
			}
			mark("unlink " + path)
		}
		return nil
	}
	if err := create("a", 8); err != nil {
		return err
	}
	if err := unlink("/a0", "/a2", "/a4", "/a6"); err != nil {
		return err
	}
	if err := create("b", 6); err != nil {
		return err
	}
	if err := unlink("/b1", "/a1", "/b4"); err != nil {
		return err
	}
	if err := create("c", 4); err != nil {
		return err
	}
	return closer()
}

// contentOracle is the namespace oracle plus contents. A file is durable
// once a "sync" mark follows its "create" mark; from then until its
// unlink completes it must read back exactly its pattern. While its
// unlink is in flight it may already be gone, but if its name is still
// there so is every byte: the ordered write that removes the name comes
// before the discard. A file created since the last sync promises
// nothing about its contents (data writes are delayed), so it is not
// read.
func contentOracle(fs vfs.FileSystem, completed []string, inflight string) error {
	if err := NamespaceOracle(fs, completed, inflight); err != nil {
		return err
	}
	durable := make(map[string]bool)
	var created []string
	for _, m := range completed {
		switch op, path, _ := strings.Cut(m, " "); op {
		case "create":
			created = append(created, path)
		case "sync":
			for _, p := range created {
				durable[p] = true
			}
			created = created[:0]
		case "unlink":
			delete(durable, path)
		}
	}
	for path := range durable {
		got, err := vfs.ReadFile(fs, path)
		if err != nil {
			if inflight == "unlink "+path {
				continue
			}
			return fmt.Errorf("durable file %s: %v", path, err)
		}
		if want := discardPattern(path); !bytes.Equal(got, want) {
			return fmt.Errorf("durable file %s is present with wrong contents: %d bytes (want %d), %d of them poison",
				path, len(got), len(want), bytes.Count(got, []byte{flatdev.PoisonByte}))
		}
	}
	return nil
}

func cffsDiscardConfig() Config {
	opts := core.Options{EmbedInodes: true, Grouping: true, Mode: core.ModeSync}
	cfg := CFFSConfig(opts, false)
	cfg.Workload = func(dev *blockio.Device, mark func(string)) error {
		fs, err := core.Mount(dev, opts)
		if err != nil {
			return err
		}
		return discardWorkload(fs, fs.Close, mark)
	}
	cfg.Verify = func(dev *blockio.Device, completed []string, inflight string) error {
		fs, err := core.Mount(dev, opts)
		if err != nil {
			return fmt.Errorf("remount: %w", err)
		}
		return contentOracle(fs, completed, inflight)
	}
	return cfg
}

func ffsDiscardConfig() Config {
	opts := ffs.Options{Mode: ffs.ModeSync}
	cfg := FFSConfig()
	cfg.Workload = func(dev *blockio.Device, mark func(string)) error {
		fs, err := ffs.Mount(dev, opts)
		if err != nil {
			return err
		}
		return discardWorkload(fs, fs.Close, mark)
	}
	cfg.Verify = func(dev *blockio.Device, completed []string, inflight string) error {
		fs, err := ffs.Mount(dev, opts)
		if err != nil {
			return fmt.Errorf("remount: %w", err)
		}
		return contentOracle(fs, completed, inflight)
	}
	return cfg
}

func isPoison(e *fault.Entry) bool {
	return !e.Ordered && bytes.Count(e.Data, []byte{flatdev.PoisonByte}) == len(e.Data)
}

// TestDiscardOrderCrash cuts power at every write boundary of the
// discard workload — the poison writes are boundaries like any other —
// on the pre-dirtied flash device with garbage collection in flight,
// plus sampled torn and reordered states, under both file systems:
// every state must repair, and no durable file may come back changed.
func TestDiscardOrderCrash(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cffs-ssd", cffsDiscardConfig()},
		{"ffs-ssd", ffsDiscardConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var devs []*ssd.Store
			cfg := captureSSD(tc.cfg, &devs)
			cfg.Seed = 23
			res, log, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.CrashPoints != res.Writes+1 || res.TornStates == 0 || res.ReorderStates == 0 {
				t.Fatalf("covered %d of %d write boundaries, %d torn and %d reorder states",
					res.CrashPoints, res.Writes+1, res.TornStates, res.ReorderStates)
			}
			for _, f := range res.Failures {
				t.Errorf("unrepaired state: %s", f)
			}
			for _, v := range res.DurabilityViolations {
				t.Errorf("content violation: %s", v)
			}
			// The claims above are vacuous unless the stream really holds
			// discards, freed blocks really were written again, and the
			// FTL was collecting underneath.
			poison := make(map[int64]int)
			rewritten := 0
			for i := range log.Entries {
				e := &log.Entries[i]
				if isPoison(e) {
					poison[e.Off] = i
				} else if _, was := poison[e.Off]; was {
					delete(poison, e.Off)
					rewritten++
				}
			}
			st := devs[1].FTL()
			t.Logf("%d writes, %d states, %d repaired; %d pages trimmed, %d discarded blocks written again, %d GC runs",
				res.Writes, res.States(), res.Repaired, st.Trims, rewritten, st.GCRuns)
			if st.Trims == 0 || rewritten == 0 || st.GCRuns == 0 {
				t.Fatalf("vacuous: %d pages trimmed, %d discarded blocks reused, %d GC runs", st.Trims, rewritten, st.GCRuns)
			}
		})
	}
}

// TestDiscardOrderOracleSeesEarlyDiscard tests the test: the write
// stream a core would produce if unlink discarded the file's blocks
// before the ordered write that clears its name — every unlink's poison
// writes moved ahead of that unlink's first barrier — must fail the
// oracle, with a durable file present and poisoned.
func TestDiscardOrderOracleSeesEarlyDiscard(t *testing.T) {
	cfg, err := WithSSD(cffsDiscardConfig()).fill()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 23
	snap, log, err := record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	moved, from := 0, 0
	for _, m := range log.Marks {
		if strings.HasPrefix(m.Name, "unlink ") {
			op := log.Entries[from:m.Index]
			var early, rest []fault.Entry
			barrier := -1
			for i := range op {
				switch {
				case barrier < 0 && op[i].Ordered:
					barrier = i
					rest = append(rest, op[i])
				case barrier >= 0 && isPoison(&op[i]):
					early = append(early, op[i])
				default:
					rest = append(rest, op[i])
				}
			}
			if barrier < 0 || len(early) == 0 {
				t.Fatalf("%s: no ordered clear followed by discards in writes [%d,%d)", m.Name, from, m.Index)
			}
			reordered := append(append(append([]fault.Entry(nil), rest[:barrier]...), early...), rest[barrier:]...)
			copy(op, reordered)
			moved += len(early)
		}
		from = m.Index
	}
	res, err := enumerate(cfg, snap, log)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d poison writes moved ahead of their barrier: %d content violations in %d states",
		moved, len(res.DurabilityViolations), res.States())
	if len(res.DurabilityViolations) == 0 {
		t.Fatal("the oracle passed a stream that discards a file's blocks before its name is gone")
	}
	for _, v := range res.DurabilityViolations {
		if !strings.Contains(v, "present with wrong contents") {
			t.Errorf("violation of another kind: %s", v)
		}
	}
}
