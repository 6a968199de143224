package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"cffs/internal/obs"
)

// TestRunReportSmallFile is the acceptance test for machine-readable
// emission: the report must carry per-op-type disk-request counts, and
// they must show C-FFS issuing fewer requests per small-file read and
// create than the independent FFS baseline — the paper's claim in the
// registry's terms.
func TestRunReportSmallFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full comparison grid")
	}
	e, err := ByName("smallfile")
	if err != nil || e.Name != "smallfile-sync" {
		t.Fatalf("alias resolved to %q, %v; want smallfile-sync", e.Name, err)
	}
	rep := quickReport(t, e.Name)
	if len(rep.Variants) != len(grid()) {
		t.Fatalf("%d variant records, want %d", len(rep.Variants), len(grid()))
	}
	byName := map[string]VariantMetrics{}
	for _, v := range rep.Variants {
		if len(v.Phases) != 4 {
			t.Errorf("%s: %d phase records, want 4", v.Variant, len(v.Phases))
		}
		byName[v.Variant] = v
	}
	cffs, ffs := byName["C-FFS"].PerOp, byName["FFS"].PerOp
	for _, op := range []string{"readat", "create"} {
		c, f := cffs[op], ffs[op]
		if c.Ops == 0 || f.Ops == 0 || f.DiskRequests == 0 {
			t.Fatalf("%s: empty stats (C-FFS %+v, FFS %+v)", op, c, f)
		}
		if c.RequestsPerOp >= f.RequestsPerOp {
			t.Errorf("%s: C-FFS %.3f req/op vs FFS %.3f; C-FFS must issue fewer",
				op, c.RequestsPerOp, f.RequestsPerOp)
		}
	}
	// The C-FFS mechanisms must actually have fired.
	total := byName["C-FFS"].Total
	if total.Counter("core.inode.embedded_hits") == 0 {
		t.Error("no embedded-inode hits recorded")
	}
	if total.Counter("core.groupread.reads") == 0 {
		t.Error("no group reads recorded")
	}
	// The emitted JSON must round-trip.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if len(back.Tables) != len(rep.Tables) || len(back.Variants) != len(rep.Variants) {
		t.Error("JSON round trip lost tables or variants")
	}
}

func TestPerOpDerivation(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("ops.readat").Add(100)
	r.Counter("disk.requests.readat").Add(8)
	r.Counter("disk.reads.readat").Add(8)
	r.Counter("disk.requests.none").Add(3)
	per := PerOp(r.Snapshot())
	ra, ok := per["readat"]
	if !ok || ra.Ops != 100 || ra.DiskRequests != 8 || ra.RequestsPerOp != 0.08 {
		t.Errorf("readat stat = %+v", ra)
	}
	if none := per["none"]; none.DiskRequests != 3 || none.RequestsPerOp != 0 {
		t.Errorf("unattributed stat = %+v", none)
	}
	if _, ok := per["mkdir"]; ok {
		t.Error("idle op must be omitted")
	}
}
