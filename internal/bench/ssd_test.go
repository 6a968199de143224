package bench

import (
	"testing"

	"cffs/internal/core"
	"cffs/internal/vfs"
)

// Aged builds must reset device statistics after the churn so measured
// phases start from zero, and the aged image must actually differ from
// a fresh one.
func TestAgedBuildResetsStats(t *testing.T) {
	cfg := quick().fill()
	cfg.Aged = true
	fs, dev, err := coreVariant("C-FFS", true, true).Build(cfg, core.ModeDelayed)
	if err != nil {
		t.Fatal(err)
	}
	if st := dev.Disk().Stats(); st.Requests != 0 {
		t.Errorf("aged build left %d requests on the device stats", st.Requests)
	}
	// The churn's survivors live under /aged.
	if _, err := vfs.Walk(fs, "/aged"); err != nil {
		t.Errorf("aged build has no /aged directory: %v", err)
	}
}
