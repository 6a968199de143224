// Package fsck is the offline, repairing consistency checker for both
// file systems: one engine (Run, engine.go) over a per-format Layout,
// and the Report it returns. The paper's price for embedded inodes is
// that inodes lose their static locations; its answer is that every
// inode can still be found by walking the directory hierarchy from the
// root, and the allocation state rebuilt from that walk. That is FFS's
// fsck with one thing changed — where an inode is — so C-FFS and FFS run
// the same algorithm here and differ only in the Layout they supply.
//
// A run has up to four phases:
//
//  1. Walk. Claim the fixed metadata, then from the root claim every
//     block each inode reaches: first claimant wins, and a pointer that
//     is out of range or already claimed is planned for cutting. The
//     walk follows the pointers that exist, so its cost is bounded by
//     the image whatever a size field says (eachData). Then the Walked
//     hook, then the cross-check of separately located inodes, block
//     bitmaps and the layout's own group state against what the walk
//     found. A fix enters the plan only with its problem line
//     (Walk.fix), so a clean report means an empty plan.
//  2. Apply the plan (then the Applied hook) and walk again, at most
//     maxPasses times, until a walk plans nothing.
//  3. Rewrite the allocation state from the last walk; the Rebuilt hook.
//  4. A verification walk: whatever it reports is Unrepairable; if
//     nothing, the Verified hook.
//
// A detect-only run, or a clean image, stops after the first walk. The
// hooks are C-FFS's directory-index verification, drop and rebuild and
// its clean flag; FFS has none. internal/lfs recovers by checkpoint, a
// different algorithm, and shares only the Report.
package fsck

import (
	"encoding/json"
	"fmt"
	"io"
)

// Report is the result of a check.
type Report struct {
	FS          string   `json:"fs,omitempty"` // which checker ran (cffs, ffs, lfs)
	Files       int      `json:"files"`        // regular files found by the namespace walk
	Dirs        int      `json:"dirs"`         // directories found (including the root)
	UsedBlocks  int      `json:"used_blocks"`  // blocks referenced by the walk (data + metadata)
	Problems    []string `json:"problems,omitempty"`
	RepairsMade int      `json:"repairs_made"`
	// Unrepairable holds the problems a verification pass still found
	// after repair ran. Empty after a successful repair; meaningless
	// (always empty) on a detect-only run.
	Unrepairable []string `json:"unrepairable,omitempty"`
}

// Clean reports whether the image was consistent when the check began.
func (r *Report) Clean() bool { return len(r.Problems) == 0 }

// Outcome classifies a finished check for callers that gate on it: the
// crash-enumeration harness, CI, and cmd/fsck's exit status.
type Outcome int

const (
	// OutcomeClean: the image was consistent; nothing to do.
	OutcomeClean Outcome = iota
	// OutcomeRepaired: problems were found and every one was repaired —
	// a verification pass over the repaired image came back clean.
	OutcomeRepaired
	// OutcomeUnrepaired: problems remain on the image, either because
	// repair was not requested or because it could not fix everything.
	OutcomeUnrepaired
)

// String names the outcome for reports and logs.
func (o Outcome) String() string {
	switch o {
	case OutcomeClean:
		return "clean"
	case OutcomeRepaired:
		return "repaired"
	default:
		return "unrepairable"
	}
}

// ExitCode maps the outcome to cmd/fsck's exit status, following the
// Unix fsck convention: 0 clean, 1 errors corrected, 4 errors left
// uncorrected.
func (o Outcome) ExitCode() int {
	switch o {
	case OutcomeClean:
		return 0
	case OutcomeRepaired:
		return 1
	default:
		return 4
	}
}

// Outcome classifies the report.
func (r *Report) Outcome() Outcome {
	switch {
	case len(r.Unrepairable) > 0:
		return OutcomeUnrepaired
	case len(r.Problems) > 0 && r.RepairsMade == 0:
		return OutcomeUnrepaired // detected but not corrected
	case len(r.Problems) > 0:
		return OutcomeRepaired
	default:
		return OutcomeClean
	}
}

// jsonReport is the machine-readable envelope: the report plus its
// derived classification, so consumers need not re-implement Outcome.
type jsonReport struct {
	*Report
	Outcome  string `json:"outcome"`
	ExitCode int    `json:"exit_code"`
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonReport{Report: r, Outcome: r.Outcome().String(), ExitCode: r.Outcome().ExitCode()})
}

// Summary renders a human-readable result.
func (r *Report) Summary() string {
	state := "clean"
	if !r.Clean() {
		state = fmt.Sprintf("%d problem(s)", len(r.Problems))
	}
	s := fmt.Sprintf("fsck: %d dirs, %d files, %d blocks in use: %s", r.Dirs, r.Files, r.UsedBlocks, state)
	if r.RepairsMade > 0 {
		s += fmt.Sprintf(" (%d repaired)", r.RepairsMade)
	}
	if len(r.Unrepairable) > 0 {
		s += fmt.Sprintf(" (%d UNREPAIRABLE)", len(r.Unrepairable))
	}
	return s
}
