package fsck_test

import (
	"encoding/binary"
	"flag"
	"math/rand"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/fsck"
)

var probe = flag.Int("probe", 100, "scribble seeds per layout for TestScribbleProbe (the published probe uses 400)")

// scribbleLen is the bytes of fuzz input one scribble consumes: which
// metadata block, which 32-bit word of it, and the word's new value.
const scribbleLen = 7

// scribble overwrites one to three words of live metadata — the first
// group header, the first inode block, the root directory's blocks — as
// input dictates, and reports how many it wrote.
func scribble(im *image, input []byte) int {
	hdr, _, _ := im.nav.header(im.dirBlock0("/"))
	blocks := []int64{hdr, im.nav.inode(im.ino["/"]).block}
	for _, b := range im.getInode("/").Direct {
		if b != 0 {
			blocks = append(blocks, int64(b))
		}
	}
	n := 0
	for ; n < 3 && len(input) >= scribbleLen; n++ {
		block := blocks[int(input[0])%len(blocks)]
		word := int(binary.LittleEndian.Uint16(input[1:])) % (blockio.BlockSize / 4)
		raw{im.dev}.edit(block, func(p []byte) { copy(p[word*4:], input[3:scribbleLen]) })
		input = input[scribbleLen:]
	}
	return n
}

// checkScribbled is the property both the fuzz target and the probe
// assert: on an image that still mounts, a repairing check returns
// without error inside checkBounded's time and memory ceiling; its
// Outcome agrees with the exit-code table; and if it lists nothing
// unrepairable, a detect-only re-check is clean.
func checkScribbled(t testing.TB, im *image) *fsck.Report {
	t.Helper()
	fs, err := im.tg.mount(im.dev)
	if err != nil {
		return nil // mount refusal: nothing for fsck to work on
	}
	fs.Close()
	rep := checkBounded(t, im.tg, im.dev)
	want := fsck.OutcomeClean
	switch {
	case len(rep.Unrepairable) > 0:
		want = fsck.OutcomeUnrepaired
	case len(rep.Problems) > 0:
		want = fsck.OutcomeRepaired
		if rep.RepairsMade == 0 {
			t.Fatalf("%s: problems %v but no repair and nothing unrepairable", im.tg.name, rep.Problems)
		}
	}
	if got := rep.Outcome(); got != want || got.ExitCode() != []int{0, 1, 4}[want] {
		t.Fatalf("%s: outcome %v (exit %d), want %v", im.tg.name, got, got.ExitCode(), want)
	}
	if len(rep.Unrepairable) == 0 {
		again, err := im.tg.check(im.dev, false)
		if err != nil {
			t.Fatalf("%s: re-check: %v", im.tg.name, err)
		}
		if !again.Clean() {
			t.Fatalf("%s: repair reported success but left %v (first run: %v)", im.tg.name, again.Problems, rep.Problems)
		}
	}
	return rep
}

// probeInput is the input the probe derives from a seed number: three
// scribbles' worth of pseudo-random bytes.
func probeInput(seed int64) []byte {
	input := make([]byte, 3*scribbleLen)
	rand.New(rand.NewSource(seed)).Read(input)
	// One to three scribbles, like the fuzz target's variable-length input.
	return input[:scribbleLen*(1+int(input[0]>>6)%3)]
}

// TestScribbleProbe is the fixed-seed run of the fuzz property over
// every layout: -probe seeds each (EXPERIMENTS.md publishes -probe 400).
func TestScribbleProbe(t *testing.T) {
	for _, tg := range targets {
		var refused, clean, repaired, unrepairable int
		for seed := int64(0); seed < int64(*probe); seed++ {
			im := newImage(t, tg)
			scribble(im, probeInput(seed))
			switch rep := checkScribbled(t, im); {
			case rep == nil:
				refused++
			case rep.Outcome() == fsck.OutcomeClean:
				clean++
			case rep.Outcome() == fsck.OutcomeRepaired:
				repaired++
			default:
				unrepairable++
			}
		}
		t.Logf("%-8s %d seeds: %d clean, %d repaired and re-verified, %d unrepairable (listed), %d mount refused",
			tg.name, *probe, clean, repaired, unrepairable, refused)
	}
}

// FuzzFsckScribble scribbles on the metadata of a populated image of
// the chosen layout and holds the checker to checkScribbled's property.
// The committed corpus includes the probe inputs on which the checkers
// this engine replaced ran out of memory (a scribbled size field).
func FuzzFsckScribble(f *testing.F) {
	for which := range targets {
		f.Add(uint8(which), probeInput(int64(which)))
	}
	f.Fuzz(func(t *testing.T, which uint8, input []byte) {
		im := newImage(t, targets[int(which)%len(targets)])
		if scribble(im, input) > 0 {
			checkScribbled(t, im)
		}
	})
}
