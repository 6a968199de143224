package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/fsck"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// populate builds a small tree with files, subdirectories, a hard link,
// and a large file, then syncs.
func populate(t *testing.T, fs *FS) {
	t.Helper()
	for i := 0; i < 10; i++ {
		if err := vfs.WriteFile(fs, fmt.Sprintf("/file%d", i), make([]byte, 1024*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := vfs.MkdirAll(fs, "/sub/deeper"); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/sub/deeper/leaf", make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "/big", make([]byte, 20*blockio.BlockSize)); err != nil {
		t.Fatal(err)
	}
	ino, err := vfs.Walk(fs, "/file0")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Link(fs.Root(), "hardlink", ino); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCleanAllConfigs(t *testing.T) {
	for _, cfg := range []Options{
		{},
		{EmbedInodes: true},
		{Grouping: true},
		{EmbedInodes: true, Grouping: true},
	} {
		cfg.Mode = ModeDelayed
		fs := newCFFS(t, cfg)
		populate(t, fs)
		rep, err := Check(fs.Device(), false)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("%s: fresh image not clean: %v", cfg.Config(), rep.Problems)
		}
		if rep.Files != 12 || rep.Dirs != 3 {
			t.Fatalf("%s: found %d files %d dirs, want 12/3", cfg.Config(), rep.Files, rep.Dirs)
		}
	}
}

func TestCheckDetectsLostBlock(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Mode: ModeDelayed})
	populate(t, fs)
	// Mark a free block as allocated directly in an AG bitmap.
	hdrBlock := fs.sb.agStart(0)
	raw := make([]byte, blockio.BlockSize)
	if err := fs.Device().ReadBlock(hdrBlock, raw); err != nil {
		t.Fatal(err)
	}
	bm := layout.NewBitmap(raw[agBmapOff:], fs.sb.AGBlocks)
	victim := bm.FindClear(100)
	if victim < 0 {
		t.Fatal("no free block to corrupt")
	}
	bm.Set(victim)
	if err := fs.Device().WriteBlock(hdrBlock, raw); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(fs.Device(), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("lost block not detected")
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, "lost") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no lost-block problem in %v", rep.Problems)
	}
	// Repair and re-check.
	if _, err := Check(fs.Device(), true); err != nil {
		t.Fatal(err)
	}
	rep, err = Check(fs.Device(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("image not clean after repair: %v", rep.Problems)
	}
}

func TestCheckDetectsMissingBitmapBit(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Mode: ModeDelayed})
	populate(t, fs)
	// Find an allocated data block via a file inode and clear its bit.
	ino, err := vfs.Walk(fs, "/big")
	if err != nil {
		t.Fatal(err)
	}
	in, err := fs.getLiveInode(ino)
	if err != nil {
		t.Fatal(err)
	}
	phys := int64(in.Direct[0])
	ag := fs.agOf(phys)
	hdrBlock := fs.sb.agStart(ag)
	raw := make([]byte, blockio.BlockSize)
	if err := fs.Device().ReadBlock(hdrBlock, raw); err != nil {
		t.Fatal(err)
	}
	layout.NewBitmap(raw[agBmapOff:], fs.sb.AGBlocks).Clear(int(phys - hdrBlock))
	if err := fs.Device().WriteBlock(hdrBlock, raw); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(fs.Device(), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("in-use-but-free block not detected")
	}
}

func TestCheckDetectsOrphanExternalInode(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Mode: ModeDelayed})
	populate(t, fs)
	// Plant a live inode in a free external slot, bypassing the FS.
	phys, _, err := fs.extLoc(0)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, blockio.BlockSize)
	if err := fs.Device().ReadBlock(phys, raw); err != nil {
		t.Fatal(err)
	}
	slot := -1
	for s := 0; s < extInosPerBlock; s++ {
		var in layout.Inode
		in.Decode(raw[s*layout.InodeSize:])
		if !in.Alive() {
			slot = s
			break
		}
	}
	if slot < 0 {
		t.Skip("no free slot in first inode-file block")
	}
	orphan := layout.Inode{Type: vfs.TypeReg, Nlink: 1}
	orphan.Encode(raw[slot*layout.InodeSize:])
	if err := fs.Device().WriteBlock(phys, raw); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(fs.Device(), false)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, "orphan") {
			found = true
		}
	}
	if !found {
		t.Fatalf("orphan inode not detected: %v", rep.Problems)
	}
}

func TestCheckDetectsStaleGroupDescriptor(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Grouping: true, Mode: ModeDelayed})
	populate(t, fs)
	// Claim a group descriptor with used bits pointing at free blocks.
	hdrBlock := fs.sb.agStart(fs.sb.NAG - 1)
	raw := make([]byte, blockio.BlockSize)
	if err := fs.Device().ReadBlock(hdrBlock, raw); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	k := fs.sb.groupsPerAG() - 1
	le.PutUint32(raw[agDescOff+k*8:], 1)     // owner: root
	le.PutUint16(raw[agDescOff+k*8+4:], 0x5) // two used bits, blocks not allocated
	if err := fs.Device().WriteBlock(hdrBlock, raw); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(fs.Device(), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("bad group descriptor not detected")
	}
	if _, err := Check(fs.Device(), true); err != nil {
		t.Fatal(err)
	}
	rep, _ = Check(fs.Device(), false)
	if !rep.Clean() {
		t.Fatalf("descriptor not repaired: %v", rep.Problems)
	}
}

// Structural damage — dangling entries, corrupt link counts, lost dot
// entries, orphan inodes — must not just be detected: repair has to
// remove it and a fresh check must come back clean.
func TestCheckRepairsStructuralDamage(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Mode: ModeDelayed})
	populate(t, fs)

	rin, err := fs.getLiveInode(RootIno)
	if err != nil {
		t.Fatal(err)
	}
	rootBlk, err := fs.tree.Resolve(&rin, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, blockio.BlockSize)
	if err := fs.Device().ReadBlock(rootBlk, raw); err != nil {
		t.Fatal(err)
	}
	// A dangling entry: a name referencing an external inode that does
	// not exist.
	planted := false
	for s := 0; s < slotsPerBlock; s++ {
		if !slotUsed(raw, s*slotSize) {
			writeSlotExternal(raw, s*slotSize, "ghost", vfs.Ino(500), vfs.TypeReg)
			planted = true
			break
		}
	}
	if !planted {
		t.Fatal("no free slot in root block")
	}
	// A corrupt embedded link count.
	for s := 0; s < slotsPerBlock; s++ {
		off := s * slotSize
		if slotEmbedded(raw, off) {
			var in layout.Inode
			in.Decode(raw[off+slotInodeOff:])
			in.Nlink = 5
			in.Encode(raw[off+slotInodeOff:])
			break
		}
	}
	if err := fs.Device().WriteBlock(rootBlk, raw); err != nil {
		t.Fatal(err)
	}

	// A lost "." entry in a subdirectory.
	subIno, err := vfs.Walk(fs, "/sub")
	if err != nil {
		t.Fatal(err)
	}
	sin, err := fs.getLiveInode(subIno)
	if err != nil {
		t.Fatal(err)
	}
	subBlk, err := fs.tree.Resolve(&sin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Device().ReadBlock(subBlk, raw); err != nil {
		t.Fatal(err)
	}
	clearSlot(raw, 0) // "." lives in slot 0 (initDirData)
	if err := fs.Device().WriteBlock(subBlk, raw); err != nil {
		t.Fatal(err)
	}

	rep, err := Check(fs.Device(), true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("planted damage not detected")
	}
	if rep.RepairsMade == 0 {
		t.Fatalf("no repairs made for %v", rep.Problems)
	}
	if len(rep.Unrepairable) != 0 {
		t.Fatalf("repair left problems behind: %v", rep.Unrepairable)
	}
	if got := rep.Outcome(); got != fsck.OutcomeRepaired {
		t.Fatalf("Outcome = %v, want repaired", got)
	}
	rep2, err := Check(fs.Device(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatalf("image not clean after repair: %v", rep2.Problems)
	}
	// The dangling name must be gone, not resurrected.
	fs2, err := Mount(fs.Device(), Options{EmbedInodes: true, Mode: ModeDelayed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vfs.Walk(fs2, "/ghost"); err == nil {
		t.Fatal("dangling entry survived repair")
	}
}

func TestReportSummary(t *testing.T) {
	fs := newCFFS(t, Options{EmbedInodes: true, Mode: ModeDelayed})
	populate(t, fs)
	rep, err := Check(fs.Device(), false)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	if !strings.Contains(s, "clean") || !strings.Contains(s, "12 files") {
		t.Fatalf("Summary = %q", s)
	}
}
