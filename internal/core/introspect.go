package core

import (
	"math/bits"

	"cffs/internal/blockio"
	"cffs/internal/cache"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// Layout introspection: a read-only walker over a mounted image that
// measures the on-disk properties the paper's mechanisms live and die
// by — how full and how contiguous each allocation group is, how much
// of the namespace actually has its inodes embedded, and how shattered
// the free space has become (the aging effect that degrades explicit
// grouping). The walker takes the FS lock shared and mutates nothing;
// it is the engine behind cmd/fsstat, `cfsh inspect`, and the
// internal/health gauges.

// FreeSpanBuckets labels the AGLayout.FreeSpans histogram: contiguous
// free runs by length, the last bucket being runs long enough to hold a
// whole group extent.
var FreeSpanBuckets = [...]string{"1", "2", "3-4", "5-8", "9-15", "16+"}

// spanBucket maps a free-run length to its FreeSpans bucket.
func spanBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n == 2:
		return 1
	case n <= 4:
		return 2
	case n <= 8:
		return 3
	case n < GroupBlocks:
		return 4
	}
	return 5
}

// AGLayout is the measured state of one allocation group.
type AGLayout struct {
	AG         int `json:"ag"`
	DataBlocks int `json:"data_blocks"` // allocatable blocks (header excluded)
	UsedBlocks int `json:"used_blocks"`

	// Explicit-grouping state, from the descriptor table.
	GroupsClaimed int `json:"groups_claimed"` // extents with an owner
	GroupsFull    int `json:"groups_full"`
	GroupedBlocks int `json:"grouped_blocks"` // blocks under group Used bits

	// Free-space shape. GroupableFree counts free blocks inside fully
	// free aligned extents — the supply explicit grouping draws on; free
	// space outside it can only serve scattered allocations.
	GroupableFree int                       `json:"groupable_free"`
	FreeSpans     [len(FreeSpanBuckets)]int `json:"free_spans"`
	LongestFree   int                       `json:"longest_free"`

	// Frag is 1 - GroupableFree/free: 0 when every free block could
	// start a group, approaching 1 as churn shatters the free space.
	Frag float64 `json:"frag"`
}

// LayoutReport is the full introspection result.
type LayoutReport struct {
	Config      string     `json:"config"` // Options.Config() name
	TotalBlocks int64      `json:"total_blocks"`
	AGs         []AGLayout `json:"ags"`

	// Namespace shape, from a walk rooted at RootIno.
	Dirs      int `json:"dirs"`
	Files     int `json:"files"`
	DirBlocks int `json:"dir_blocks"`

	// Directory-slot accounting. SlotsUsed includes "." and "..";
	// EmbeddedInodes and ExternalEntries partition the remaining live
	// entries by where their inode lives.
	SlotsTotal      int `json:"slots_total"`
	SlotsUsed       int `json:"slots_used"`
	EmbeddedInodes  int `json:"embedded_inodes"`
	ExternalEntries int `json:"external_entries"`

	// Inode-file occupancy (externalized inodes).
	InodeFileBlocks int `json:"inode_file_blocks"`
	ExtSlotsLive    int `json:"ext_slots_live"`
	ExtSlotsTotal   int `json:"ext_slots_total"`
}

// Used totals the allocated data blocks across AGs.
func (r *LayoutReport) Used() int {
	var n int
	for i := range r.AGs {
		n += r.AGs[i].UsedBlocks
	}
	return n
}

// Free totals the free data blocks across AGs.
func (r *LayoutReport) Free() int {
	var n int
	for i := range r.AGs {
		n += r.AGs[i].DataBlocks - r.AGs[i].UsedBlocks
	}
	return n
}

// FragScore is the free-space-weighted mean of the per-AG fragmentation
// scores, in [0,1].
func (r *LayoutReport) FragScore() float64 {
	var frag, free float64
	for i := range r.AGs {
		f := float64(r.AGs[i].DataBlocks - r.AGs[i].UsedBlocks)
		frag += r.AGs[i].Frag * f
		free += f
	}
	if free == 0 {
		return 0
	}
	return frag / free
}

// EmbedUtil is the fraction of live named entries (excluding "." and
// "..") whose inode is embedded in the directory, in [0,1].
func (r *LayoutReport) EmbedUtil() float64 {
	n := r.EmbeddedInodes + r.ExternalEntries
	if n == 0 {
		return 0
	}
	return float64(r.EmbeddedInodes) / float64(n)
}

// ScanLayout measures the mounted image. It holds the FS lock shared
// for the whole scan, so the report is a consistent point-in-time view;
// cached and on-disk state agree because the scan reads through the
// buffer cache.
func (fs *FS) ScanLayout() (LayoutReport, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.scanLayout()
}

func (fs *FS) scanLayout() (LayoutReport, error) {
	r := LayoutReport{
		Config:      fs.opts.Config(),
		TotalBlocks: fs.sb.NBlocks,
		AGs:         make([]AGLayout, fs.sb.NAG),
	}
	for ag := 0; ag < fs.sb.NAG; ag++ {
		if err := fs.scanAG(ag, &r.AGs[ag]); err != nil {
			return r, err
		}
	}
	if err := fs.walkLayout(&r, RootIno); err != nil {
		return r, err
	}
	if err := fs.scanInodeFile(&r); err != nil {
		return r, err
	}
	return r, nil
}

// scanAG fills one AGLayout from the group's header block.
func (fs *FS) scanAG(ag int, a *AGLayout) error {
	hdr, err := fs.c.Read(fs.sb.agStart(ag))
	if err != nil {
		return err
	}
	defer hdr.Release()
	a.AG = ag
	a.DataBlocks = fs.sb.AGBlocks - 1
	bm := fs.blockBitmap(hdr)

	run := 0
	endRun := func() {
		if run > 0 {
			a.FreeSpans[spanBucket(run)]++
			if run > a.LongestFree {
				a.LongestFree = run
			}
			run = 0
		}
	}
	for idx := 1; idx < fs.sb.AGBlocks; idx++ {
		if bm.IsSet(idx) {
			a.UsedBlocks++
			endRun()
		} else {
			run++
		}
	}
	endRun()

	baseOff := int(fs.sb.groupBase(ag) - fs.sb.agStart(ag))
	for k := 0; k < fs.sb.groupsPerAG(); k++ {
		d := readDesc(hdr, k)
		if d.Owner != 0 {
			a.GroupsClaimed++
			if d.full() {
				a.GroupsFull++
			}
			a.GroupedBlocks += bits.OnesCount16(d.Used)
		}
		free := true
		for i := 0; i < GroupBlocks; i++ {
			if bm.IsSet(baseOff + k*GroupBlocks + i) {
				free = false
				break
			}
		}
		if free {
			a.GroupableFree += GroupBlocks
		}
	}
	if free := a.DataBlocks - a.UsedBlocks; free > 0 {
		a.Frag = 1 - float64(a.GroupableFree)/float64(free)
	}
	return nil
}

// walkLayout recurses through the namespace accumulating directory and
// slot statistics.
func (fs *FS) walkLayout(r *LayoutReport, dir vfs.Ino) error {
	din, err := fs.dirInode(dir)
	if err != nil {
		return err
	}
	nblocks := int(din.Size / blockio.BlockSize)
	r.Dirs++
	r.DirBlocks += nblocks
	r.SlotsTotal += nblocks * slotsPerBlock
	var subdirs []vfs.Ino
	_, err = fs.forEachSlot(&din, dir, func(_ *cache.Buf, e slotEntry, used bool) bool {
		if !used {
			return false
		}
		r.SlotsUsed++
		if isDotName(e.name) {
			return false
		}
		if e.embedded {
			r.EmbeddedInodes++
		} else {
			r.ExternalEntries++
		}
		if e.ftype == vfs.TypeDir {
			subdirs = append(subdirs, e.ino())
		} else {
			r.Files++
		}
		return false
	})
	if err != nil {
		return err
	}
	for _, d := range subdirs {
		if err := fs.walkLayout(r, d); err != nil {
			return err
		}
	}
	return nil
}

// scanInodeFile counts live externalized inodes.
func (fs *FS) scanInodeFile(r *LayoutReport) error {
	r.InodeFileBlocks = fs.sb.ExtBlocks
	r.ExtSlotsTotal = fs.sb.ExtBlocks * extInosPerBlock
	for fb := 0; fb < fs.sb.ExtBlocks; fb++ {
		phys, _, err := fs.extLoc(fb * extInosPerBlock)
		if err != nil {
			return err
		}
		b, err := fs.c.Read(phys)
		if err != nil {
			return err
		}
		for s := 0; s < extInosPerBlock; s++ {
			var in layout.Inode
			in.Decode(b.Data[s*layout.InodeSize:])
			if in.Alive() {
				r.ExtSlotsLive++
			}
		}
		b.Release()
	}
	return nil
}
