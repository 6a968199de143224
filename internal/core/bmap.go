package core

import (
	"fmt"

	"cffs/internal/bmap"
	"cffs/internal/layout"
	"cffs/internal/vfs"
)

// Block mapping is the shared pointer tree (internal/bmap), identical in
// shape to the baselines'. What differs is allocation policy: the first
// GroupBlocks blocks of a small regular file go to the naming directory's
// group (when grouping is on); everything else uses
// conventional clustered placement, so large-file behaviour is unchanged
// — a property the paper is explicit about and the largefile experiment
// checks.

// homeAG is the allocation group the conventional allocator prefers,
// following FFS policy [McKusick84]: a directory lives in the group its
// (rotor-assigned) inode landed in, and everything it names — entry
// blocks, inodes, small-file data — stays in that group. Locality, but
// not adjacency: the distinction the paper's argument rests on.
func (fs *FS) homeAG(in *layout.Inode, ino vfs.Ino) int {
	if in.Type == vfs.TypeDir {
		if in.Direct[0] != 0 {
			if ag := fs.agOf(int64(in.Direct[0])); ag >= 0 {
				return ag
			}
		}
		// A new directory's data joins its own inode's group.
		if !isEmbedded(ino) {
			if phys, _, err := fs.extLoc(extIdx(ino)); err == nil {
				if ag := fs.agOf(phys); ag >= 0 {
					return ag
				}
			}
		}
		return int(mix64(uint64(ino)) % uint64(fs.sb.NAG))
	}
	if in.Parent != 0 {
		if pin, err := fs.getInode(vfs.Ino(in.Parent)); err == nil && pin.Alive() && pin.Direct[0] != 0 {
			if ag := fs.agOf(int64(pin.Direct[0])); ag >= 0 {
				return ag
			}
		}
		return int(mix64(uint64(in.Parent)) % uint64(fs.sb.NAG))
	}
	return int(mix64(uint64(ino)) % uint64(fs.sb.NAG))
}

// pickDirAG assigns allocation groups to new directories round-robin,
// like the FFS policy of placing each new directory in a different
// cylinder group from its parent.
func (fs *FS) pickDirAG() int {
	ag := fs.dirRotor
	fs.dirRotor = (fs.dirRotor + 1) % fs.sb.NAG
	return ag
}

// allocFileBlock picks a block for file block lb of ino. Small regular
// files group under their naming directory; directory blocks group
// under the directory itself — the same owner id — so a directory's
// entry blocks (with their embedded inodes) and its small files' data
// blocks share group extents. That co-location is the synergy the paper
// points out between the two techniques: one group read returns names,
// inodes, and data.
func (fs *FS) allocFileBlock(in *layout.Inode, ino vfs.Ino, lb int64, prev uint32) (int64, error) {
	owner := in.Parent
	if in.Type == vfs.TypeDir && !isEmbedded(ino) {
		owner = uint32(ino)
	}
	if fs.opts.Grouping && lb < GroupBlocks && owner != 0 {
		phys, gid, err := fs.allocGrouped(owner, in.Group, ino, fs.homeAG(in, ino))
		if err != nil {
			return 0, err
		}
		if phys == 0 {
			return 0, fmt.Errorf("cffs: grouped allocation returned no block for inode %#x", uint64(ino))
		}
		if gid != 0 {
			in.Group = gid
		}
		return phys, nil
	}
	if prev != 0 {
		return fs.allocNear(int64(prev) + 1)
	}
	return fs.allocScattered(fs.homeAG(in, ino), ino)
}

// newTree builds the mount's block-pointer tree over this allocator:
// data blocks by allocFileBlock's grouping policy, pointer blocks
// scattered in the file's home group like any conventional metadata.
func (fs *FS) newTree() *bmap.Tree {
	return bmap.New(fs.c, bmap.Alloc{
		Data: fs.allocFileBlock,
		Meta: func(in *layout.Inode, ino vfs.Ino) (int64, error) {
			return fs.allocScattered(fs.homeAG(in, ino), ino)
		},
		Free: fs.freeBlock,
	})
}

// truncate frees blocks at or beyond newSize and updates the inode in
// place (caller writes it back).
func (fs *FS) truncate(in *layout.Inode, ino vfs.Ino, newSize int64) error {
	if newSize < 0 {
		return vfs.ErrInvalid
	}
	if isInline(in) {
		if newSize > layout.InlineSize {
			if err := fs.spillInline(in, ino); err != nil {
				return err
			}
		} else {
			// Still inline: zero the dropped tail so a later regrow
			// reads zeros, then adjust the size.
			for i := newSize; i < int64(len(in.Inline)); i++ {
				in.Inline[i] = 0
			}
			in.Size = newSize
			in.Mtime = fs.clk.Now()
			return nil
		}
	}
	if err := fs.tree.Truncate(in, newSize); err != nil {
		return err
	}
	if newSize == 0 {
		in.Group = 0
	}
	in.Mtime = fs.clk.Now()
	return nil
}
