// TestImageIdentity is the refactoring oracle for everything beneath the
// namespace operations: one fixed operation script runs on every layout
// over the plain disk store, and the bytes the device ends up holding —
// plus how many requests and sectors it took to put them there — must
// equal values recorded at the commit before the block-pointer tree and
// the directory-record codec were shared (d29eea5). A refactor that
// moves a pointer, reorders an allocation or adds a cache miss changes a
// hash or a count; nothing else in tier-1 looks at the image itself.
package fstest_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"cffs/internal/blockio"
	"cffs/internal/core"
	"cffs/internal/ffs"
	"cffs/internal/lfs"
	"cffs/internal/sim"
	"cffs/internal/store"
	"cffs/internal/vfs"
)

// identityScript is the fixed workload. It touches every shape the
// shared code handles: small files, one file grown through the direct,
// single- and double-indirect ranges, truncations to inside each range
// and to zero, a directory grown past one block in every record format
// (then thinned and refilled, so removes merge and inserts split slack),
// and renames — same directory, across directories, replacing, and a
// directory changing parents. It contains no refused operation.
func identityScript(t *testing.T, fs vfs.FileSystem) {
	t.Helper()
	rng := sim.NewRNG(24)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	data := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(rng.Uint64())
		}
		return p
	}
	// Every checkpoint empties the cache, so what follows re-reads its
	// metadata and the request counts cover the read side of the tree.
	flush := func() {
		t.Helper()
		must(fs.(vfs.Flusher).Flush())
	}
	root := fs.Root()
	d1, err := fs.Mkdir(root, "d1")
	must(err)
	d2, err := fs.Mkdir(root, "d2")
	must(err)

	for i := 0; i < 40; i++ {
		ino, err := fs.Create(d1, fmt.Sprintf("small%02d", i))
		must(err)
		_, err = fs.WriteAt(ino, data(1+rng.Intn(3*1024)), 0)
		must(err)
	}
	flush()

	const (
		bs   = blockio.BlockSize
		ind1 = 12        // first single-indirect block
		ind2 = 12 + 1024 // first double-indirect block
	)
	big, err := fs.Create(root, "big")
	must(err)
	for _, w := range []struct{ block, blocks int64 }{
		{0, 20}, {500, 8}, {ind2 - 2, 7}, {ind2 + 1024 + 7, 3}, {ind1 + 100, 1},
	} {
		_, err := fs.WriteAt(big, data(int(w.blocks)*bs-13), w.block*bs+5)
		must(err)
	}
	flush()
	for _, size := range []int64{
		(ind2+1024+8)*bs + 100, // inside the second double-indirect leaf
		(ind2+2)*bs + 777,      // inside the first
		(ind1+300)*bs + 9,      // inside the single-indirect range
	} {
		must(fs.Truncate(big, size))
	}
	_, err = fs.WriteAt(big, data(3*bs), (ind1+400)*bs) // regrow over freed mappings
	must(err)
	must(fs.Truncate(big, 3*bs+5)) // inside the direct range
	flush()
	must(fs.Truncate(big, 0))
	_, err = fs.WriteAt(big, data(2*bs+1), 0)
	must(err)

	name := func(i int) string { return fmt.Sprintf("entry-with-a-longer-name-%04d", i) }
	for i := 0; i < 300; i++ {
		ino, err := fs.Create(d2, name(i))
		must(err)
		if i%25 == 0 {
			_, err = fs.WriteAt(ino, data(700), 0)
			must(err)
		}
	}
	for i := 0; i < 300; i += 3 {
		must(fs.Unlink(d2, name(i)))
	}
	for i := 0; i < 60; i++ {
		_, err := fs.Create(d2, fmt.Sprintf("n%d", i))
		must(err)
	}
	flush()

	must(fs.Rename(d1, "small00", d1, "renamed00"))
	must(fs.Rename(d1, "small01", d2, "moved01"))
	must(fs.Rename(d1, "small02", d1, "small03")) // replaces
	must(fs.Rename(d2, name(1), d1, "small04"))   // replaces across directories
	sub, err := fs.Mkdir(d1, "sub")
	must(err)
	_, err = fs.Create(sub, "leaf")
	must(err)
	must(fs.Rename(d1, "sub", d2, "sub-moved")) // ".." repointed
	must(fs.Rename(root, "big", d2, "big"))
	must(fs.Unlink(sub, "leaf"))
	must(fs.Rmdir(d2, "sub-moved"))
}

// identityWant is what each configuration left behind at d29eea5.
var identityWant = map[string]string{
	"cffs":               "571c8e49cd0dc57ec9e41c3fffaed06c54807ac10877af0f9b9b6f5084b90018 reqs=782 reads=49 writes=733 rsect=392 wsect=6624",
	"cffs-embedded-only": "c938eb78daf7c4cbb95335b13458de9141ef885aeffb13b9dd9afdaa19c7e96f reqs=823 reads=49 writes=774 rsect=392 wsect=6624",
	"cffs-grouping-only": "2fb93d92f2892822369bd070542a9f31a859cbf20273280b7fdb153f93c49530 reqs=1322 reads=51 writes=1271 rsect=408 wsect=10888",
	"cffs-conventional":  "8a2e2db1c147fa0905ed5fbd6a6ca06db68ae7d2b80410cb919c155ac0f1775b reqs=1354 reads=51 writes=1303 rsect=408 wsect=10888",
	"cffs-tinycache":     "0c411d41680484f9dc979013df86fc9f4e9be36322c202ae469af558e158d0f6 reqs=858 reads=94 writes=764 rsect=752 wsect=6864",
	"ffs-sync":           "a72627ba871f1ec51aa0f4aaab5027127924ef0e1d90d7f50777aa6a8ffe5a07 reqs=1262 reads=40 writes=1222 rsect=320 wsect=10160",
	"ffs-delayed":        "db36fd51dd61708e2de36f32c1e317230fa78e657806724bb0862a49e89abd61 reqs=236 reads=40 writes=196 rsect=320 wsect=2032",
	"ffs-tinycache":      "e770ba1338fd717576971c9f73c0c23b38263e804d53846a0393e879725c42bb reqs=259 reads=42 writes=217 rsect=336 wsect=2248",
	"lfs":                "6cd48dc67a8a66b42354649f22c062ef1cceb2a766a88119f6f6701ad3c26e23 reqs=41 reads=14 writes=27 rsect=112 wsect=1064",
	"lfs-tinycache":      "ddb2b1c7ed77a48987c95c52d1391cc1a9d2d7ae1124acd25fc7870b9f5f5ef5 reqs=47 reads=15 writes=32 rsect=120 wsect=1104",
}

func TestImageIdentity(t *testing.T) {
	type mk func(dev *blockio.Device) (vfs.FileSystem, error)
	cffs := func(embed, group bool, cacheBlocks int) mk {
		return func(dev *blockio.Device) (vfs.FileSystem, error) {
			return core.Mkfs(dev, core.Options{EmbedInodes: embed, Grouping: group,
				Mode: core.ModeSync, CacheBlocks: cacheBlocks})
		}
	}
	// The tinycache rows evict constantly, so the order in which the
	// tree pins and releases pointer blocks is part of what they hold.
	const tiny = 24
	configs := []struct {
		name string
		mk   mk
	}{
		{"cffs", cffs(true, true, 0)},
		{"cffs-embedded-only", cffs(true, false, 0)},
		{"cffs-grouping-only", cffs(false, true, 0)},
		{"cffs-conventional", cffs(false, false, 0)},
		{"cffs-tinycache", cffs(true, true, tiny)},
		{"ffs-sync", func(dev *blockio.Device) (vfs.FileSystem, error) {
			return ffs.Mkfs(dev, ffs.Options{Mode: ffs.ModeSync})
		}},
		{"ffs-delayed", func(dev *blockio.Device) (vfs.FileSystem, error) {
			return ffs.Mkfs(dev, ffs.Options{Mode: ffs.ModeDelayed})
		}},
		{"ffs-tinycache", func(dev *blockio.Device) (vfs.FileSystem, error) {
			return ffs.Mkfs(dev, ffs.Options{Mode: ffs.ModeDelayed, CacheBlocks: tiny})
		}},
		{"lfs", func(dev *blockio.Device) (vfs.FileSystem, error) {
			return lfs.Mkfs(dev, lfs.Options{})
		}},
		{"lfs-tinycache", func(dev *blockio.Device) (vfs.FileSystem, error) {
			return lfs.Mkfs(dev, lfs.Options{CacheBlocks: tiny})
		}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			bk, err := store.Open(store.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer bk.Bytes.Close()
			dev := bk.Device()
			fs, err := cfg.mk(dev)
			if err != nil {
				t.Fatal(err)
			}
			identityScript(t, fs)
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			st := bk.Target.Stats()
			got := fmt.Sprintf("%x reqs=%d reads=%d writes=%d rsect=%d wsect=%d",
				imageHash(t, bk, dev.Blocks()*blockio.BlockSize),
				st.Requests, st.Reads, st.Writes, st.SectorsRead, st.SectorsWrite)
			if want := identityWant[cfg.name]; got != want {
				t.Errorf("image or request counts moved:\n got  %q\n want %q", got, want)
			}
		})
	}
}

// imageHash hashes the device image sparsely: every non-zero 256 KB
// chunk, prefixed by its offset. The simulated drive is a gigabyte of
// which the script touches a few megabytes.
func imageHash(t *testing.T, bk *store.Backend, size int64) []byte {
	t.Helper()
	const chunk = 256 << 10
	h := sha256.New()
	buf := make([]byte, chunk)
	zero := make([]byte, chunk)
	for off := int64(0); off < size; off += chunk {
		p := buf[:min(chunk, size-off)]
		if err := bk.Bytes.ReadAt(p, off); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(p, zero[:len(p)]) {
			continue
		}
		var o [8]byte
		binary.LittleEndian.PutUint64(o[:], uint64(off))
		h.Write(o[:])
		h.Write(p)
	}
	return h.Sum(nil)
}
