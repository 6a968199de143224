package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cffs/internal/blockio"
	"cffs/internal/cache"
	"cffs/internal/core"
	"cffs/internal/sched"
	"cffs/internal/srv"
	"cffs/internal/store"
	"cffs/internal/vfs"
)

// Micro-loops time public functions of layers no interposer can
// isolate (they are called from inside other packages). Each runs for
// a fixed slice of the traced run and reports means; they feed
// per-layer metrics only.

// microResult is one loop's cost per call.
type microResult struct{ ns, allocs, bytes float64 }

// loopFor calls fn in batches until d has passed.
func loopFor(d time.Duration, fn func()) microResult {
	for i := 0; i < 100; i++ {
		fn() // settle lazily built state before counting
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		for i := 0; i < 256; i++ {
			fn()
		}
		n += 256
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return microResult{
		ns:     float64(el) / float64(n),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
	}
}

// nullTarget is a device that costs nothing: the real target's
// geometry and bookkeeping, with the three transfer calls cut off.
type nullTarget struct{ blockio.Target }

func (nullTarget) ReadV(int64, [][]byte) error      { return nil }
func (nullTarget) WriteV(int64, [][]byte) error     { return nil }
func (nullTarget) WriteOrdered(int64, []byte) error { return nil }

func nullDevice() (*blockio.Device, func(), error) {
	bk, err := store.Open(store.Config{Backend: "disk"})
	if err != nil {
		return nil, nil, err
	}
	return blockio.NewDevice(nullTarget{bk.Target}, clook()), func() { bk.Bytes.Close() }, nil
}

// microCodec frames and parses the svc_mixed request mix: each user
// action's T- and R-messages, weighted as the workload issues them.
func microCodec(d time.Duration, out map[string]float64) error {
	data := make([]byte, svcFileSize)
	ents := make([]srv.WireDirEnt, svcPerDir)
	for i := range ents {
		ents[i] = srv.WireDirEnt{Ino: uint64(i + 2), Type: uint8(vfs.TypeReg), Name: fmt.Sprintf("f%03d", i)}
	}
	pair := func(t, r srv.Fcall) []srv.Fcall { return []srv.Fcall{t, r} }
	read := pair(srv.Fcall{Type: srv.Tread, Fid: 7, Count: svcFileSize}, srv.Fcall{Type: srv.Rread, Data: data})
	walk := pair(srv.Fcall{Type: srv.Twalk, Fid: 1, NewFid: 9, Names: []string{"d03", "f017"}}, srv.Fcall{Type: srv.Rwalk, Ino: 77})
	stat := pair(srv.Fcall{Type: srv.Tstat, Fid: 9}, srv.Fcall{Type: srv.Rstat, Stat: srv.WireStat{Ino: 77, Type: 1, Nlink: 1, Size: svcFileSize, Blocks: 1}})
	clunk := pair(srv.Fcall{Type: srv.Tclunk, Fid: 9}, srv.Fcall{Type: srv.Rclunk})
	readdir := pair(srv.Fcall{Type: srv.Treaddir, Fid: 3}, srv.Fcall{Type: srv.Rreaddir, Ents: ents})
	create := pair(srv.Fcall{Type: srv.Tcreate, Fid: 4, NewFid: 9, Name: "s1234567"}, srv.Fcall{Type: srv.Rcreate, Ino: 78})
	write := pair(srv.Fcall{Type: srv.Twrite, Fid: 9, Data: data}, srv.Fcall{Type: srv.Rwrite, Count: svcFileSize})
	unlink := pair(srv.Fcall{Type: srv.Tunlink, Fid: 4, Name: "s1230471"}, srv.Fcall{Type: srv.Runlink})

	var mix []srv.Fcall
	add := func(times int, frames ...[]srv.Fcall) {
		for i := 0; i < times; i++ {
			for _, f := range frames {
				mix = append(mix, f...)
			}
		}
	}
	add(5, read)
	add(2, walk, stat, clunk)
	add(1, readdir)
	add(2, create, write, clunk, unlink)

	var buf bytes.Buffer
	var err error
	i := 0
	res := loopFor(d, func() {
		buf.Reset()
		f := &mix[i%len(mix)]
		i++
		if e := srv.WriteFcall(&buf, f, srv.DefaultMsize); e != nil {
			err = e
			return
		}
		if _, e := srv.ReadFcall(&buf, srv.DefaultMsize); e != nil {
			err = e
		}
	})
	out["srv.codec.ns_per_frame"] = res.ns
	out["srv.codec.allocs_per_frame"] = res.allocs
	out["srv.codec.bytes_per_frame"] = res.bytes
	return err
}

// microWalk resolves cached three-component paths through vfs.Walk.
func microWalk(d time.Duration, out map[string]float64) error {
	bk, err := store.Open(store.Config{Backend: "disk"})
	if err != nil {
		return err
	}
	defer bk.Bytes.Close()
	fs, err := core.Mkfs(blockio.NewDevice(bk.Target, clook()),
		core.Options{EmbedInodes: true, Grouping: true, Mode: core.ModeDelayed})
	if err != nil {
		return err
	}
	dir, err := vfs.MkdirAll(fs, "/hot/d00")
	if err != nil {
		return err
	}
	paths := make([]string, hotPerDir)
	for i := range paths {
		name := fmt.Sprintf("f%04d", i)
		if _, err := fs.Create(dir, name); err != nil {
			return err
		}
		paths[i] = "/hot/d00/" + name
	}
	i := 0
	res := loopFor(d, func() {
		if _, e := vfs.Walk(fs, paths[i%len(paths)]); e != nil {
			err = e
		}
		i++
	})
	out["vfs.walk.ns_per_path"] = res.ns
	out["vfs.walk.allocs_per_path"] = res.allocs
	if err != nil {
		return err
	}
	return fs.Close()
}

// microCache times the buffer cache alone over a zero-cost device: the
// hit path from one and from two goroutines, and a miss that evicts.
func microCache(d time.Duration, out map[string]float64) error {
	dev, done, err := nullDevice()
	if err != nil {
		return err
	}
	defer done()
	const resident = 1024
	c := cache.New(dev, resident)
	for b := int64(0); b < resident; b++ {
		buf, err := c.Read(b)
		if err != nil {
			return err
		}
		buf.Release()
	}
	hit := func(seed int64, errp *error) func() {
		b := seed
		return func() {
			buf, e := c.Read(b % resident)
			if e != nil {
				*errp = e
				return
			}
			buf.Release()
			b += 7
		}
	}
	res := loopFor(d/3, hit(0, &err))
	out["cache.hit.ns"] = res.ns
	out["cache.hit.allocs"] = res.allocs

	var wg sync.WaitGroup
	var two [2]microResult
	var errs [2]error
	for g := range two {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			two[g] = loopFor(d/3, hit(int64(g)*resident/2, &errs[g]))
		}(g)
	}
	wg.Wait()
	out["cache.hit.ns_2g"] = (two[0].ns + two[1].ns) / 2
	for _, e := range errs {
		if e != nil {
			return e
		}
	}

	next := int64(resident)
	res = loopFor(d/3, func() {
		buf, e := c.Read(next)
		if e != nil {
			err = e
			return
		}
		buf.Release()
		if next++; next >= dev.Blocks() {
			next = resident
		}
	})
	out["cache.miss_evict.ns"] = res.ns
	return err
}

// microBlockio submits 64 scattered single-block reads as one batch to
// a zero-cost device, and orders the same batch with C-LOOK alone.
func microBlockio(d time.Duration, out map[string]float64) error {
	dev, done, err := nullDevice()
	if err != nil {
		return err
	}
	defer done()
	const batch = 64
	rng := newRNG(1)
	reqs := make([]blockio.Req, batch)
	items := make([]sched.Item, batch)
	for i := range reqs {
		blk := int64(rng.intn(int(dev.Blocks())))
		reqs[i] = blockio.Req{Block: blk, Bufs: [][]byte{make([]byte, blockio.BlockSize)}}
		items[i] = sched.Item{LBA: blk * blockio.SectorsPerBlock, Sector: blockio.SectorsPerBlock}
	}
	res := loopFor(d/2, func() {
		if e := dev.Submit(reqs); e != nil {
			err = e
		}
	})
	out["blockio.submit.ns_per_req"] = res.ns / batch
	out["blockio.submit.allocs_per_batch"] = res.allocs
	sch := clook()
	res = loopFor(d/2, func() { sch.Order(items, 0) })
	out["sched.clook.ns_per_item"] = res.ns / batch
	return err
}
