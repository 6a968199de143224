package main

import (
	"fmt"
	"time"

	"cffs/internal/core"
	"cffs/internal/store"
	"cffs/internal/vfs"
	"cffs/internal/writeback"
)

// flash_churn is a PostMark-style transaction stream [Katcher97] on an
// aged, one-channel SSD: each transaction reads or appends to one pool
// file, then creates or deletes one. Write-behind runs inline on the
// caller, so there is no second goroutine and every count repeats
// exactly for one seed.

const (
	churnMinSize = 512
	churnMaxSize = 16384
)

type churnFile struct {
	dir  int
	seq  int // names the file and keys its content
	size int64
}

// churnTxn is one pre-drawn transaction.
type churnTxn struct {
	pick, victim int  // pool positions, taken modulo the pool's length
	read, create bool // else append, else delete
	appendN      int
	newDir       int
	newSize      int
}

type flashChurn struct {
	r        *run
	names    []string // by seq: pool files first, then one per transaction
	dirNames []string
	iter     uint64 // streams drawn: each iteration replays the seed's next sub-stream
	used     bool   // the current stack has run its transactions

	// The current iteration's stream and state.
	poolDirs  []int
	poolSizes []int
	txns      []churnTxn
	dirs      []vfs.Ino
	pool      []churnFile
	seq       int
	buf       []byte
}

func setupFlashChurn(r *run) (instance, error) {
	w := &flashChurn{r: r}
	w.poolDirs = make([]int, r.scaled(2500))
	w.poolSizes = make([]int, len(w.poolDirs))
	w.txns = make([]churnTxn, r.scaled(10000))
	w.names = make([]string, len(w.poolDirs)+len(w.txns))
	for i := range w.names {
		w.names[i] = fmt.Sprintf("pmf%07d", i)
	}
	w.dirNames = make([]string, 50)
	for i := range w.dirNames {
		w.dirNames[i] = fmt.Sprintf("pm%03d", i)
	}
	w.dirs = make([]vfs.Ino, len(w.dirNames))
	return w, w.open()
}

// draw fills in the next sub-stream of the seed. One 10000-transaction
// stream is a small sample of the mix (its allocations per op sit 2 %
// either side of the mean, by the luck of which files it re-reads), so
// successive iterations replay successive sub-streams and a run of ~25
// iterations averages them; the simulated-clock metrics use the first
// few, which are the same sub-streams in every run.
func (w *flashChurn) draw() {
	rng := newRNG(mix(w.r.p.seed, 0x9000+w.iter))
	w.iter++
	size := func() int { return churnMinSize + rng.intn(churnMaxSize-churnMinSize+1) }
	for i := range w.poolSizes {
		w.poolDirs[i], w.poolSizes[i] = rng.intn(len(w.dirNames)), size()
	}
	for i := range w.txns {
		w.txns[i] = churnTxn{pick: rng.intn(1 << 30), victim: rng.intn(1 << 30),
			read: rng.intn(2) == 0, create: rng.intn(2) == 0,
			appendN: 512 + rng.intn(3584), newDir: rng.intn(len(w.dirNames)), newSize: size()}
	}
}

// open draws the next stream, mounts a fresh file system on a fresh
// pre-dirtied device and builds the stream's file pool.
func (w *flashChurn) open() error {
	w.draw()
	stk, err := w.r.openStack(
		store.Config{Backend: "ssd", Channels: 1, SSDAged: true},
		core.Options{Mode: core.ModeDelayed, Writeback: writeback.Config{Enabled: true, Inline: true}})
	if err != nil {
		return err
	}
	w.r.stk = stk
	fs := stk.fs
	for i, name := range w.dirNames {
		if w.dirs[i], err = fs.Mkdir(fs.Root(), name); err != nil {
			return err
		}
	}
	w.pool, w.seq = w.pool[:0], 0
	for i := range w.poolSizes {
		if err := w.create(fs, w.poolDirs[i], w.poolSizes[i]); err != nil {
			return err
		}
	}
	return fs.Flush()
}

func (w *flashChurn) key(f churnFile) uint32 { return w.r.pat.key(uint64(f.seq), 7) }

func (w *flashChurn) create(fs vfs.FileSystem, dir, size int) error {
	f := churnFile{dir: dir, seq: w.seq, size: int64(size)}
	w.seq++
	ino, err := fs.Create(w.dirs[f.dir], w.names[f.seq])
	if err != nil {
		return err
	}
	if _, err := fs.WriteAt(ino, w.r.pat.bytes(w.key(f), 0, size), 0); err != nil {
		return err
	}
	w.pool = append(w.pool, f)
	return nil
}

// readWhole is the read half of a transaction, content-checked.
func (w *flashChurn) readWhole(fs vfs.FileSystem, f churnFile) error {
	ino, err := fs.Lookup(w.dirs[f.dir], w.names[f.seq])
	if err != nil {
		return err
	}
	st, err := fs.Stat(ino)
	if err != nil {
		return err
	}
	if st.Size != f.size {
		return fmt.Errorf("size %d, want %d", st.Size, f.size)
	}
	if int64(len(w.buf)) < f.size {
		w.buf = make([]byte, 2*f.size)
	}
	n, err := fs.ReadAt(ino, w.buf[:f.size], 0)
	if err != nil {
		return err
	}
	if int64(n) != f.size || !w.r.pat.check(w.key(f), 0, w.buf[:n]) {
		return fmt.Errorf("wrong bytes (%d of %d read)", n, f.size)
	}
	return nil
}

func (w *flashChurn) transaction(fs vfs.FileSystem, t churnTxn) error {
	pick := t.pick % len(w.pool)
	f := w.pool[pick]
	if t.read {
		if err := w.readWhole(fs, f); err != nil {
			return err
		}
	} else {
		ino, err := fs.Lookup(w.dirs[f.dir], w.names[f.seq])
		if err != nil {
			return err
		}
		if _, err := fs.WriteAt(ino, w.r.pat.bytes(w.key(f), f.size, t.appendN), f.size); err != nil {
			return err
		}
		w.pool[pick].size += int64(t.appendN)
	}
	if t.create || len(w.pool) < 2 {
		return w.create(fs, t.newDir, t.newSize)
	}
	pick = t.victim % len(w.pool)
	victim := w.pool[pick]
	w.pool[pick] = w.pool[len(w.pool)-1]
	w.pool = w.pool[:len(w.pool)-1]
	return fs.Unlink(w.dirs[victim.dir], w.names[victim.seq])
}

func (w *flashChurn) iteration() error {
	r, c := w.r, w.r.clients[0]
	if w.used {
		if _, err := r.stk.close(false); err != nil {
			return err
		}
		if err := w.open(); err != nil {
			return err
		}
	}
	w.used = true
	fs := r.fsFor(c)
	return r.timed("txn", func() error {
		c.start()
		for i, t := range w.txns {
			err := w.transaction(fs, t)
			if err != nil {
				r.opErr(fmt.Sprintf("transaction %d", i), err)
			}
			c.done(err == nil)
		}
		return fs.Sync()
	})
}

func (w *flashChurn) warm() error                 { return w.iteration() }
func (w *flashChurn) round(d time.Duration) error { return w.r.untilElapsed(d, w.iteration) }

// verify reads back every file the last iteration left in the pool.
func (w *flashChurn) verify() error {
	c := w.r.clients[0]
	c.start()
	for _, f := range w.pool {
		err := w.readWhole(w.r.stk.fs, f)
		if err != nil {
			w.r.opErr("verify "+w.names[f.seq], err)
		}
		c.done(err == nil)
	}
	return nil
}

func (w *flashChurn) close() error { return nil }
