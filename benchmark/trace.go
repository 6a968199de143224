package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cffs/internal/blockio"
	"cffs/internal/core"
	"cffs/internal/obs"
	"cffs/internal/vfs"
)

// The traced pass times the layer boundaries from outside: the
// benchmark wraps what it hands to each layer (the file system it
// calls or serves, the device under the block driver, each client Fid
// call) and records a span per crossing. Nothing inside the program is
// instrumented; request ids through the wire are a later change, so a
// span on the far side of the loopback has no parent and is joined to
// the ops only in aggregate.

var epoch = time.Now()

// now is the host clock in nanoseconds, never 0.
func now() int64 { return int64(time.Since(epoch)) + 1 }

type spanName uint8

const (
	spOp spanName = iota
	spCoreWalk
	spCoreLookup
	spCoreReadAt
	spCoreStat
	spCoreReadDir
	spCoreCreate
	spCoreWriteAt
	spCoreUnlink
	spCoreSync
	spCoreFlush
	spCoreOther
	spSrvWalk
	spSrvStat
	spSrvClunk
	spSrvReadAt
	spSrvReadDir
	spSrvCreate
	spSrvWriteAt
	spSrvUnlink
	spDevRead
	spDevWrite
	spDevOrdered
	spDevSubmit
	nSpans
)

var spanNames = [nSpans]string{
	"op",
	"core.walk", "core.lookup", "core.readat", "core.stat", "core.readdir",
	"core.create", "core.writeat", "core.unlink", "core.sync", "core.flush", "core.other",
	"srv.walk", "srv.stat", "srv.clunk", "srv.readat", "srv.readdir",
	"srv.create", "srv.writeat", "srv.unlink",
	"dev.readv", "dev.writev", "dev.writeordered", "dev.submit",
}

// coreSpanOf maps the ambient vfs operation a device request was issued
// under to the core span that contains it.
var coreSpanOf = [obs.NumOps]spanName{
	obs.OpLookup: spCoreLookup, obs.OpReadAt: spCoreReadAt, obs.OpStat: spCoreStat,
	obs.OpReadDir: spCoreReadDir, obs.OpCreate: spCoreCreate, obs.OpWriteAt: spCoreWriteAt,
	obs.OpUnlink: spCoreUnlink, obs.OpSync: spCoreSync, obs.OpFlush: spCoreFlush,
	obs.OpMkdir: spCoreOther, obs.OpLink: spCoreOther, obs.OpRmdir: spCoreOther,
	obs.OpRename: spCoreOther, obs.OpTruncate: spCoreOther,
}

// spanRec is one sampled span as written to the -spans file.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
}

const (
	sampleEvery = 64     // full records are kept for one op in 64
	maxSpanRecs = 100000 // and for at most this many spans per workload
)

type spanAgg struct {
	n, sum int64
	child  int64 // device time issued under a core span; filled in by totals
	h      hist
}

// tracer owns one traced stack's spans.
type tracer struct {
	on     atomic.Bool // spans are recorded only inside timed regions
	single bool        // one client and no background goroutine: device spans inherit the open span
	nextID atomic.Uint64

	// Host time spent below the block driver, by the vfs operation in
	// scope when the request was issued (obs.CurrentOp: exact with one
	// client, best effort with several). Index 0 is work outside any
	// operation, such as the write-behind daemon's flushes.
	devByKind [obs.NumOps]atomic.Int64

	// The span a device request belongs under; meaningful when single.
	curSpan, curOp uint64
	curSampled     bool

	mu      sync.Mutex
	threads []*tthread
	recs    []spanRec
}

// tthread is one goroutine's (or one shared boundary's) span recorder.
type tthread struct {
	t    *tracer
	mu   sync.Mutex
	aggs [nSpans]spanAgg

	seq     uint64 // sampling counter
	opID    uint64 // open op span, 0 outside ops
	sampled bool
}

func newTracer(single bool) *tracer { return &tracer{single: single} }

func (t *tracer) thread() *tthread {
	th := &tthread{t: t}
	t.mu.Lock()
	t.threads = append(t.threads, th)
	t.mu.Unlock()
	return th
}

func (t *tracer) keep(r spanRec) {
	t.mu.Lock()
	if len(t.recs) < maxSpanRecs {
		t.recs = append(t.recs, r)
	}
	t.mu.Unlock()
}

// opBegin opens the op span; every span begun on this thread until
// opEnd is its child. All tthread methods are no-ops on a nil receiver,
// which is how the untraced pass runs the same workload code.
func (th *tthread) opBegin() {
	if th == nil || !th.t.on.Load() {
		return
	}
	th.seq++
	th.opID = th.t.nextID.Add(1)
	th.sampled = th.seq%sampleEvery == 0
}

func (th *tthread) opEnd(start, end int64) {
	if th == nil || th.opID == 0 {
		return
	}
	th.record(spOp, start, end, th.opID, 0, th.opID, th.sampled)
	th.opID = 0
}

// begin starts a span and returns its start time, 0 when not recording.
func (th *tthread) begin() int64 {
	if th == nil || !th.t.on.Load() {
		return 0
	}
	if th.t.single {
		th.t.curSpan, th.t.curOp, th.t.curSampled = th.t.nextID.Add(1), th.opID, th.sampled
	}
	return now()
}

// end closes a span begun on a client thread.
func (th *tthread) end(name spanName, start int64) {
	if start == 0 {
		return
	}
	end := now()
	var id uint64
	if th.t.single {
		id, th.t.curSpan = th.t.curSpan, 0
	} else {
		id = th.t.nextID.Add(1)
	}
	th.record(name, start, end, id, th.opID, th.opID, th.opID != 0 && th.sampled)
}

// endShared closes a span at a boundary several goroutines cross (the
// served file system, the device): no op context, sampled on its own.
func (th *tthread) endShared(name spanName, start, end int64) {
	t := th.t
	var parent, op uint64
	if t.single && t.curSpan != 0 {
		parent, op = t.curSpan, t.curOp
	}
	th.record(name, start, end, t.nextID.Add(1), parent, op, op != 0 && t.curSampled)
}

func (th *tthread) record(name spanName, start, end int64, id, parent, op uint64, sampled bool) {
	th.mu.Lock()
	a := &th.aggs[name]
	a.n++
	a.sum += end - start
	a.h.record(end - start)
	if parent == 0 && op == 0 {
		th.seq++
		sampled = th.seq%sampleEvery == 0
	}
	th.mu.Unlock()
	if sampled {
		th.t.keep(spanRec{Name: spanNames[name], Start: start, End: end, ID: id, Parent: parent, Op: op})
	}
}

// totals merges every thread's aggregates.
func (t *tracer) totals() *[nSpans]spanAgg {
	var out [nSpans]spanAgg
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, th := range t.threads {
		th.mu.Lock()
		for i := range th.aggs {
			out[i].n += th.aggs[i].n
			out[i].sum += th.aggs[i].sum
			out[i].h.merge(&th.aggs[i].h)
		}
		th.mu.Unlock()
	}
	// Device time is a child of the core span it was issued under.
	for kind := range t.devByKind {
		if sp := coreSpanOf[kind]; sp != 0 {
			out[sp].child += t.devByKind[kind].Load()
		}
	}
	return &out
}

// writeSpans appends the sampled span records as JSON lines.
func writeSpans(path, workload string, recs []spanRec) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			spanRec
		}{workload, recs[i]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedFS is the vfs.FileSystem interposer. It forwards the optional
// capabilities callers probe for (vfs.PathWalker, vfs.Flusher), so the
// traced stack takes the same code paths as the plain one.
type tracedFS struct {
	fs     *core.FS
	th     *tthread
	shared bool // served by srv workers: many goroutines, no op context
}

var (
	_ vfs.FileSystem = (*tracedFS)(nil)
	_ vfs.PathWalker = (*tracedFS)(nil)
	_ vfs.Flusher    = (*tracedFS)(nil)
)

func (f *tracedFS) end(name spanName, start int64) {
	if start == 0 {
		return
	}
	if f.shared {
		f.th.endShared(name, start, now())
		return
	}
	f.th.end(name, start)
}

func (f *tracedFS) Root() vfs.Ino { return f.fs.Root() }

func (f *tracedFS) WalkPath(path string) (vfs.Ino, error) {
	s := f.th.begin()
	ino, err := f.fs.WalkPath(path)
	f.end(spCoreWalk, s)
	return ino, err
}

func (f *tracedFS) Lookup(dir vfs.Ino, name string) (vfs.Ino, error) {
	s := f.th.begin()
	ino, err := f.fs.Lookup(dir, name)
	f.end(spCoreLookup, s)
	return ino, err
}

func (f *tracedFS) Create(dir vfs.Ino, name string) (vfs.Ino, error) {
	s := f.th.begin()
	ino, err := f.fs.Create(dir, name)
	f.end(spCoreCreate, s)
	return ino, err
}

func (f *tracedFS) Mkdir(dir vfs.Ino, name string) (vfs.Ino, error) {
	s := f.th.begin()
	ino, err := f.fs.Mkdir(dir, name)
	f.end(spCoreOther, s)
	return ino, err
}

func (f *tracedFS) Link(dir vfs.Ino, name string, target vfs.Ino) error {
	s := f.th.begin()
	err := f.fs.Link(dir, name, target)
	f.end(spCoreOther, s)
	return err
}

func (f *tracedFS) Unlink(dir vfs.Ino, name string) error {
	s := f.th.begin()
	err := f.fs.Unlink(dir, name)
	f.end(spCoreUnlink, s)
	return err
}

func (f *tracedFS) Rmdir(dir vfs.Ino, name string) error {
	s := f.th.begin()
	err := f.fs.Rmdir(dir, name)
	f.end(spCoreOther, s)
	return err
}

func (f *tracedFS) Rename(sdir vfs.Ino, sname string, ddir vfs.Ino, dname string) error {
	s := f.th.begin()
	err := f.fs.Rename(sdir, sname, ddir, dname)
	f.end(spCoreOther, s)
	return err
}

func (f *tracedFS) ReadDir(dir vfs.Ino) ([]vfs.DirEntry, error) {
	s := f.th.begin()
	ents, err := f.fs.ReadDir(dir)
	f.end(spCoreReadDir, s)
	return ents, err
}

func (f *tracedFS) ReadAt(ino vfs.Ino, p []byte, off int64) (int, error) {
	s := f.th.begin()
	n, err := f.fs.ReadAt(ino, p, off)
	f.end(spCoreReadAt, s)
	return n, err
}

func (f *tracedFS) WriteAt(ino vfs.Ino, p []byte, off int64) (int, error) {
	s := f.th.begin()
	n, err := f.fs.WriteAt(ino, p, off)
	f.end(spCoreWriteAt, s)
	return n, err
}

func (f *tracedFS) Truncate(ino vfs.Ino, size int64) error {
	s := f.th.begin()
	err := f.fs.Truncate(ino, size)
	f.end(spCoreOther, s)
	return err
}

func (f *tracedFS) Stat(ino vfs.Ino) (vfs.Stat, error) {
	s := f.th.begin()
	st, err := f.fs.Stat(ino)
	f.end(spCoreStat, s)
	return st, err
}

func (f *tracedFS) Sync() error {
	s := f.th.begin()
	err := f.fs.Sync()
	f.end(spCoreSync, s)
	return err
}

func (f *tracedFS) Flush() error {
	s := f.th.begin()
	err := f.fs.Flush()
	f.end(spCoreFlush, s)
	return err
}

func (f *tracedFS) Close() error { return f.fs.Close() }

// tracedTarget is the blockio.Target interposer: it sits between the
// block driver and the device model, so its spans are the host time the
// simulator itself costs. The embedded Target forwards everything it
// does not time (Stats, Clock, the trace hooks).
type tracedTarget struct {
	blockio.Target
	t  *tracer
	th *tthread
}

func (d *tracedTarget) end(name spanName, start int64) {
	if start == 0 {
		return
	}
	end := now()
	d.t.devByKind[obs.CurrentOp().Kind].Add(end - start)
	d.th.endShared(name, start, end)
}

func (d *tracedTarget) begin() int64 {
	if !d.t.on.Load() {
		return 0
	}
	return now()
}

func (d *tracedTarget) ReadV(lba int64, bufs [][]byte) error {
	s := d.begin()
	err := d.Target.ReadV(lba, bufs)
	d.end(spDevRead, s)
	return err
}

func (d *tracedTarget) WriteV(lba int64, bufs [][]byte) error {
	s := d.begin()
	err := d.Target.WriteV(lba, bufs)
	d.end(spDevWrite, s)
	return err
}

func (d *tracedTarget) WriteOrdered(lba int64, buf []byte) error {
	s := d.begin()
	err := d.Target.WriteOrdered(lba, buf)
	d.end(spDevOrdered, s)
	return err
}

// batchTarget is what the driver and the mount probe a device for
// beyond blockio.Target; the ssd implements all three.
type batchTarget interface {
	blockio.BatchSubmitter
	Parallelism() int
	SetMetrics(*obs.Registry)
}

// tracedBatchTarget adds the optional interfaces for a device that has
// them. A plain disk must not grow them: Device.Submit would stop
// scheduling its batches.
type tracedBatchTarget struct {
	*tracedTarget
	inner batchTarget
}

func (d *tracedBatchTarget) SubmitBlocks(reqs []blockio.Req) (int, error) {
	s := d.begin()
	n, err := d.inner.SubmitBlocks(reqs)
	d.end(spDevSubmit, s)
	return n, err
}

func (d *tracedBatchTarget) Parallelism() int           { return d.inner.Parallelism() }
func (d *tracedBatchTarget) SetMetrics(r *obs.Registry) { d.inner.SetMetrics(r) }

func (t *tracer) wrapTarget(inner blockio.Target) blockio.Target {
	base := &tracedTarget{Target: inner, t: t, th: t.thread()}
	if b, ok := inner.(batchTarget); ok {
		return &tracedBatchTarget{tracedTarget: base, inner: b}
	}
	return base
}
