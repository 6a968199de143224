package obs

import (
	"sync"
	"sync/atomic"
)

// Op identifies the vfs operation type a piece of work belongs to.
// Every disk request carries the Op (and a per-operation ID) of the
// vfs entry point that issued it, which is what lets the experiment
// tables report requests *per operation by type* — the unit the
// paper's "order of magnitude fewer disk requests" claim is stated in.
type Op uint8

// Operation types, one per vfs.FileSystem method (plus OpNone for
// unattributed work such as mkfs and fsck).
const (
	OpNone Op = iota
	OpLookup
	OpCreate
	OpMkdir
	OpLink
	OpUnlink
	OpRmdir
	OpRename
	OpReadDir
	OpReadAt
	OpWriteAt
	OpTruncate
	OpStat
	OpSync
	OpFlush
	NumOps // sentinel: number of op types
)

var opNames = [NumOps]string{
	"none", "lookup", "create", "mkdir", "link", "unlink", "rmdir",
	"rename", "readdir", "readat", "writeat", "truncate", "stat",
	"sync", "flush",
}

func (op Op) String() string {
	if op < NumOps {
		return opNames[op]
	}
	return "invalid"
}

// OpRef names one operation instance: its type and a process-wide
// monotonically assigned ID. The zero OpRef means "no operation".
type OpRef struct {
	Kind Op
	ID   uint64
}

// opSeq assigns operation IDs across all file systems, so interleaved
// requests from concurrent clients stay distinguishable in one trace.
var opSeq atomic.Uint64

// The ambient op context is a process-global stack of active
// operations. An operation executes synchronously on the goroutine that
// entered the vfs method (every layer below — core, cache, blockio,
// disk — is a plain call), so for a single driving goroutine the stack
// is perfectly nested and attribution is exact. That covers every
// measurement path that emits metrics: the experiment harness drives
// one operation at a time. When concurrent clients overlap operations,
// the ambient op is the most recently begun still-active one —
// best-effort attribution, never corruption (ends unwind by identity,
// in any order).
//
// The newest active op is mirrored into a packed atomic so the
// disk-side query (disk.SetOpSource, called once per request while the
// disk lock is held) is a single lock-free load.
var ops struct {
	mu    sync.Mutex
	stack []OpRef
	top   atomic.Uint64 // packRef of the newest active op; 0 = none
}

// idMask keeps op IDs to 56 bits so a packed ref fits one word.
const idMask = 1<<56 - 1

func packRef(r OpRef) uint64 { return uint64(r.Kind)<<56 | r.ID }

func unpackRef(v uint64) OpRef { return OpRef{Kind: Op(v >> 56), ID: v & idMask} }

// beginOp pushes a new op context and returns its ref (ops nest: a vfs
// helper that calls another public method keeps inner attribution, and
// the outer op resurfaces when the inner one ends).
func beginOp(kind Op) OpRef {
	ref := OpRef{Kind: kind, ID: opSeq.Add(1) & idMask}
	ops.mu.Lock()
	ops.stack = append(ops.stack, ref)
	ops.top.Store(packRef(ref))
	ops.mu.Unlock()
	return ref
}

// endOp unwinds ref from the op stack by identity, wherever it sits.
func endOp(ref OpRef) {
	ops.mu.Lock()
	for i := len(ops.stack) - 1; i >= 0; i-- {
		if ops.stack[i] == ref {
			ops.stack = append(ops.stack[:i], ops.stack[i+1:]...)
			break
		}
	}
	if n := len(ops.stack); n > 0 {
		ops.top.Store(packRef(ops.stack[n-1]))
	} else {
		ops.top.Store(0)
	}
	ops.mu.Unlock()
}

// CurrentOp returns the ambient op context (zero when no operation is
// in scope). Lock-free.
func CurrentOp() OpRef {
	return unpackRef(ops.top.Load())
}

// CurrentOpRaw is CurrentOp flattened for layers (the disk model) that
// deliberately do not import this package; it matches the signature of
// disk.SetOpSource.
func CurrentOpRaw() (kind uint8, id uint64) {
	ref := CurrentOp()
	return uint8(ref.Kind), ref.ID
}

// OpObserver receives operation-lifecycle events from an OpTracker.
// OpBegin fires after the op context is installed; OpEnd fires after it
// is unwound, on the same goroutine, with no file-system locks held
// (the scope's End is the outermost defer at every vfs entry point).
// The flight recorder is the intended implementation.
type OpObserver interface {
	OpBegin(ref OpRef)
	OpEnd(ref OpRef)
}

// OpTracker scopes and counts a file system's operations. Each
// instrumented FS owns one; Begin at a vfs entry point installs the op
// context and bumps the per-type operation counter. A tracker built
// over a nil registry is disabled and Begin costs two branches.
type OpTracker struct {
	ops [NumOps]*Counter
	obs OpObserver
	on  bool
}

// NewOpTracker builds a tracker recording into r ("ops.<type>"
// counters). A nil r yields a disabled tracker (never nil).
func NewOpTracker(r *Registry) *OpTracker {
	t := &OpTracker{}
	if r == nil {
		return t
	}
	t.on = true
	for op := Op(0); op < NumOps; op++ {
		t.ops[op] = r.Counter("ops." + op.String())
	}
	return t
}

// Enabled reports whether the tracker records anything.
func (t *OpTracker) Enabled() bool { return t != nil && (t.on || t.obs != nil) }

// Observe attaches an operation observer. The per-type counters stay
// nil-safe, so observation works even on a tracker built over a nil
// registry (a flight recorder without a metrics registry).
func (t *OpTracker) Observe(o OpObserver) {
	if t != nil {
		t.obs = o
	}
}

// OpScope is one entered operation, returned by value so that scoping
// an operation costs no heap allocation. The zero OpScope (a disabled
// tracker's) ends nothing.
type OpScope struct {
	t   *OpTracker
	ref OpRef
}

// Begin enters an operation scope; End on the returned scope leaves it.
// Usage at a vfs entry point: defer t.Begin(obs.OpCreate).End().
func (t *OpTracker) Begin(kind Op) OpScope {
	if !t.Enabled() {
		return OpScope{}
	}
	t.ops[kind].Inc()
	ref := beginOp(kind)
	if t.obs != nil {
		t.obs.OpBegin(ref)
	}
	return OpScope{t: t, ref: ref}
}

// End leaves the scope: the op is unwound from the ambient stack, then
// the observer (if any) is told.
func (s OpScope) End() {
	if s.t == nil {
		return
	}
	endOp(s.ref)
	if s.t.obs != nil {
		s.t.obs.OpEnd(s.ref)
	}
}
