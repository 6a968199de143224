package srv

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cffs/internal/obs"
	"cffs/internal/vfs"
)

// Config configures a Server.
type Config struct {
	// FS is the mounted file system to serve. It must be safe for
	// concurrent use when QoS.Workers > 1 (the core is; single-threaded
	// ffs/lfs mounts need Workers: 1).
	FS vfs.FileSystem
	// Registry receives the per-tenant srv.* instruments. Nil disables
	// metrics.
	Registry *obs.Registry
	// Msize caps the negotiated frame size. 0 means DefaultMsize.
	Msize uint32
	// QoS is the admission/scheduling policy shared by all tenants.
	QoS QoS
}

// fid is one handle: a resolved ino bound to a tenant. The tenant
// bound here is what confines every walk: ".." is refused whenever the
// walk stands on the tenant's root ino (see walk), so no fid state can
// go stale and leak a path out of the subtree.
type fid struct {
	t      *tenant
	ino    vfs.Ino
	isRoot bool // the Tattach fid, counted as a session
	open   bool
	mode   uint8
}

// tenant is one namespace: a name, the directory subtree that roots it,
// its admission bucket, its dispatch queue, and its instruments.
type tenant struct {
	name string
	root vfs.Ino
	bkt  *bucket

	// dispatcher state, guarded by dispatcher.mu
	pending reqRing
	inRing  bool

	m tenantMetrics
}

type tenantMetrics struct {
	reqs       [msgMax]*obs.Counter
	errs       *obs.Counter
	latency    map[string]*obs.Histogram
	qosWait    *obs.Histogram
	qosRejects *obs.Counter
	sessions   *obs.Gauge
	fids       *obs.Gauge
	queueDepth *obs.Gauge
}

// latencyGroup buckets message types into few-enough histogram families.
func latencyGroup(t MsgType) string {
	switch t {
	case Tread:
		return "read"
	case Twrite, Tcreate, Tmkdir, Tunlink, Trename, Tfsync:
		return "write"
	case Treaddir:
		return "readdir"
	default:
		return "other"
	}
}

var latencyGroups = []string{"read", "write", "readdir", "other"}

func newTenantMetrics(r *obs.Registry, name string) tenantMetrics {
	var m tenantMetrics
	if r == nil {
		r = obs.NewRegistry() // a private one: the instruments must still count
	}
	m.errs = r.Counter(obs.Name("srv.errors", "tenant", name))
	m.qosRejects = r.Counter(obs.Name("srv.qos.rejects", "tenant", name))
	m.sessions = r.Gauge(obs.Name("srv.sessions", "tenant", name))
	m.fids = r.Gauge(obs.Name("srv.fids", "tenant", name))
	m.queueDepth = r.Gauge(obs.Name("srv.queue.depth", "tenant", name))
	m.qosWait = r.Histogram(obs.Name("srv.qos.wait.ns", "tenant", name))
	m.latency = make(map[string]*obs.Histogram, len(latencyGroups))
	for _, g := range latencyGroups {
		m.latency[g] = r.Histogram(obs.Name("srv.latency.ns", "op", g, "tenant", name))
	}
	for t := Tversion; t < msgMax; t += 2 { // T-types only
		if t == Rerror {
			// Rerror shares the stride but is never a request; keep the
			// slot non-nil without registering an always-zero family.
			m.reqs[t] = &obs.Counter{}
			continue
		}
		m.reqs[t] = r.Counter(obs.Name("srv.requests", "op", t.String(), "tenant", name))
	}
	return m
}

// Server serves the wire protocol over any net.Listener.
type Server struct {
	fs      vfs.FileSystem
	msize   uint32
	workers int

	mu        sync.Mutex
	tenants   map[string]*tenant
	conns     map[*conn]struct{}
	listeners map[net.Listener]struct{}
	closed    bool

	disp *dispatcher
	tctx tenantStack

	nfids atomic.Int64
	reg   *obs.Registry
	qos   QoS
}

// New builds a Server. Add tenants with AddTenant, then Serve listeners.
func New(cfg Config) *Server {
	if cfg.Msize == 0 {
		cfg.Msize = DefaultMsize
	}
	if cfg.Msize < MinMsize {
		cfg.Msize = MinMsize
	}
	if cfg.Msize > MaxMsize {
		cfg.Msize = MaxMsize
	}
	q := cfg.QoS
	if q.Workers <= 0 {
		q.Workers = DefaultWorkers
	}
	if q.QueueCap <= 0 {
		q.QueueCap = DefaultQueueCap
	}
	s := &Server{
		fs:        cfg.FS,
		msize:     cfg.Msize,
		workers:   q.Workers,
		tenants:   make(map[string]*tenant),
		conns:     make(map[*conn]struct{}),
		listeners: make(map[net.Listener]struct{}),
		reg:       cfg.Registry,
		qos:       q,
		disp:      newDispatcher(q.FairShare, q.QueueCap),
	}
	s.disp.run(q.Workers, s.serveRequest)
	return s
}

// AddTenant declares a tenant, creating /<name> as its namespace root
// if missing. Idempotent for an existing tenant.
func (s *Server) AddTenant(name string) error {
	if name == "" || name == "." || name == ".." || len(name) > vfs.MaxNameLen {
		return fmt.Errorf("tenant %q: %w", name, vfs.ErrInvalid)
	}
	for _, c := range name {
		if c == '/' {
			return fmt.Errorf("tenant %q: %w", name, vfs.ErrInvalid)
		}
	}
	root, err := vfs.MkdirAll(s.fs, "/"+name)
	if err != nil {
		return fmt.Errorf("tenant %q root: %w", name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[name]; ok {
		return nil
	}
	s.tenants[name] = &tenant{
		name: name,
		root: root,
		bkt:  newBucket(s.qos.Rate, s.qos.Burst),
		m:    newTenantMetrics(s.reg, name),
	}
	return nil
}

// Tenants lists the declared tenant names, sorted.
func (s *Server) Tenants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CurrentTenant reports which tenant the calling goroutine is (best
// effort) serving — the hook trace.Collector.LabelDrops wants.
func (s *Server) CurrentTenant() string { return s.tctx.current() }

// FidCount is the number of live fids across all connections; the
// torture tests assert it returns to zero.
func (s *Server) FidCount() int64 { return s.nfids.Load() }

// ConnCount is the number of live connections.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Serve accepts connections until the listener or server closes.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("srv: server closed")
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := s.newConn(nc)
		if c == nil {
			nc.Close()
			continue
		}
		go c.readLoop()
	}
}

// Close stops listeners, closes every connection, and waits for the
// worker pool to drain in-flight requests.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	lns := make([]net.Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		lns = append(lns, ln)
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.teardown()
	}
	s.disp.close()
}

// conn is one client connection: negotiated msize, fid table, in-flight
// tag set, and a write mutex so responses from concurrent workers don't
// interleave.
type conn struct {
	s  *Server
	nc net.Conn

	// msize is this connection's negotiated frame limit — the server
	// cap until Tversion succeeds, then whatever Rversion advertised.
	// The reader enforces it on inbound frames, write on outbound ones,
	// and the read/readdir budgets keep responses under it; atomic
	// because workers read it while the reader may renegotiate.
	msize atomic.Uint32

	wmu sync.Mutex // frame writes

	mu     sync.Mutex
	fids   map[uint32]fid
	tags   map[uint16]struct{}
	free   []*unit // recycled request units, at most maxFreeUnits
	closed bool

	// reader-goroutine state
	hdr [headerBytes]byte
	cur *unit // the unit the next frame is read into
}

// unit is one request's memory, with one owner at a time (DESIGN.md
// section 17): the reader decodes body into req (req.Data is a view, so a
// Twrite payload is never copied), a worker's handler fills resp, write
// encodes resp into frame, and only when that write has returned does
// reply put the unit on the connection's free list.
type unit struct {
	req   Fcall
	body  []byte
	resp  Fcall
	frame []byte
}

// maxFreeUnits keeps one deep pipeline from pinning thousands of buffers.
const maxFreeUnits = 32

// rreadData is where an Rread payload starts: header, then u32 count.
const rreadData = headerBytes + 4

// fail makes the unit's answer the Rerror for err.
func (u *unit) fail(err error) {
	u.resp.reset(Rerror, u.req.Tag)
	u.resp.Code, u.resp.Ename = errCode(err), err.Error()
	if len(u.resp.Ename) > maxEname {
		u.resp.Ename = u.resp.Ename[:maxEname-3] + "..."
	}
}

func (s *Server) newConn(nc net.Conn) *conn {
	c := &conn{
		s:    s,
		nc:   nc,
		fids: make(map[uint32]fid),
		tags: make(map[uint16]struct{}),
	}
	c.msize.Store(s.msize)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.conns[c] = struct{}{}
	return c
}

// teardown closes the connection and releases every fid it held. Safe
// to call more than once.
func (c *conn) teardown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	fids := c.fids
	c.fids = make(map[uint32]fid)
	c.mu.Unlock()
	for _, f := range fids {
		c.s.dropFid(f)
	}
	c.nc.Close()
	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
}

// dropFid settles the gauges for a fid that left its table.
func (s *Server) dropFid(f fid) {
	s.nfids.Add(-1)
	f.t.m.fids.Add(-1)
	if f.isRoot {
		f.t.m.sessions.Add(-1)
	}
}

// readLoop reads frames into units and routes them. Through the
// bufio.Reader a small frame is one Read of the transport, not one each
// for header and body (on a net.Pipe, two rendezvous). Any framing error
// — short read, bad size, a body whose fields lie — loses stream sync, so
// the connection dies and teardown releases its fids.
func (c *conn) readLoop() {
	defer c.teardown()
	br := bufio.NewReader(c.nc)
	for {
		if c.cur == nil {
			c.cur = new(unit)
		}
		u := c.cur
		typ, tag, n, err := readHeader(br, c.hdr[:], c.msize.Load())
		if err != nil {
			return
		}
		u.body = slices.Grow(u.body[:0], n)[:n]
		if _, err := io.ReadFull(br, u.body); err != nil {
			return
		}
		u.req.reset(typ, tag)
		if typ.known() && decodeBody(&u.req, u.body) != nil {
			return
		}
		c.route(u)
	}
}

// route handles one frame on the reader goroutine, answering what it
// answers itself from the reader's unit; only admit gives that away.
func (c *conn) route(u *unit) {
	f := &u.req
	switch {
	case readerOps[f.Type] != nil:
		// These execute synchronously on the reader, but their tags
		// still pass through the in-flight table: a client reusing a
		// tag held by a queued worker op must be refused here just as
		// in admit, or two responses race on one tag.
		c.mu.Lock()
		_, dup := c.tags[f.Tag]
		c.tags[f.Tag] = struct{}{}
		c.mu.Unlock()
		if dup {
			c.sendErr(u, fmt.Errorf("tag %d already in flight: %w", f.Tag, ErrProto))
			return
		}
		u.resp.reset(f.Type+1, f.Tag)
		if err := readerOps[f.Type](c, u); err != nil {
			u.fail(err)
		}
		c.write(u, true)
	case handlers[f.Type] != nil:
		c.admit(u)
	default:
		// Well-formed frame, nonsense type (or a client sending
		// R-messages): answer and keep the stream.
		c.sendErr(u, fmt.Errorf("unexpected message %v: %w", f.Type, ErrProto))
	}
}

// readerOps are the requests the reader serves itself. Both tables span
// every MsgType value, so a frame's type indexes them unchecked.
var readerOps = [256]func(*conn, *unit) error{Tversion: (*conn).version, Tattach: (*conn).attach, Tclunk: (*conn).clunk}

// version negotiates the protocol revision and this connection's frame
// limit. The negotiated msize only takes effect on success — a client
// answered "unknown" is expected to hang up, not renegotiate framing.
func (c *conn) version(u *unit) error {
	msize := c.s.msize
	if u.req.Msize != 0 {
		msize = max(MinMsize, min(u.req.Msize, msize))
	}
	u.resp.Msize, u.resp.Version = msize, "unknown"
	if u.req.Version == Version {
		c.msize.Store(msize)
		u.resp.Version = Version
	}
	return nil
}

func (c *conn) attach(u *unit) error {
	c.s.mu.Lock()
	t := c.s.tenants[u.req.Tenant]
	c.s.mu.Unlock()
	if t == nil {
		return fmt.Errorf("unknown tenant %q: %w", u.req.Tenant, ErrPerm)
	}
	if !c.installFid(u.req.Fid, fid{t: t, ino: t.root, isRoot: true}) {
		return fmt.Errorf("fid %d in use: %w", u.req.Fid, ErrProto)
	}
	t.m.reqs[Tattach].Inc()
	t.m.sessions.Add(1)
	u.resp.Ino = uint64(t.root)
	return nil
}

func (c *conn) clunk(u *unit) error {
	c.mu.Lock()
	fd, ok := c.fids[u.req.Fid]
	delete(c.fids, u.req.Fid)
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("clunk of unknown fid %d: %w", u.req.Fid, ErrProto)
	}
	c.s.dropFid(fd)
	return nil
}

// admit runs the QoS front half on the reader goroutine: resolve the
// tenant, reserve the tag, pay the token bucket (blocking the reader is
// the backpressure), and queue for dispatch. The critical section that
// reserves the tag also takes the reader's next unit off the free list.
func (c *conn) admit(u *unit) {
	f := &u.req
	c.mu.Lock()
	fd, ok := c.fids[f.Fid]
	_, dup := c.tags[f.Tag]
	if ok && !dup {
		c.tags[f.Tag] = struct{}{}
		c.cur = nil
		if n := len(c.free); n > 0 {
			c.cur, c.free = c.free[n-1], c.free[:n-1]
		}
	}
	c.mu.Unlock()
	if !ok {
		c.sendErr(u, fmt.Errorf("unknown fid %d: %w", f.Fid, ErrProto))
		return
	}
	if dup {
		// A duplicate in-flight tag means the client's bookkeeping is
		// broken; executing the request would let two responses race
		// for one tag. Refuse without executing.
		c.sendErr(u, fmt.Errorf("tag %d already in flight: %w", f.Tag, ErrProto))
		return
	}
	t := fd.t

	if waited := t.bkt.wait(); waited > 0 {
		t.m.qosWait.Record(int64(waited))
	}
	t.m.reqs[f.Type].Inc()
	if !c.s.disp.enqueue(request{c: c, t: t, u: u, start: time.Now()}) {
		t.m.qosRejects.Inc()
		u.fail(fmt.Errorf("tenant %q queue full: %w", t.name, ErrLimit))
		c.reply(u)
	}
}

// serveRequest is the worker side: execute against the fs and reply,
// which retires the tag and releases the unit.
func (s *Server) serveRequest(r request) {
	u := r.u
	u.resp.reset(u.req.Type+1, u.req.Tag)
	var err error
	if fd, ok := r.c.fidRef(u.req.Fid); ok {
		s.tctx.push(&r.t.name)
		err = handlers[u.req.Type](s, r.c, fd, u)
		s.tctx.pop()
	} else {
		err = fmt.Errorf("%v of unknown fid %d: %w", u.req.Type, u.req.Fid, ErrProto)
	}
	r.t.m.latency[latencyGroup(u.req.Type)].Record(time.Since(r.start).Nanoseconds())
	if err != nil {
		r.t.m.errs.Inc()
		u.fail(err)
	}
	r.c.reply(u)
}

// fidRef snapshots a fid's fields under the conn lock; the vfs call
// then runs lock-free.
func (c *conn) fidRef(id uint32) (fid, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.fids[id]
	return f, ok
}

// installFid binds a new fid id, refusing ids already in use (and the
// reserved NoFid).
func (c *conn) installFid(id uint32, f fid) bool {
	if id == NoFid {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	if _, exists := c.fids[id]; exists {
		return false
	}
	c.fids[id] = f
	c.s.nfids.Add(1)
	f.t.m.fids.Add(1)
	return true
}

// handlers are the requests that go through admission to a worker. A
// handler gets the operand fid as it stands when the request runs, and
// fills u.resp (already reset to the R-type) or returns the Rerror's cause.
var handlers = [256]func(*Server, *conn, fid, *unit) error{
	Twalk: (*Server).walk, Topen: (*Server).open, Tcreate: (*Server).create,
	Tmkdir: (*Server).mkdir, Tread: (*Server).read, Twrite: (*Server).write,
	Tstat: (*Server).stat, Treaddir: (*Server).readdir, Tunlink: (*Server).unlink,
	Trename: (*Server).rename, Tfsync: (*Server).fsync,
}

func (s *Server) fsync(*conn, fid, *unit) error { return s.fs.Sync() }

// walk resolves path components relative to an existing fid, binding
// the result to NewFid. ".." stops at the tenant root: a fid can name
// anything inside its tenant's subtree and nothing outside it.
//
// The boundary test compares the current ino against the tenant root
// ino on every ".." step. It must not be a depth counter recorded when
// the fid was minted: rename can move a directory up or down the tree
// (repointing its physical ".." entry) while fids into it stay live,
// so any recorded depth goes stale and a stale depth would let ".."
// slip past the root into other tenants. Since same-tenant renames are
// the only renames the server permits, every fid's ino stays inside
// its tenant's subtree, and any ascent out of the subtree has to pass
// through the root ino — where it is refused. (The root of the tenant src
// is bound to now: a fid id can be re-attached after admission.)
func (s *Server) walk(c *conn, src fid, u *unit) error {
	f := &u.req
	cur := src.ino
	for _, name := range f.Names {
		if name == "" || name == "." {
			continue
		}
		if err := checkWireName(name); err != nil {
			return err
		}
		if name == ".." && cur == src.t.root {
			return fmt.Errorf("walk above tenant root: %w", ErrPerm)
		}
		next, err := s.fs.Lookup(cur, name)
		if err != nil {
			return fmt.Errorf("walk at %q: %w", name, err)
		}
		cur = next
	}
	if !c.installFid(f.NewFid, fid{t: src.t, ino: cur}) {
		return fmt.Errorf("fid %d in use: %w", f.NewFid, ErrProto)
	}
	u.resp.Ino = uint64(cur)
	return nil
}

// open marks a fid usable for I/O. The mode maps through the same vfs
// flag lattice as path opens: truncation needs write access, write
// access to a directory is ErrIsDir.
func (s *Server) open(c *conn, fd fid, u *unit) error {
	f := &u.req
	flag, err := MapOpenMode(f.Mode)
	if err != nil {
		return err
	}
	st, err := s.fs.Stat(fd.ino)
	if err != nil {
		return err
	}
	if st.Type == vfs.TypeDir && flag&vfs.OWrite != 0 {
		return fmt.Errorf("open for write of a directory: %w", vfs.ErrIsDir)
	}
	if flag&vfs.OTrunc != 0 {
		if err := s.fs.Truncate(fd.ino, 0); err != nil {
			return err
		}
		st.Size, st.Blocks = 0, 0
		if st2, err := s.fs.Stat(fd.ino); err == nil {
			st = st2
		}
	}
	c.mu.Lock()
	if live, ok := c.fids[f.Fid]; ok {
		live.open, live.mode = true, f.Mode
		c.fids[f.Fid] = live
	}
	c.mu.Unlock()
	u.resp.Stat = toWireStat(st)
	return nil
}

// checkWireName refuses entry names no backend may ever accept: one over
// vfs.MaxNameLen cannot exist, a "/" would smuggle extra path components
// through a single-name field (a tenant-escape vector if a backend were
// lax about it), and NUL-bearing names break every on-disk format here.
// The file systems reject these too; refusing at the wire keeps the
// guarantee independent of which backend is mounted, with stable Rerror
// codes (codeNameTooLong, codeInvalid).
func checkWireName(name string) error {
	if len(name) > vfs.MaxNameLen {
		return fmt.Errorf("name of %d bytes: %w", len(name), vfs.ErrNameTooLong)
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return fmt.Errorf("name %q: %w", name, vfs.ErrInvalid)
		}
	}
	return nil
}

func (s *Server) create(c *conn, fd fid, u *unit) error {
	f := &u.req
	if err := checkWireName(f.Name); err != nil {
		return err
	}
	ino, err := s.fs.Create(fd.ino, f.Name)
	if err != nil {
		return err
	}
	st, err := s.fs.Stat(ino)
	if err != nil {
		return err
	}
	if !c.installFid(f.NewFid, fid{t: fd.t, ino: ino, open: true, mode: OModeRead | OModeWrite}) {
		// The file exists; only the handle binding failed.
		return fmt.Errorf("fid %d in use: %w", f.NewFid, ErrProto)
	}
	u.resp.Ino, u.resp.Stat = uint64(ino), toWireStat(st)
	return nil
}

func (s *Server) mkdir(c *conn, fd fid, u *unit) error {
	f := &u.req
	if err := checkWireName(f.Name); err != nil {
		return err
	}
	ino, err := s.fs.Mkdir(fd.ino, f.Name)
	u.resp.Ino = uint64(ino)
	return err
}

// read has the file system fill the reply frame behind the space of the
// Rread header: one copy, cache to frame, which the encoder finds in place.
func (s *Server) read(c *conn, fd fid, u *unit) error {
	f := &u.req
	if !fd.open || fd.mode&OModeRead == 0 {
		return fmt.Errorf("read of fid not open for reading: %w", ErrPerm)
	}
	count := min(int64(f.Count), int64(c.msize.Load()-IOHeadroom))
	if rreadData+count > int64(cap(u.frame)) {
		// The frame must grow: size it to what the file can supply, not
		// to what the client asked for.
		st, err := s.fs.Stat(fd.ino)
		if err != nil {
			return err
		}
		count = max(0, min(count, st.Size-f.Off))
	}
	u.frame = slices.Grow(u.frame[:0], rreadData+int(count))[:rreadData+int(count)]
	n, err := s.fs.ReadAt(fd.ino, u.frame[rreadData:], f.Off)
	u.resp.Data = u.frame[rreadData : rreadData+n]
	return err
}

func (s *Server) write(c *conn, fd fid, u *unit) error {
	f := &u.req
	if !fd.open || fd.mode&OModeWrite == 0 {
		return fmt.Errorf("write of fid not open for writing: %w", ErrPerm)
	}
	n, err := s.fs.WriteAt(fd.ino, f.Data, f.Off)
	u.resp.Count = uint32(n)
	return err
}

func (s *Server) stat(c *conn, fd fid, u *unit) error {
	st, err := s.fs.Stat(fd.ino)
	u.resp.Stat = toWireStat(st)
	return err
}

// readdir pages a directory by entry index in name order. Paging by
// index over a sorted copy keeps pages stable under concurrent
// mutation to exactly the degree the underlying fs is stable, and
// bounds per-request work — which is what makes one-request fair-share
// quanta meaningful against readdir storms.
func (s *Server) readdir(c *conn, fd fid, u *unit) error {
	f := &u.req
	if !fd.open || fd.mode&OModeRead == 0 {
		return fmt.Errorf("readdir of fid not open for reading: %w", ErrPerm)
	}
	ents, err := s.fs.ReadDir(fd.ino)
	if err != nil {
		return err
	}
	slices.SortFunc(ents, func(a, b vfs.DirEntry) int { return strings.Compare(a.Name, b.Name) })
	if f.Off < 0 || f.Off > int64(len(ents)) {
		return fmt.Errorf("readdir offset %d: %w", f.Off, vfs.ErrInvalid)
	}
	budget := int(c.msize.Load()) - IOHeadroom
	for _, e := range ents[f.Off:] {
		cost := wireEntBytes + len(e.Name)
		if budget < cost {
			u.resp.More = true
			break
		}
		budget -= cost
		u.resp.Ents = append(u.resp.Ents, WireDirEnt{Ino: uint64(e.Ino), Type: uint8(e.Type), Name: e.Name})
	}
	return nil
}

func (s *Server) unlink(c *conn, fd fid, u *unit) error {
	f := &u.req
	if err := checkWireName(f.Name); err != nil {
		return err
	}
	if f.Rmdir {
		return s.fs.Rmdir(fd.ino, f.Name)
	}
	return s.fs.Unlink(fd.ino, f.Name)
}

func (s *Server) rename(c *conn, src fid, u *unit) error {
	f := &u.req
	dst, ok := c.fidRef(f.DirFid)
	if !ok {
		return fmt.Errorf("rename to unknown fid %d: %w", f.DirFid, ErrProto)
	}
	if dst.t != src.t {
		return fmt.Errorf("rename across tenants: %w", ErrPerm)
	}
	if err := checkWireName(f.Name); err != nil {
		return err
	}
	if err := checkWireName(f.NewName); err != nil {
		return err
	}
	return s.fs.Rename(src.ino, f.Name, dst.ino, f.NewName)
}

// write encodes the unit's answer into its frame buffer and puts it on
// the wire; write failures tear the connection down (the reader will
// notice too, harmlessly). A frame over the connection's msize would make
// a conforming client drop the session, so an Rerror — which always fits
// MinMsize, see maxEname — goes out in its place.
//
// With retire set the frame answers the request that reserved its tag,
// and the tag leaves the in-flight table here — inside the write
// serialisation, before the first reply byte can be observed. A client
// may reuse a tag the instant it has read the reply, so by then the tag
// must be free; releasing it once the write has returned would refuse
// such a client whenever the worker lost the CPU in between. A
// duplicate that arrives while the request is still queued or executing
// is always refused: the tag is held until its response exists. And
// because it is dropped under wmu, answers to one tag leave in request
// order.
func (c *conn) write(u *unit, retire bool) {
	frame, err := appendFcall(u.frame[:0], &u.resp, c.msize.Load())
	if err != nil {
		u.fail(err)
		frame, _ = appendFcall(frame[:0], &u.resp, 0)
	}
	c.wmu.Lock()
	if retire {
		c.mu.Lock()
		delete(c.tags, u.resp.Tag)
		c.mu.Unlock()
	}
	_, err = c.nc.Write(frame)
	c.wmu.Unlock()
	if err != nil {
		c.teardown()
	}
	// Written: nothing reads the unit's buffers any more.
	u.body, u.frame = recycled(u.body), recycled(frame)
}

// reply answers the request that reserved the unit's tag, retires the
// tag, and then returns the unit to the connection's free list.
func (c *conn) reply(u *unit) {
	c.write(u, true)
	c.mu.Lock()
	if len(c.free) < maxFreeUnits {
		c.free = append(c.free, u)
	}
	c.mu.Unlock()
}

// sendErr answers, from the reader's unit, a frame that never reserved
// its tag — a refused duplicate, an unknown type or fid — so the tag table
// is left alone: the tag may belong to a request still in flight.
func (c *conn) sendErr(u *unit, err error) {
	u.fail(err)
	c.write(u, false)
}
