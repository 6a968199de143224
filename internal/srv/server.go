package srv

import (
	"errors"
	"fmt"
	"net"
	"sort"
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
	pending []request
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
		// Zero-value obs instruments are usable, so a nil registry just
		// means unregistered throwaways.
		m.errs = &obs.Counter{}
		m.qosRejects = &obs.Counter{}
		m.sessions = &obs.Gauge{}
		m.fids = &obs.Gauge{}
		m.queueDepth = &obs.Gauge{}
		m.qosWait = &obs.Histogram{}
		m.latency = map[string]*obs.Histogram{}
		for _, g := range latencyGroups {
			m.latency[g] = &obs.Histogram{}
		}
		for t := MsgType(0); t < msgMax; t++ {
			m.reqs[t] = &obs.Counter{}
		}
		return m
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
	// The reader enforces it on inbound frames and the read/readdir
	// budgets keep responses under it; atomic because workers read it
	// while the reader may renegotiate.
	msize atomic.Uint32

	wmu sync.Mutex // frame writes

	mu     sync.Mutex
	fids   map[uint32]*fid
	tags   map[uint16]struct{}
	closed bool
}

func (s *Server) newConn(nc net.Conn) *conn {
	c := &conn{
		s:    s,
		nc:   nc,
		fids: make(map[uint32]*fid),
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
	c.fids = make(map[uint32]*fid)
	c.mu.Unlock()
	for _, f := range fids {
		c.s.nfids.Add(-1)
		f.t.m.fids.Add(-1)
		if f.isRoot {
			f.t.m.sessions.Add(-1)
		}
	}
	c.nc.Close()
	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
}

// readLoop parses frames and routes them. Any framing error — short
// read, bad size — loses stream sync, so the connection dies and
// teardown releases its fids.
func (c *conn) readLoop() {
	defer c.teardown()
	for {
		f, err := ReadFcall(c.nc, c.msize.Load())
		if err != nil {
			return
		}
		if !c.route(f) {
			return
		}
	}
}

// route handles one parsed frame on the reader goroutine, returning
// false to drop the connection.
func (c *conn) route(f *Fcall) bool {
	switch f.Type {
	case Tversion, Tattach, Tclunk:
		// These execute synchronously on the reader, but their tags
		// still pass through the in-flight table: a client reusing a
		// tag held by a queued worker op must be refused here just as
		// in admit, or two responses race on one tag.
		if !c.reserveTag(f.Tag) {
			c.sendErr(f.Tag, fmt.Errorf("tag %d already in flight: %w", f.Tag, ErrProto))
			return true
		}
		var resp *Fcall
		switch f.Type {
		case Tversion:
			resp = c.version(f)
		case Tattach:
			resp = c.attach(f)
		case Tclunk:
			resp = c.clunk(f)
		}
		c.reply(f.Tag, resp)
		return true
	case Twalk, Topen, Tcreate, Tmkdir, Tread, Twrite, Tstat, Treaddir, Tunlink, Trename, Tfsync:
		return c.admit(f)
	default:
		// Well-formed frame, nonsense type (or a client sending
		// R-messages): answer and keep the stream.
		c.sendErr(f.Tag, fmt.Errorf("unexpected message %v: %w", f.Type, ErrProto))
		return true
	}
}

// version negotiates the protocol revision and this connection's frame
// limit. The negotiated msize only takes effect on success — a client
// answered "unknown" is expected to hang up, not renegotiate framing.
func (c *conn) version(f *Fcall) *Fcall {
	msize := f.Msize
	if msize == 0 || msize > c.s.msize {
		msize = c.s.msize
	}
	if msize < MinMsize {
		msize = MinMsize
	}
	if f.Version != Version {
		return &Fcall{Type: Rversion, Msize: msize, Version: "unknown"}
	}
	c.msize.Store(msize)
	return &Fcall{Type: Rversion, Msize: msize, Version: Version}
}

func (c *conn) attach(f *Fcall) *Fcall {
	c.s.mu.Lock()
	t := c.s.tenants[f.Tenant]
	c.s.mu.Unlock()
	if t == nil {
		return rerror(fmt.Errorf("unknown tenant %q: %w", f.Tenant, ErrPerm))
	}
	if !c.installFid(f.Fid, &fid{t: t, ino: t.root, isRoot: true}) {
		return rerror(fmt.Errorf("fid %d in use: %w", f.Fid, ErrProto))
	}
	t.m.reqs[Tattach].Inc()
	t.m.sessions.Add(1)
	return &Fcall{Type: Rattach, Ino: uint64(t.root)}
}

func (c *conn) clunk(f *Fcall) *Fcall {
	c.mu.Lock()
	fd, ok := c.fids[f.Fid]
	if ok {
		delete(c.fids, f.Fid)
	}
	c.mu.Unlock()
	if !ok {
		return rerror(fmt.Errorf("clunk of unknown fid %d: %w", f.Fid, ErrProto))
	}
	c.s.nfids.Add(-1)
	fd.t.m.fids.Add(-1)
	if fd.isRoot {
		fd.t.m.sessions.Add(-1)
	}
	return &Fcall{Type: Rclunk}
}

// admit runs the QoS front half on the reader goroutine: resolve the
// tenant, reserve the tag, pay the token bucket (blocking the reader is
// the backpressure), and queue for dispatch.
func (c *conn) admit(f *Fcall) bool {
	c.mu.Lock()
	fd := c.fids[f.Fid]
	if fd == nil {
		c.mu.Unlock()
		c.sendErr(f.Tag, fmt.Errorf("unknown fid %d: %w", f.Fid, ErrProto))
		return true
	}
	t := fd.t
	if _, dup := c.tags[f.Tag]; dup {
		c.mu.Unlock()
		// A duplicate in-flight tag means the client's bookkeeping is
		// broken; executing the request would let two responses race
		// for one tag. Refuse without executing.
		c.sendErr(f.Tag, fmt.Errorf("tag %d already in flight: %w", f.Tag, ErrProto))
		return true
	}
	c.tags[f.Tag] = struct{}{}
	c.mu.Unlock()

	if waited := t.bkt.wait(); waited > 0 {
		t.m.qosWait.Record(int64(waited))
	}
	t.m.reqs[f.Type].Inc()
	if !c.s.disp.enqueue(request{c: c, t: t, f: f, start: time.Now()}) {
		t.m.qosRejects.Inc()
		c.reply(f.Tag, rerror(fmt.Errorf("tenant %q queue full: %w", t.name, ErrLimit)))
	}
	return true
}

// reserveTag marks tag in flight, reporting false when the client
// already has it in flight (the caller answers without executing).
func (c *conn) reserveTag(tag uint16) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tags[tag]; dup {
		return false
	}
	c.tags[tag] = struct{}{}
	return true
}

// serveRequest is the worker side: execute against the fs and reply,
// which retires the tag.
func (s *Server) serveRequest(r request) {
	s.tctx.push(&r.t.name)
	resp := s.handle(r.c, r.t, r.f)
	s.tctx.pop()
	r.t.m.latency[latencyGroup(r.f.Type)].Record(time.Since(r.start).Nanoseconds())
	if resp.Type == Rerror {
		r.t.m.errs.Inc()
	}
	r.c.reply(r.f.Tag, resp)
}

func rerror(err error) *Fcall {
	return &Fcall{Type: Rerror, Code: errCode(err), Ename: err.Error()}
}

// fidRef snapshots a fid's fields under the conn lock; the vfs call
// then runs lock-free.
func (c *conn) fidRef(id uint32) (fid, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.fids[id]
	if f == nil {
		return fid{}, false
	}
	return *f, true
}

// installFid binds a new fid id, refusing ids already in use (and the
// reserved NoFid).
func (c *conn) installFid(id uint32, f *fid) bool {
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

func (s *Server) handle(c *conn, t *tenant, f *Fcall) *Fcall {
	switch f.Type {
	case Twalk:
		return s.walk(c, t, f)
	case Topen:
		return s.open(c, f)
	case Tcreate:
		return s.create(c, t, f)
	case Tmkdir:
		return s.mkdir(c, f)
	case Tread:
		return s.read(c, f)
	case Twrite:
		return s.write(c, f)
	case Tstat:
		return s.stat(c, f)
	case Treaddir:
		return s.readdir(c, f)
	case Tunlink:
		return s.unlink(c, f)
	case Trename:
		return s.rename(c, t, f)
	case Tfsync:
		if err := s.fs.Sync(); err != nil {
			return rerror(err)
		}
		return &Fcall{Type: Rfsync}
	}
	return rerror(fmt.Errorf("unhandled %v: %w", f.Type, ErrProto))
}

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
// through the root ino — where it is refused.
func (s *Server) walk(c *conn, t *tenant, f *Fcall) *Fcall {
	src, ok := c.fidRef(f.Fid)
	if !ok {
		return rerror(fmt.Errorf("walk from unknown fid %d: %w", f.Fid, ErrProto))
	}
	cur := src.ino
	for _, name := range f.Names {
		if name == "" || name == "." {
			continue
		}
		if err := checkWireName(name); err != nil {
			return rerror(err)
		}
		if name == ".." && cur == t.root {
			return rerror(fmt.Errorf("walk above tenant root: %w", ErrPerm))
		}
		next, err := s.fs.Lookup(cur, name)
		if err != nil {
			return rerror(fmt.Errorf("walk at %q: %w", name, err))
		}
		cur = next
	}
	if !c.installFid(f.NewFid, &fid{t: t, ino: cur}) {
		return rerror(fmt.Errorf("fid %d in use: %w", f.NewFid, ErrProto))
	}
	return &Fcall{Type: Rwalk, Ino: uint64(cur)}
}

// open marks a fid usable for I/O. The mode maps through the same vfs
// flag lattice as path opens: truncation needs write access, write
// access to a directory is ErrIsDir.
func (s *Server) open(c *conn, f *Fcall) *Fcall {
	fd, ok := c.fidRef(f.Fid)
	if !ok {
		return rerror(fmt.Errorf("open of unknown fid %d: %w", f.Fid, ErrProto))
	}
	flag, err := MapOpenMode(f.Mode)
	if err != nil {
		return rerror(err)
	}
	st, err := s.fs.Stat(fd.ino)
	if err != nil {
		return rerror(err)
	}
	if st.Type == vfs.TypeDir && flag&vfs.OWrite != 0 {
		return rerror(fmt.Errorf("open for write of a directory: %w", vfs.ErrIsDir))
	}
	if flag&vfs.OTrunc != 0 {
		if err := s.fs.Truncate(fd.ino, 0); err != nil {
			return rerror(err)
		}
		st.Size, st.Blocks = 0, 0
		if st2, err := s.fs.Stat(fd.ino); err == nil {
			st = st2
		}
	}
	c.mu.Lock()
	if live := c.fids[f.Fid]; live != nil {
		live.open = true
		live.mode = f.Mode
	}
	c.mu.Unlock()
	return &Fcall{Type: Ropen, Stat: toWireStat(st)}
}

// checkWireName refuses entry names no backend may ever accept: a "/"
// would smuggle extra path components through a single-name field (a
// tenant-escape vector if a backend were lax about it), and NUL-bearing
// names break every on-disk format here. The file systems reject these
// too; refusing at the wire keeps the guarantee independent of which
// backend is mounted, with a stable Rerror code (codeInvalid).
func checkWireName(name string) error {
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return fmt.Errorf("name %q: %w", name, vfs.ErrInvalid)
		}
	}
	return nil
}

func (s *Server) create(c *conn, t *tenant, f *Fcall) *Fcall {
	fd, ok := c.fidRef(f.Fid)
	if !ok {
		return rerror(fmt.Errorf("create in unknown fid %d: %w", f.Fid, ErrProto))
	}
	if err := checkWireName(f.Name); err != nil {
		return rerror(err)
	}
	ino, err := s.fs.Create(fd.ino, f.Name)
	if err != nil {
		return rerror(err)
	}
	st, err := s.fs.Stat(ino)
	if err != nil {
		return rerror(err)
	}
	nf := &fid{t: t, ino: ino, open: true, mode: OModeRead | OModeWrite}
	if !c.installFid(f.NewFid, nf) {
		// The file exists; only the handle binding failed.
		return rerror(fmt.Errorf("fid %d in use: %w", f.NewFid, ErrProto))
	}
	return &Fcall{Type: Rcreate, Ino: uint64(ino), Stat: toWireStat(st)}
}

func (s *Server) mkdir(c *conn, f *Fcall) *Fcall {
	fd, ok := c.fidRef(f.Fid)
	if !ok {
		return rerror(fmt.Errorf("mkdir in unknown fid %d: %w", f.Fid, ErrProto))
	}
	if err := checkWireName(f.Name); err != nil {
		return rerror(err)
	}
	ino, err := s.fs.Mkdir(fd.ino, f.Name)
	if err != nil {
		return rerror(err)
	}
	return &Fcall{Type: Rmkdir, Ino: uint64(ino)}
}

func (s *Server) read(c *conn, f *Fcall) *Fcall {
	fd, ok := c.fidRef(f.Fid)
	if !ok {
		return rerror(fmt.Errorf("read of unknown fid %d: %w", f.Fid, ErrProto))
	}
	if !fd.open || fd.mode&OModeRead == 0 {
		return rerror(fmt.Errorf("read of fid not open for reading: %w", ErrPerm))
	}
	count := f.Count
	if max := c.msize.Load() - IOHeadroom; count > max {
		count = max
	}
	buf := make([]byte, count)
	n, err := s.fs.ReadAt(fd.ino, buf, f.Off)
	if err != nil {
		return rerror(err)
	}
	return &Fcall{Type: Rread, Data: buf[:n]}
}

func (s *Server) write(c *conn, f *Fcall) *Fcall {
	fd, ok := c.fidRef(f.Fid)
	if !ok {
		return rerror(fmt.Errorf("write of unknown fid %d: %w", f.Fid, ErrProto))
	}
	if !fd.open || fd.mode&OModeWrite == 0 {
		return rerror(fmt.Errorf("write of fid not open for writing: %w", ErrPerm))
	}
	n, err := s.fs.WriteAt(fd.ino, f.Data, f.Off)
	if err != nil {
		return rerror(err)
	}
	return &Fcall{Type: Rwrite, Count: uint32(n)}
}

func (s *Server) stat(c *conn, f *Fcall) *Fcall {
	fd, ok := c.fidRef(f.Fid)
	if !ok {
		return rerror(fmt.Errorf("stat of unknown fid %d: %w", f.Fid, ErrProto))
	}
	st, err := s.fs.Stat(fd.ino)
	if err != nil {
		return rerror(err)
	}
	return &Fcall{Type: Rstat, Stat: toWireStat(st)}
}

// readdir pages a directory by entry index in name order. Paging by
// index over a sorted copy keeps pages stable under concurrent
// mutation to exactly the degree the underlying fs is stable, and
// bounds per-request work — which is what makes one-request fair-share
// quanta meaningful against readdir storms.
func (s *Server) readdir(c *conn, f *Fcall) *Fcall {
	fd, ok := c.fidRef(f.Fid)
	if !ok {
		return rerror(fmt.Errorf("readdir of unknown fid %d: %w", f.Fid, ErrProto))
	}
	if !fd.open || fd.mode&OModeRead == 0 {
		return rerror(fmt.Errorf("readdir of fid not open for reading: %w", ErrPerm))
	}
	ents, err := s.fs.ReadDir(fd.ino)
	if err != nil {
		return rerror(err)
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	if f.Off < 0 || f.Off > int64(len(ents)) {
		return rerror(fmt.Errorf("readdir offset %d: %w", f.Off, vfs.ErrInvalid))
	}
	resp := &Fcall{Type: Rreaddir}
	budget := int(c.msize.Load()) - IOHeadroom
	for i := int(f.Off); i < len(ents); i++ {
		cost := 11 + len(ents[i].Name) // u64 ino + u8 type + u16 len + name
		if budget < cost {
			resp.More = true
			break
		}
		budget -= cost
		resp.Ents = append(resp.Ents, WireDirEnt{
			Ino:  uint64(ents[i].Ino),
			Type: uint8(ents[i].Type),
			Name: ents[i].Name,
		})
	}
	return resp
}

func (s *Server) unlink(c *conn, f *Fcall) *Fcall {
	fd, ok := c.fidRef(f.Fid)
	if !ok {
		return rerror(fmt.Errorf("unlink in unknown fid %d: %w", f.Fid, ErrProto))
	}
	if err := checkWireName(f.Name); err != nil {
		return rerror(err)
	}
	var err error
	if f.Rmdir {
		err = s.fs.Rmdir(fd.ino, f.Name)
	} else {
		err = s.fs.Unlink(fd.ino, f.Name)
	}
	if err != nil {
		return rerror(err)
	}
	return &Fcall{Type: Runlink}
}

func (s *Server) rename(c *conn, t *tenant, f *Fcall) *Fcall {
	src, ok := c.fidRef(f.Fid)
	if !ok {
		return rerror(fmt.Errorf("rename from unknown fid %d: %w", f.Fid, ErrProto))
	}
	dst, ok := c.fidRef(f.DirFid)
	if !ok {
		return rerror(fmt.Errorf("rename to unknown fid %d: %w", f.DirFid, ErrProto))
	}
	if src.t != t || dst.t != t {
		return rerror(fmt.Errorf("rename across tenants: %w", ErrPerm))
	}
	if err := checkWireName(f.Name); err != nil {
		return rerror(err)
	}
	if err := checkWireName(f.NewName); err != nil {
		return rerror(err)
	}
	if err := s.fs.Rename(src.ino, f.Name, dst.ino, f.NewName); err != nil {
		return rerror(err)
	}
	return &Fcall{Type: Rrename}
}

// write puts one response frame on the wire; write failures tear the
// connection down (the reader will notice too, harmlessly). With
// retire set the frame answers the request that reserved its tag, and
// the tag leaves the in-flight table here — inside the write
// serialisation, before the first reply byte can be observed. A client
// may reuse a tag the instant it has read the reply, so by then the tag
// must be free; releasing it once the write has returned would refuse
// such a client whenever the worker lost the CPU in between. A
// duplicate that arrives while the request is still queued or executing
// is always refused: the tag is held until its response exists. And
// because it is dropped under wmu, answers to one tag leave in request
// order.
func (c *conn) write(f *Fcall, retire bool) {
	c.wmu.Lock()
	if retire {
		c.mu.Lock()
		delete(c.tags, f.Tag)
		c.mu.Unlock()
	}
	err := WriteFcall(c.nc, f, 0)
	c.wmu.Unlock()
	if err != nil {
		c.teardown()
	}
}

// reply answers the request that reserved tag and retires the tag.
func (c *conn) reply(tag uint16, f *Fcall) {
	f.Tag = tag
	c.write(f, true)
}

// sendErr answers a frame that never reserved its tag — a refused
// duplicate, an unknown type or fid — so the tag table is left alone:
// the tag may belong to a request still in flight.
func (c *conn) sendErr(tag uint16, err error) {
	e := rerror(err)
	e.Tag = tag
	c.write(e, false)
}
