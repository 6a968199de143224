package srv

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"cffs/internal/vfs"
)

// Client is the Go-side of the wire protocol: it owns one connection,
// multiplexes concurrent RPCs over tags, and hands out Fid handles.
// All methods are safe for concurrent use; the intended shape is many
// session goroutines sharing nothing and each owning a Client, but a
// shared Client pipelines correctly too.
type Client struct {
	nc    net.Conn
	msize uint32

	// rmsize is the frame limit the read loop enforces: MaxMsize while
	// the version exchange is still in flight, then the negotiated
	// msize — a conforming client drops a server that overruns what it
	// advertised.
	rmsize atomic.Uint32

	wmu  sync.Mutex // frame writes
	wbuf []byte     // the request being written

	mu      sync.Mutex
	pending map[uint16]*call
	free    *call // recycled call slots
	nextTag uint16
	nextFid uint32
	err     error // terminal receive error, set once
	done    chan struct{}

	// read-loop state
	hdr  [headerBytes]byte
	body []byte // the reply being decoded
}

// call is one RPC's slot: where the read loop leaves the reply and how
// it wakes the caller. The caller owns it from rpc to release, except
// that the read loop owns it from finding it in pending to signalling
// done. A slot abandoned because the connection died is never recycled.
type call struct {
	done chan struct{} // 1-buffered: the read loop's one send never blocks
	resp Fcall
	dst  []byte // Fid.ReadAt's p: Rread data is copied here, once
	next *call
}

// NewClient negotiates the protocol over nc and returns a ready client.
func NewClient(nc net.Conn) (*Client, error) {
	c := &Client{
		nc:      nc,
		msize:   MaxMsize,
		pending: make(map[uint16]*call),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	cl, err := c.rpc(&Fcall{Type: Tversion, Msize: DefaultMsize, Version: Version}, nil)
	if err == nil && cl.resp.Version != Version {
		err = fmt.Errorf("version %q not accepted: %w", cl.resp.Version, ErrProto)
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	c.msize = cl.resp.Msize
	c.rmsize.Store(c.msize)
	c.release(cl)
	return c, nil
}

// Close drops the connection; the server releases every fid.
func (c *Client) Close() error { return c.nc.Close() }

// Msize is the negotiated frame limit.
func (c *Client) Msize() uint32 { return c.msize }

// MaxIO is the largest read/write payload that fits one frame.
func (c *Client) MaxIO() int { return int(c.msize) - IOHeadroom }

// readLoop delivers replies to their call slots until the connection
// fails, which fails every caller.
func (c *Client) readLoop() {
	br := bufio.NewReader(c.nc)
	var err error
	for err == nil {
		err = c.readReply(br)
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	c.mu.Lock()
	c.err = fmt.Errorf("srv client: connection lost: %w", err)
	c.mu.Unlock()
	close(c.done)
}

// readReply reads one frame: the header, then — the tag having named
// the slot — the body into that slot.
func (c *Client) readReply(br *bufio.Reader) error {
	typ, tag, n, err := readHeader(br, c.hdr[:], c.rmsize.Load())
	if err != nil {
		return err
	}
	c.mu.Lock()
	cl := c.pending[tag]
	delete(c.pending, tag)
	c.mu.Unlock()
	if cl != nil {
		cl.resp.Type = typ
	}
	switch {
	case cl == nil || !typ.known():
		// An unsolicited tag has no waiter; an unknown type is for the
		// waiter to refuse.
		_, err = br.Discard(n)
	case typ == Rread && n >= 4 && n-4 <= len(cl.dst):
		// Straight from the reader's buffer into the caller's p. The
		// count field is skipped: the frame's length says the same.
		cl.resp.Data = cl.dst[:n-4]
		if _, err = br.Discard(4); err == nil {
			_, err = io.ReadFull(br, cl.resp.Data)
		}
	default:
		c.body = slices.Grow(c.body[:0], n)[:n]
		if _, err = io.ReadFull(br, c.body); err == nil {
			err = decodeBody(&cl.resp, c.body)
		}
		// No reply keeps a view into the loop's buffer.
		cl.resp.Data = cl.dst[:copy(cl.dst, cl.resp.Data)]
		c.body = recycled(c.body)
	}
	if err == nil && cl != nil {
		cl.done <- struct{}{}
	}
	return err
}

// rpc sends one T-message and waits for its response, which it returns
// in a call slot for the caller to read and then release. An Rread's
// data lands in dst. The frame is encoded before the slot is entered in
// pending, so a request that cannot be sent never had a tag to answer.
func (c *Client) rpc(f *Fcall, dst []byte) (*call, error) {
	c.wmu.Lock()
	frame, err := appendFcall(c.wbuf[:0], f, c.msize)
	var cl *call
	if err == nil {
		cl, err = c.begin(frame, dst)
	}
	if err == nil {
		if _, werr := c.nc.Write(frame); werr != nil {
			// A torn frame loses stream sync. The read loop fails this
			// caller with every other once the connection is closed.
			c.nc.Close()
		}
	}
	c.wbuf = recycled(frame)
	c.wmu.Unlock()
	if err != nil {
		return nil, err
	}

	select {
	case <-cl.done:
	case <-c.done:
		c.mu.Lock()
		defer c.mu.Unlock()
		return nil, c.err // the slot is abandoned, not recycled
	}
	switch r := &cl.resp; {
	case r.Type == Rerror:
		err = r.Err()
	case r.Type != f.Type+1:
		err = fmt.Errorf("srv client: %v answered with %v: %w", f.Type, r.Type, ErrProto)
	default:
		return cl, nil
	}
	c.release(cl)
	return nil, err
}

// begin takes a call slot, picks a free tag, stamps it into the encoded
// frame and enters the slot in pending.
func (c *Client) begin(frame, dst []byte) (*call, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	cl := c.free
	if cl != nil {
		c.free = cl.next
	} else {
		cl = &call{done: make(chan struct{}, 1)}
	}
	cl.resp.reset(msgInvalid, 0)
	cl.dst = dst
	for {
		tag := c.nextTag
		c.nextTag++
		if _, busy := c.pending[tag]; !busy && tag != NoTag {
			binary.LittleEndian.PutUint16(frame[5:], tag)
			c.pending[tag] = cl
			return cl, nil
		}
	}
}

// release recycles a call slot whose reply the caller has read.
func (c *Client) release(cl *call) {
	c.mu.Lock()
	cl.dst, cl.next, c.free = nil, c.free, cl
	c.mu.Unlock()
}

// do is rpc for the messages whose reply carries nothing.
func (c *Client) do(f *Fcall) error {
	cl, err := c.rpc(f, nil)
	if err == nil {
		c.release(cl)
	}
	return err
}

func (c *Client) allocFid() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		id := c.nextFid
		c.nextFid++
		if id != NoFid {
			return id
		}
	}
}

// Fid is a client-side handle bound to one server-side fid.
type Fid struct {
	c  *Client
	id uint32
}

// Attach starts a session as tenant, returning a fid for the tenant
// root directory.
func (c *Client) Attach(tenant string) (*Fid, error) {
	id := c.allocFid()
	if err := c.do(&Fcall{Type: Tattach, Fid: id, Tenant: tenant}); err != nil {
		return nil, err
	}
	return &Fid{c: c, id: id}, nil
}

// Fsync flushes the file system behind the session. It needs any live
// fid because requests are admitted per tenant.
func (f *Fid) Fsync() error {
	return f.c.do(&Fcall{Type: Tfsync, Fid: f.id})
}

// Walk resolves names relative to f, returning a new fid. An empty
// names list clones f.
func (f *Fid) Walk(names ...string) (*Fid, error) {
	id := f.c.allocFid()
	if err := f.c.do(&Fcall{Type: Twalk, Fid: f.id, NewFid: id, Names: names}); err != nil {
		return nil, err
	}
	return &Fid{c: f.c, id: id}, nil
}

// WalkPath is Walk on slash-separated components.
func (f *Fid) WalkPath(path string) (*Fid, error) {
	return f.Walk(vfs.SplitPath(path)...)
}

// stat runs an RPC whose reply carries a stat (Topen, Tstat).
func (f *Fid) stat(t *Fcall) (vfs.Stat, error) {
	cl, err := f.c.rpc(t, nil)
	if err != nil {
		return vfs.Stat{}, err
	}
	st := cl.resp.Stat.Stat()
	f.c.release(cl)
	return st, nil
}

// Open enables I/O on f with OMode* access bits.
func (f *Fid) Open(mode uint8) (vfs.Stat, error) {
	return f.stat(&Fcall{Type: Topen, Fid: f.id, Mode: mode})
}

// Create makes name under directory f and returns its fid, already
// open read-write.
func (f *Fid) Create(name string) (*Fid, error) {
	id := f.c.allocFid()
	if err := f.c.do(&Fcall{Type: Tcreate, Fid: f.id, NewFid: id, Name: name}); err != nil {
		return nil, err
	}
	return &Fid{c: f.c, id: id}, nil
}

// Mkdir makes a directory under f.
func (f *Fid) Mkdir(name string) (uint64, error) {
	cl, err := f.c.rpc(&Fcall{Type: Tmkdir, Fid: f.id, Name: name}, nil)
	if err != nil {
		return 0, err
	}
	ino := cl.resp.Ino
	f.c.release(cl)
	return ino, nil
}

// ReadAt reads up to len(p) bytes at off in one RPC (clipped to the
// negotiated frame size); like pread, a short count with nil error
// means end of file. The reply's data is copied off the connection
// directly into p.
func (f *Fid) ReadAt(p []byte, off int64) (int, error) {
	if m := f.c.MaxIO(); len(p) > m {
		p = p[:m]
	}
	cl, err := f.c.rpc(&Fcall{Type: Tread, Fid: f.id, Off: off, Count: uint32(len(p))}, p)
	if err != nil {
		return 0, err
	}
	n := len(cl.resp.Data)
	f.c.release(cl)
	return n, nil
}

// WriteAt writes p at off, splitting into frame-sized RPCs as needed.
func (f *Fid) WriteAt(p []byte, off int64) (int, error) {
	total := 0
	for len(p) > 0 {
		chunk := p
		if m := f.c.MaxIO(); len(chunk) > m {
			chunk = chunk[:m]
		}
		cl, err := f.c.rpc(&Fcall{Type: Twrite, Fid: f.id, Off: off, Data: chunk}, nil)
		if err != nil {
			return total, err
		}
		n := int(cl.resp.Count)
		f.c.release(cl)
		total += n
		off += int64(n)
		p = p[n:]
		if n < len(chunk) {
			return total, io.ErrShortWrite
		}
	}
	return total, nil
}

// Stat fetches current metadata.
func (f *Fid) Stat() (vfs.Stat, error) {
	return f.stat(&Fcall{Type: Tstat, Fid: f.id})
}

// ReadDirPage fetches one page of directory entries starting at entry
// index off (name order), reporting whether more remain. One RPC.
func (f *Fid) ReadDirPage(off int64) ([]vfs.DirEntry, bool, error) {
	cl, err := f.c.rpc(&Fcall{Type: Treaddir, Fid: f.id, Off: off}, nil)
	if err != nil {
		return nil, false, err
	}
	ents := make([]vfs.DirEntry, len(cl.resp.Ents))
	for i, e := range cl.resp.Ents {
		ents[i] = vfs.DirEntry{Name: e.Name, Ino: vfs.Ino(e.Ino), Type: vfs.FileType(e.Type)}
	}
	more := cl.resp.More
	f.c.release(cl)
	return ents, more, nil
}

// ReadDir fetches the whole directory, paging as needed.
func (f *Fid) ReadDir() ([]vfs.DirEntry, error) {
	var all []vfs.DirEntry
	for {
		ents, more, err := f.ReadDirPage(int64(len(all)))
		if err != nil {
			return nil, err
		}
		all = append(all, ents...)
		if !more || len(ents) == 0 {
			return all, nil
		}
	}
}

// Unlink removes the regular file name in directory f.
func (f *Fid) Unlink(name string) error {
	return f.c.do(&Fcall{Type: Tunlink, Fid: f.id, Name: name})
}

// Rmdir removes the empty directory name in directory f.
func (f *Fid) Rmdir(name string) error {
	return f.c.do(&Fcall{Type: Tunlink, Fid: f.id, Name: name, Rmdir: true})
}

// Rename moves name in directory f to newName in directory newDir
// (which must belong to the same tenant).
func (f *Fid) Rename(name string, newDir *Fid, newName string) error {
	return f.c.do(&Fcall{Type: Trename, Fid: f.id, Name: name, DirFid: newDir.id, NewName: newName})
}

// MaxIO is the largest single-RPC read/write payload on f's client.
func (f *Fid) MaxIO() int { return f.c.MaxIO() }

// Clunk releases the server-side fid.
func (f *Fid) Clunk() error {
	return f.c.do(&Fcall{Type: Tclunk, Fid: f.id})
}
