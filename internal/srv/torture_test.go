package srv_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"cffs/internal/srv"
	"cffs/internal/vfs"
)

// rawDial opens a loopback connection for hand-rolled frames.
func rawDial(t *testing.T, lb *srv.Loopback) net.Conn {
	t.Helper()
	nc, err := lb.Dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

func frame(typ byte, tag uint16, body []byte) []byte {
	b := make([]byte, 7+len(body))
	binary.LittleEndian.PutUint32(b, uint32(len(b)))
	b[4] = typ
	binary.LittleEndian.PutUint16(b[5:7], tag)
	copy(b[7:], body)
	return b
}

// readRaw reads one frame off a hand-rolled connection.
func readRaw(t *testing.T, nc net.Conn) *srv.Fcall {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := srv.ReadFcall(nc, srv.MaxMsize)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return f
}

// expectClosed asserts the server dropped the connection.
func expectClosed(t *testing.T, nc net.Conn) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	if _, err := nc.Read(b[:]); err == nil {
		t.Fatal("connection still open, want closed")
	} else if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("connection still open (read timed out), want closed")
	}
}

// TestTortureFraming throws frame-level garbage at the daemon: sizes
// below the header, oversized lengths, and truncated frames. Each must
// kill only its own connection — no panic, no fid leak, and the server
// keeps serving well-behaved clients.
func TestTortureFraming(t *testing.T) {
	s, lb := testServer(t, srv.Config{}, "alpha")

	t.Run("size-below-header", func(t *testing.T) {
		nc := rawDial(t, lb)
		hdr := make([]byte, 7)
		binary.LittleEndian.PutUint32(hdr, 3) // impossible: smaller than the header itself
		nc.Write(hdr)
		expectClosed(t, nc)
	})
	t.Run("oversized-length", func(t *testing.T) {
		nc := rawDial(t, lb)
		hdr := make([]byte, 7)
		binary.LittleEndian.PutUint32(hdr, 1<<31) // 2 GB frame
		hdr[4] = byte(srv.Tversion)
		nc.Write(hdr)
		expectClosed(t, nc)
	})
	t.Run("truncated-frame", func(t *testing.T) {
		nc := rawDial(t, lb)
		// Announce a 64-byte frame, send half of it, hang up.
		full := frame(byte(srv.Tattach), 1, make([]byte, 57))
		nc.Write(full[:20])
		nc.Close()
		// Nothing to read back; the point is the server side survives.
	})
	t.Run("truncated-body-fields", func(t *testing.T) {
		nc := rawDial(t, lb)
		// Frame length is honest but the body lies: a Tattach whose
		// tenant string claims more bytes than the body holds.
		body := make([]byte, 7)
		binary.LittleEndian.PutUint32(body, 9) // fid
		binary.LittleEndian.PutUint16(body[4:6], 200)
		nc.Write(frame(byte(srv.Tattach), 1, body))
		expectClosed(t, nc)
	})

	// The server is still alive and correct for a well-behaved client.
	c := dialClient(t, lb)
	if _, err := c.Attach("alpha"); err != nil {
		t.Fatalf("attach after torture: %v", err)
	}
	c.Close()
	waitZeroFids(t, s)
}

// TestTortureMessages sends well-framed nonsense — unknown types,
// unknown fids, duplicate tags — which must each earn an Rerror while
// the connection stays usable.
func TestTortureMessages(t *testing.T) {
	s, lb := testServer(t, srv.Config{QoS: srv.QoS{Workers: 1}}, "alpha")
	nc := rawDial(t, lb)

	// Version first, by hand.
	vbody := make([]byte, 4+2+len(srv.Version))
	binary.LittleEndian.PutUint32(vbody, srv.DefaultMsize)
	binary.LittleEndian.PutUint16(vbody[4:6], uint16(len(srv.Version)))
	copy(vbody[6:], srv.Version)
	nc.Write(frame(byte(srv.Tversion), 0xAAAA, vbody))
	if r := readRaw(t, nc); r.Type != srv.Rversion {
		t.Fatalf("version reply = %v", r.Type)
	}

	t.Run("unknown-type", func(t *testing.T) {
		nc.Write(frame(200, 7, []byte("gibberish")))
		r := readRaw(t, nc)
		if r.Type != srv.Rerror || r.Tag != 7 || !errors.Is(r.Err(), srv.ErrProto) {
			t.Fatalf("reply = %v tag %d err %v, want Rerror/7/ErrProto", r.Type, r.Tag, r.Err())
		}
	})
	t.Run("unknown-fid", func(t *testing.T) {
		body := make([]byte, 13)
		binary.LittleEndian.PutUint32(body, 999) // never attached
		nc.Write(frame(byte(srv.Tstat), 8, body[:4]))
		r := readRaw(t, nc)
		if r.Type != srv.Rerror || !errors.Is(r.Err(), srv.ErrProto) {
			t.Fatalf("stat of unknown fid: %v / %v", r.Type, r.Err())
		}
	})
	t.Run("clunk-unknown-fid", func(t *testing.T) {
		body := make([]byte, 4)
		binary.LittleEndian.PutUint32(body, 998)
		nc.Write(frame(byte(srv.Tclunk), 9, body))
		r := readRaw(t, nc)
		if r.Type != srv.Rerror || !errors.Is(r.Err(), srv.ErrProto) {
			t.Fatalf("clunk of unknown fid: %v / %v", r.Type, r.Err())
		}
	})
	// expectRefusedThenServed asserts the answers to a pipelined pair
	// on one tag: the reader refuses the second frame (ErrProto) while
	// the first is still parked behind the busy worker, and the first is
	// served once the worker is free again.
	expectRefusedThenServed := func(t *testing.T, tag uint16, unpark func()) {
		t.Helper()
		if r := readRaw(t, nc); r.Type != srv.Rerror || r.Tag != tag || !errors.Is(r.Err(), srv.ErrProto) {
			t.Fatalf("duplicate of parked tag %d: reply %v tag %d err %v, want Rerror/ErrProto", tag, r.Type, r.Tag, r.Err())
		}
		unpark()
		if r := readRaw(t, nc); r.Type != srv.Rstat || r.Tag != tag {
			t.Fatalf("parked request on tag %d: reply %v tag %d err %v, want Rstat", tag, r.Type, r.Tag, r.Err())
		}
	}

	t.Run("duplicate-tags", func(t *testing.T) {
		// Attach fid 1, then pipeline two Tstat requests with the SAME
		// tag before reading either response. The one worker is held
		// busy, so the first is parked in the dispatcher when the reader
		// sees the second — which must be refused (ErrProto) without
		// executing, and the first must still answer. Exactly one of
		// each.
		abody := make([]byte, 4+2+5)
		binary.LittleEndian.PutUint32(abody, 1)
		binary.LittleEndian.PutUint16(abody[4:6], 5)
		copy(abody[6:], "alpha")
		nc.Write(frame(byte(srv.Tattach), 10, abody))
		if r := readRaw(t, nc); r.Type != srv.Rattach {
			t.Fatalf("attach: %v", r.Type)
		}
		sbody := make([]byte, 4)
		binary.LittleEndian.PutUint32(sbody, 1)
		unpark := parkWorker(t, lb)
		two := append(frame(byte(srv.Tstat), 42, sbody), frame(byte(srv.Tstat), 42, sbody)...)
		nc.Write(two)
		expectRefusedThenServed(t, 42, unpark)
		// The tag is free again the instant its reply has been read.
		nc.Write(frame(byte(srv.Tstat), 42, sbody))
		if r := readRaw(t, nc); r.Type != srv.Rstat {
			t.Fatalf("tag reuse after completion: %v / %v", r.Type, r.Err())
		}
	})
	t.Run("duplicate-tag-attach", func(t *testing.T) {
		// Tattach runs synchronously on the reader, but its tag still
		// goes through the in-flight table: pipelining a Tstat and a
		// Tattach on one tag must refuse the attach without executing
		// it, so its fid never comes into existence.
		abody := make([]byte, 4+2+5)
		binary.LittleEndian.PutUint32(abody, 77) // would-be attach fid
		binary.LittleEndian.PutUint16(abody[4:6], 5)
		copy(abody[6:], "alpha")
		unpark := parkWorker(t, lb)
		two := append(frame(byte(srv.Tstat), 50, u32body(1)), frame(byte(srv.Tattach), 50, abody)...)
		nc.Write(two)
		expectRefusedThenServed(t, 50, unpark)
		// The refused attach never executed: fid 77 does not exist.
		nc.Write(frame(byte(srv.Tstat), 51, u32body(77)))
		if r := readRaw(t, nc); r.Type != srv.Rerror || !errors.Is(r.Err(), srv.ErrProto) {
			t.Fatalf("fid from refused attach exists: %v / %v", r.Type, r.Err())
		}
	})
	t.Run("duplicate-tag-clunk", func(t *testing.T) {
		// Same shape for Tclunk: refused on a busy tag, and the fid it
		// named must survive.
		unpark := parkWorker(t, lb)
		two := append(frame(byte(srv.Tstat), 60, u32body(1)), frame(byte(srv.Tclunk), 60, u32body(1))...)
		nc.Write(two)
		expectRefusedThenServed(t, 60, unpark)
		nc.Write(frame(byte(srv.Tstat), 61, u32body(1)))
		if r := readRaw(t, nc); r.Type != srv.Rstat {
			t.Fatalf("fid clunked by refused request: %v / %v", r.Type, r.Err())
		}
	})

	nc.Close()
	waitZeroFids(t, s)
}

func u32body(v uint32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, v)
	return b
}

// attachRaw attaches fid 1 to tenant on a hand-rolled connection.
func attachRaw(t *testing.T, nc net.Conn, tenant string) {
	t.Helper()
	body := make([]byte, 4+2+len(tenant))
	binary.LittleEndian.PutUint32(body, 1)
	binary.LittleEndian.PutUint16(body[4:6], uint16(len(tenant)))
	copy(body[6:], tenant)
	nc.Write(frame(byte(srv.Tattach), 1, body))
	if r := readRaw(t, nc); r.Type != srv.Rattach {
		t.Fatalf("attach %q: %v / %v", tenant, r.Type, r.Err())
	}
}

// parkWorker holds one dispatcher worker busy until the returned
// function is called: a second connection asks for a stat and reads
// only the first byte of the answer, and since the loopback is a
// net.Pipe (a write returns once every byte has been read) the worker
// stays inside that reply's write. On a one-worker server everything
// admitted meanwhile is provably parked in the dispatcher. Unparking
// drains the reply and closes the connection.
func parkWorker(t *testing.T, lb *srv.Loopback) (unpark func()) {
	t.Helper()
	nc := rawDial(t, lb)
	attachRaw(t, nc, "alpha")
	nc.Write(frame(byte(srv.Tstat), 2, u32body(1)))
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var size [4]byte
	if _, err := io.ReadFull(nc, size[:1]); err != nil {
		t.Fatalf("park: first reply byte: %v", err)
	}
	return func() {
		t.Helper()
		if _, err := io.ReadFull(nc, size[1:]); err != nil {
			t.Fatalf("unpark: %v", err)
		}
		rest := make([]byte, binary.LittleEndian.Uint32(size[:])-4)
		if _, err := io.ReadFull(nc, rest); err != nil {
			t.Fatalf("unpark: %v", err)
		}
		nc.Close()
	}
}

// TestTagReuseAfterReply is the regression for the tag-release race: a
// conforming client may reuse a tag the instant it has read that tag's
// reply. The server used to release the tag only after the reply's
// write had returned, so whenever the worker lost the CPU between the
// two, the reused tag earned a spurious "already in flight" ErrProto.
func TestTagReuseAfterReply(t *testing.T) {
	s, lb := testServer(t, srv.Config{}, "alpha")
	nc := rawDial(t, lb)
	attachRaw(t, nc, "alpha")
	stat := frame(byte(srv.Tstat), 42, u32body(1))
	for i := 0; i < 10000; i++ {
		nc.Write(stat)
		if r := readRaw(t, nc); r.Type != srv.Rstat || r.Tag != 42 {
			t.Fatalf("round trip %d on a reused tag: %v tag %d err %v", i, r.Type, r.Tag, r.Err())
		}
	}
	nc.Close()
	waitZeroFids(t, s)
}

// negotiate runs the version exchange on a raw connection, asserting
// the server echoes the requested msize back.
func negotiate(t *testing.T, nc net.Conn, msize uint32) {
	t.Helper()
	vbody := make([]byte, 4+2+len(srv.Version))
	binary.LittleEndian.PutUint32(vbody, msize)
	binary.LittleEndian.PutUint16(vbody[4:6], uint16(len(srv.Version)))
	copy(vbody[6:], srv.Version)
	nc.Write(frame(byte(srv.Tversion), 0, vbody))
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	r, err := srv.ReadFcall(nc, msize)
	if err != nil {
		t.Fatalf("version exchange: %v", err)
	}
	if r.Type != srv.Rversion || r.Msize != msize {
		t.Fatalf("version reply %v msize %d, want Rversion msize %d", r.Type, r.Msize, msize)
	}
}

// readLimited reads one frame enforcing the negotiated msize — exactly
// what a conforming client does, so an over-budget server frame fails
// the test.
func readLimited(t *testing.T, nc net.Conn, msize uint32) *srv.Fcall {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := srv.ReadFcall(nc, msize)
	if err != nil {
		t.Fatalf("read frame (msize %d): %v", msize, err)
	}
	return f
}

// TestTortureNegotiatedMsize pins per-connection msize enforcement:
// after negotiating the minimum frame size, inbound frames above it
// kill the connection, and response frames — readdir pages included —
// stay under it even though the server-wide cap is much larger.
func TestTortureNegotiatedMsize(t *testing.T) {
	s, lb := testServer(t, srv.Config{}, "alpha")

	// Populate a directory too large for a single MinMsize readdir page.
	const entries = 400
	c := dialClient(t, lb)
	root, err := c.Attach("alpha")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < entries; i++ {
		f, err := root.Create(fmt.Sprintf("entry%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Clunk(); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	t.Run("response-budget", func(t *testing.T) {
		nc := rawDial(t, lb)
		negotiate(t, nc, srv.MinMsize)
		abody := make([]byte, 4+2+5)
		binary.LittleEndian.PutUint32(abody, 1)
		binary.LittleEndian.PutUint16(abody[4:6], 5)
		copy(abody[6:], "alpha")
		nc.Write(frame(byte(srv.Tattach), 1, abody))
		if r := readLimited(t, nc, srv.MinMsize); r.Type != srv.Rattach {
			t.Fatalf("attach: %v / %v", r.Type, r.Err())
		}
		obody := append(u32body(1), srv.OModeRead)
		nc.Write(frame(byte(srv.Topen), 2, obody))
		if r := readLimited(t, nc, srv.MinMsize); r.Type != srv.Ropen {
			t.Fatalf("open: %v / %v", r.Type, r.Err())
		}
		// Page the directory; readLimited rejects any frame over the
		// negotiated msize, and the clipped budget must force paging.
		// Tags advance per page: a tag stays reserved until its
		// response write returns, so instant reuse can race the release.
		total, pages := 0, 0
		for {
			rbody := make([]byte, 12)
			binary.LittleEndian.PutUint32(rbody, 1)
			binary.LittleEndian.PutUint64(rbody[4:], uint64(total))
			nc.Write(frame(byte(srv.Treaddir), uint16(3+pages), rbody))
			r := readLimited(t, nc, srv.MinMsize)
			if r.Type != srv.Rreaddir {
				t.Fatalf("readdir: %v / %v", r.Type, r.Err())
			}
			total += len(r.Ents)
			pages++
			if !r.More {
				break
			}
		}
		if total < entries {
			t.Fatalf("paged %d entries, want >= %d", total, entries)
		}
		if pages < 2 {
			t.Fatalf("directory fit one page; budget not clipped to the negotiated msize")
		}
	})

	t.Run("long-name-error", func(t *testing.T) {
		// msize binds the server's error replies too: an Rerror that
		// quotes a 3000-byte unprintable name back (24 KB as %q) must
		// still fit the 4 KB this connection negotiated.
		nc := rawDial(t, lb)
		negotiate(t, nc, srv.MinMsize)
		nc.Write(frame(byte(srv.Tattach), 1, append(u32body(1), "\x05\x00alpha"...)))
		if r := readLimited(t, nc, srv.MinMsize); r.Type != srv.Rattach {
			t.Fatalf("attach: %v / %v", r.Type, r.Err())
		}
		name := bytes.Repeat([]byte{0xFF}, 3000)
		wbody := append(u32body(1), u32body(2)...)
		wbody = binary.LittleEndian.AppendUint16(wbody, 1)
		wbody = binary.LittleEndian.AppendUint16(wbody, uint16(len(name)))
		nc.Write(frame(byte(srv.Twalk), 2, append(wbody, name...)))
		r := readLimited(t, nc, srv.MinMsize)
		if r.Type != srv.Rerror || len(r.Ename) > srv.MaxEname {
			t.Fatalf("walk of a 3000-byte name: %v with a %d-byte message, want Rerror of at most %d", r.Type, len(r.Ename), srv.MaxEname)
		}
		if err := r.Err(); !errors.Is(err, vfs.ErrNameTooLong) && !errors.Is(err, vfs.ErrInvalid) {
			t.Fatalf("walk of a 3000-byte name: %v, want ErrNameTooLong or ErrInvalid", err)
		}
	})

	t.Run("oversized-request", func(t *testing.T) {
		nc := rawDial(t, lb)
		negotiate(t, nc, srv.MinMsize)
		// Below the server-wide cap but above this connection's
		// negotiated msize: the framing layer must drop the connection.
		body := make([]byte, 4+8+4+2*srv.MinMsize)
		binary.LittleEndian.PutUint32(body, 1)
		binary.LittleEndian.PutUint32(body[12:], 2*srv.MinMsize)
		nc.Write(frame(byte(srv.Twrite), 4, body))
		expectClosed(t, nc)
	})
	waitZeroFids(t, s)
}

// TestTortureMidOpDrop cuts connections while operations are in
// flight, from many goroutines at once. The daemon must neither panic
// nor leak: once every connection is gone the fid table is empty.
func TestTortureMidOpDrop(t *testing.T) {
	s, lb := testServer(t, srv.Config{QoS: srv.QoS{Workers: 4, FairShare: true}}, "alpha", "beta")

	const clients = 16
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nc, err := lb.Dial()
			if err != nil {
				return
			}
			c, err := srv.NewClient(nc)
			if err != nil {
				nc.Close()
				return
			}
			tenant := "alpha"
			if i%2 == 1 {
				tenant = "beta"
			}
			root, err := c.Attach(tenant)
			if err != nil {
				c.Close()
				return
			}
			// Kick off a burst of concurrent ops and slam the door at a
			// random point in the middle.
			var ops sync.WaitGroup
			for j := 0; j < 8; j++ {
				ops.Add(1)
				go func(j int) {
					defer ops.Done()
					if f, err := root.Create(byName(i, j)); err == nil {
						f.WriteAt([]byte("mid-op payload"), 0)
						f.Stat()
					}
				}(j)
			}
			if i%3 == 0 {
				c.Close() // immediate cut, ops in flight
			} else {
				ops.Wait()
				c.Close()
			}
			ops.Wait()
		}(i)
	}
	wg.Wait()
	waitZeroFids(t, s)
	if n := s.ConnCount(); n != 0 {
		t.Fatalf("%d connections still tracked", n)
	}
}

func byName(i, j int) string {
	return "f" + string(rune('a'+i)) + string(rune('a'+j))
}

// TestLongNameErrorKeepsSession is the client's view of the same bug: on
// a connection negotiated down to MinMsize, the Rerror for an absurd
// name used to overrun msize, which srv.Client's read loop rightly treats
// as frame damage — one bad name cost the session and every fid in it.
func TestLongNameErrorKeepsSession(t *testing.T) {
	s, lb := testServer(t, srv.Config{Msize: srv.MinMsize}, "alpha")
	c := dialClient(t, lb)
	if c.Msize() != srv.MinMsize {
		t.Fatalf("negotiated msize %d, want %d", c.Msize(), srv.MinMsize)
	}
	root, err := c.Attach("alpha")
	if err != nil {
		t.Fatal(err)
	}
	_, err = root.Walk(string(bytes.Repeat([]byte{0xFF}, 3000)))
	if !errors.Is(err, vfs.ErrNameTooLong) && !errors.Is(err, vfs.ErrInvalid) {
		t.Fatalf("walk of a 3000-byte name: %v, want ErrNameTooLong or ErrInvalid", err)
	}
	if _, err := root.Stat(); err != nil {
		t.Fatalf("session lost to one long name: %v", err)
	}
	c.Close()
	waitZeroFids(t, s)
}

// twoSentinelFS fails the lookup of "both" with an error that wraps two
// sentinels at once.
type twoSentinelFS struct{ vfs.FileSystem }

func (f twoSentinelFS) Lookup(dir vfs.Ino, name string) (vfs.Ino, error) {
	if name == "both" {
		return 0, fmt.Errorf("%w beneath %w", srv.ErrPerm, vfs.ErrNotExist)
	}
	return f.FileSystem.Lookup(dir, name)
}

// TestErrCodeDeterministic: an error wrapping two sentinels has one wire
// code — the lower — every time. errCode used to range over a map, so
// the code, and with it the sentinel the client saw, changed from run to
// run.
func TestErrCodeDeterministic(t *testing.T) {
	_, lb := testServer(t, srv.Config{FS: twoSentinelFS{newTestFS(t)}}, "alpha")
	root, err := dialClient(t, lb).Attach("alpha")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		_, err := root.Walk("both")
		if !errors.Is(err, vfs.ErrNotExist) || errors.Is(err, srv.ErrPerm) {
			t.Fatalf("walk %d: %v, want the code of ErrNotExist", i, err)
		}
	}
	both := fmt.Errorf("%w beneath %w", srv.ErrPerm, vfs.ErrNotExist)
	if a, b := srv.ErrCode(both), srv.ErrCode(vfs.ErrNotExist); a != b {
		t.Fatalf("errCode(%v) = %d, want %d", both, a, b)
	}
}
