package srv_test

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"cffs/internal/srv"
)

// pattern fills p with bytes only (who, round) produce: a payload that
// lands in the wrong file or the wrong caller's buffer, or a buffer read
// after its release (0xDB in this test build, see export_test.go),
// cannot match.
func pattern(p []byte, who, round int) {
	x := uint64(who)<<32 | uint64(round) | 1<<63
	for i := range p {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p[i] = byte(x >> 24)
	}
}

// TestTorturePipelining holds the one-owner rule of DESIGN.md section 17
// under load. Eight goroutines share one Client — one connection, up to
// eight requests in flight, request units and call slots recycling as
// fast as replies come back — and each writes and reads back its own
// seeded 1–8 KB pattern on its own file. Beside them a hand-rolled
// connection keeps four tags in flight and reuses each the instant its
// reply arrives. No byte of one tag's payload may ever show up in another
// file or another caller's buffer.
func TestTorturePipelining(t *testing.T) {
	s, lb := testServer(t, srv.Config{QoS: srv.QoS{Workers: 4, FairShare: true}}, "alpha")
	c := dialClient(t, lb)
	root, err := c.Attach("alpha")
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds, maxIO = 8, 300, 8192

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		f, err := root.Create(fmt.Sprintf("w%d", g))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want, got := make([]byte, maxIO), make([]byte, maxIO+1)
			for r := 0; r < rounds; r++ {
				pattern(want, g, r)
				size := 1 + int(binary.LittleEndian.Uint16(want))%maxIO
				if n, err := f.WriteAt(want[:size], 0); err != nil || n != size {
					t.Errorf("writer %d round %d: write = %d, %v", g, r, n, err)
					return
				}
				got[size] = 0xA5 // a reply must not run past the length asked for
				if n, err := f.ReadAt(got[:size], 0); err != nil || n != size {
					t.Errorf("writer %d round %d: read = %d, %v", g, r, n, err)
					return
				}
				if string(got[:size]) != string(want[:size]) || got[size] != 0xA5 {
					t.Errorf("writer %d round %d: %d bytes read back differ from what was written", g, r, size)
					return
				}
			}
		}(g)
	}

	nc := rawDial(t, lb)
	attachRaw(t, nc, "alpha")
	wg.Add(1)
	go func() {
		defer wg.Done()
		rawPipeline(t, nc, rounds)
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		// A damaged frame desynchronises a stream for good; cutting the
		// connections fails every caller still waiting on one.
		t.Error("pipeline stalled: a reply never arrived, or arrived damaged")
	}
	c.Close()
	nc.Close()
	<-done
	waitZeroFids(t, s)
}

// rawPipeline keeps one request per tag in flight on four tags, each tag
// with a file of its own (fid 10+tag): create, then write a fresh pattern
// and read it back, alternately, re-sending on a tag the moment its reply
// is in hand.
func rawPipeline(t *testing.T, nc net.Conn, rounds int) {
	const tags, size = 4, 3000
	want := make([][]byte, tags)
	step := make([]int, tags) // 0: created; odd: a write is out; even: a read is out
	send := func(tag int) {
		fid := u32body(uint32(10 + tag))
		switch {
		case step[tag] == 0:
			body := append(u32body(1), fid...)
			body = binary.LittleEndian.AppendUint16(body, 2)
			nc.Write(frame(byte(srv.Tcreate), uint16(tag), append(body, 'r', byte('0'+tag))))
		case step[tag]%2 == 1:
			pattern(want[tag], 100+tag, step[tag])
			body := append(fid, make([]byte, 8)...)
			body = binary.LittleEndian.AppendUint32(body, size)
			nc.Write(frame(byte(srv.Twrite), uint16(tag), append(body, want[tag]...)))
		default:
			body := append(fid, make([]byte, 8)...)
			nc.Write(frame(byte(srv.Tread), uint16(tag), binary.LittleEndian.AppendUint32(body, size)))
		}
	}
	for tag := range want {
		want[tag] = make([]byte, size)
		send(tag)
	}
	for left := tags; left > 0; {
		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		r, err := srv.ReadFcall(nc, srv.MaxMsize)
		if err != nil {
			t.Errorf("raw pipeline: %v", err)
			return
		}
		tag := int(r.Tag)
		if tag >= tags || r.Type == srv.Rerror {
			t.Errorf("raw pipeline: tag %d answered %v / %v", r.Tag, r.Type, r.Err())
			return
		}
		if r.Type == srv.Rread && string(r.Data) != string(want[tag]) {
			t.Errorf("raw pipeline: tag %d step %d read back another payload", tag, step[tag])
			return
		}
		if step[tag]++; step[tag] > 2*rounds {
			left--
			continue
		}
		send(tag)
	}
}
