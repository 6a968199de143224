package srv_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"cffs/internal/srv"
)

// oneOfEach is a valid Fcall of every message type, each with the fields
// its type carries set to something non-zero.
func oneOfEach() []srv.Fcall {
	st := srv.WireStat{Ino: 77, Type: 1, Nlink: 1, Size: 1024, Blocks: 1, Mtime: 42}
	return []srv.Fcall{
		{Type: srv.Tversion, Msize: srv.DefaultMsize, Version: srv.Version},
		{Type: srv.Rversion, Msize: srv.MinMsize, Version: srv.Version},
		{Type: srv.Tattach, Fid: 1, Tenant: "alpha"},
		{Type: srv.Rattach, Ino: 2},
		{Type: srv.Twalk, Fid: 1, NewFid: 9, Names: []string{"d03", "..", "f017"}},
		{Type: srv.Rwalk, Ino: 77},
		{Type: srv.Topen, Fid: 9, Mode: srv.OModeRead | srv.OModeWrite},
		{Type: srv.Ropen, Stat: st},
		{Type: srv.Tcreate, Fid: 4, NewFid: 9, Name: "s1234567"},
		{Type: srv.Rcreate, Ino: 78, Stat: st},
		{Type: srv.Tmkdir, Fid: 1, Name: "docs"},
		{Type: srv.Rmkdir, Ino: 79},
		{Type: srv.Tread, Fid: 7, Off: 4096, Count: 1024},
		{Type: srv.Rread, Data: []byte("small files want bandwidth")},
		{Type: srv.Twrite, Fid: 9, Off: 1 << 40, Data: bytes.Repeat([]byte{0xC3}, 100)},
		{Type: srv.Rwrite, Count: 100},
		{Type: srv.Tstat, Fid: 9},
		{Type: srv.Rstat, Stat: st},
		{Type: srv.Treaddir, Fid: 3, Off: 32},
		{Type: srv.Rreaddir, More: true, Ents: []srv.WireDirEnt{{Ino: 5, Type: 1, Name: "f000"}, {Ino: 6, Type: 2, Name: "sub"}}},
		{Type: srv.Tunlink, Fid: 4, Name: "s1230471", Rmdir: true},
		{Type: srv.Runlink},
		{Type: srv.Trename, Fid: 4, Name: "a", DirFid: 5, NewName: "b"},
		{Type: srv.Rrename},
		{Type: srv.Tfsync, Fid: 1},
		{Type: srv.Rfsync},
		{Type: srv.Tclunk, Fid: 9},
		{Type: srv.Rclunk},
		{Type: srv.Rerror, Code: 1, Ename: "file does not exist"},
	}
}

// FuzzFcallDecode feeds arbitrary bytes to the one decoder through
// ReadFcall. Whatever they are it must not panic, and must not allocate
// more than a constant factor of the frame it was willing to read — a
// count or length field that lies never sizes an allocation. Whatever
// decodes must survive a round trip: its re-encoding decodes to an equal
// Fcall.
func FuzzFcallDecode(f *testing.F) {
	for _, fc := range oneOfEach() {
		var buf bytes.Buffer
		if err := srv.WriteFcall(&buf, &fc, 0); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// The frame-level damage TestTortureFraming sends: a size below the
	// header, a 2 GB length, a frame cut short, a body whose string
	// claims more bytes than the body holds.
	short, huge := make([]byte, 7), make([]byte, 7)
	binary.LittleEndian.PutUint32(short, 3)
	binary.LittleEndian.PutUint32(huge, 1<<31)
	huge[4] = byte(srv.Tversion)
	lying := append(u32body(9), 200, 0, 'x')
	f.Add(short)
	f.Add(huge)
	f.Add(frame(byte(srv.Tattach), 1, make([]byte, 57))[:20])
	f.Add(frame(byte(srv.Tattach), 1, lying))
	f.Add(frame(byte(srv.Twalk), 1, append(u32body(1), 2, 0, 0, 0, 0xFF, 0xFF)))       // 65535 names in 2 bytes
	f.Add(frame(byte(srv.Rreaddir), 1, []byte{1, 0xFF, 0xFF, 1, 2, 3}))                // 65535 entries in 3 bytes
	f.Add(frame(byte(srv.Rread), 1, append(u32body(1<<30), "short of a gigabyte"...))) // blob longer than its body
	f.Add(frame(200, 7, []byte("gibberish")))

	f.Fuzz(func(t *testing.T, data []byte) {
		// msize is what bounds a frame's declared size, so the frame the
		// decoder may be made to read is at most twice the input.
		msize := uint32(2*len(data) + 64)
		// TotalAlloc counts the whole process, the fuzzing engine's own
		// goroutines included, so an overrun must repeat to count: the
		// decoder's share is the same every time, the engine's is not.
		var fc *srv.Fcall
		var err error
		limit, grew := uint64(16*len(data)+4096), ^uint64(0)
		for try := 0; try < 3 && grew > limit; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fc, err = srv.ReadFcall(bytes.NewReader(data), msize)
			runtime.ReadMemStats(&after)
			grew = after.TotalAlloc - before.TotalAlloc
		}
		if grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
		if err != nil || fc.Type == 0 || fc.Type > srv.Rerror {
			return // damage, or a type only the server's Rerror answers
		}
		var buf bytes.Buffer
		if err := srv.WriteFcall(&buf, fc, 0); err != nil {
			t.Fatalf("re-encoding %+v: %v", fc, err)
		}
		back, err := srv.ReadFcall(&buf, 0)
		if err != nil {
			t.Fatalf("decoding the re-encoding of %+v: %v", fc, err)
		}
		if !reflect.DeepEqual(fc, back) {
			t.Fatalf("round trip changed the frame:\n got %+v\nwant %+v", back, fc)
		}
	})
}
