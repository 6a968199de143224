// Package srv puts a network front end on the concurrent file system:
// a length-prefixed binary wire protocol in the 9P style (tagged
// request/response pairs, so one connection carries many in-flight
// operations), per-tenant namespaces rooted at directory subtrees, and
// per-tenant QoS (token-bucket admission plus a fair-share dispatcher)
// between the socket and the vfs entry points.
//
// The protocol deliberately resolves names once: Tattach and Twalk turn
// paths into fids, and every hot-path operation (read, write, stat,
// readdir) then goes by fid — no per-op path resolution or permission
// round trips, the BuffetFS argument applied to tenancy. A fid is bound
// to the tenant that attached it and can never walk above the tenant
// root, so namespace isolation is enforced structurally by the handle,
// not by checking prefixes on every request.
package srv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"cffs/internal/vfs"
)

// Version is the protocol revision negotiated by Tversion. Servers
// refuse clients that speak anything else.
const Version = "cffs.1"

// Message sizes. A frame is size[4] type[1] tag[2] body, with size
// counting the whole frame including itself (little-endian, like the
// rest of the on-disk structures in this repo). msize is the negotiated
// maximum frame size; reads and readdir pages are clipped to fit.
const (
	headerBytes  = 7
	MinMsize     = 1 << 12
	DefaultMsize = 256 << 10
	MaxMsize     = 1 << 20
)

// IOHeadroom is the worst-case framing overhead around a Tread/Twrite
// payload; msize - IOHeadroom bytes of data fit in one frame.
const IOHeadroom = 64

// NoTag and NoFid are reserved "absent" values.
const (
	NoTag uint16 = 0xFFFF
	NoFid uint32 = 0xFFFFFFFF
)

// MsgType identifies a frame. T-types are client requests, each
// followed by its R-type response (or Rerror).
type MsgType uint8

const (
	msgInvalid MsgType = iota
	Tversion
	Rversion
	Tattach
	Rattach
	Twalk
	Rwalk
	Topen
	Ropen
	Tcreate
	Rcreate
	Tmkdir
	Rmkdir
	Tread
	Rread
	Twrite
	Rwrite
	Tstat
	Rstat
	Treaddir
	Rreaddir
	Tunlink
	Runlink
	Trename
	Rrename
	Tfsync
	Rfsync
	Tclunk
	Rclunk
	Rerror
	msgMax
)

var msgNames = [...]string{
	Tversion: "Tversion", Rversion: "Rversion",
	Tattach: "Tattach", Rattach: "Rattach",
	Twalk: "Twalk", Rwalk: "Rwalk",
	Topen: "Topen", Ropen: "Ropen",
	Tcreate: "Tcreate", Rcreate: "Rcreate",
	Tmkdir: "Tmkdir", Rmkdir: "Rmkdir",
	Tread: "Tread", Rread: "Rread",
	Twrite: "Twrite", Rwrite: "Rwrite",
	Tstat: "Tstat", Rstat: "Rstat",
	Treaddir: "Treaddir", Rreaddir: "Rreaddir",
	Tunlink: "Tunlink", Runlink: "Runlink",
	Trename: "Trename", Rrename: "Rrename",
	Tfsync: "Tfsync", Rfsync: "Rfsync",
	Tclunk: "Tclunk", Rclunk: "Rclunk",
	Rerror: "Rerror",
}

func (m MsgType) String() string {
	if int(m) < len(msgNames) && msgNames[m] != "" {
		return msgNames[m]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(m))
}

// Topen mode bits. The mapping onto the vfs flag lattice is
// MapOpenMode, shared by server and tests so the wire semantics are
// oracle-checked against vfs.OpenFile.
const (
	OModeRead  uint8 = 1 << 0
	OModeWrite uint8 = 1 << 1
	OModeTrunc uint8 = 1 << 2
)

// MapOpenMode translates wire open-mode bits to vfs open flags. A mode
// with no access bits is invalid on the wire (unlike the vfs layer,
// which keeps zero-access as the legacy full-access open): a fid's
// later reads and writes are checked against these bits, so the client
// must declare what it wants.
func MapOpenMode(mode uint8) (vfs.OpenFlag, error) {
	if mode&^(OModeRead|OModeWrite|OModeTrunc) != 0 {
		return 0, fmt.Errorf("open mode %#x: unknown bits: %w", mode, vfs.ErrInvalid)
	}
	if mode&(OModeRead|OModeWrite) == 0 {
		return 0, fmt.Errorf("open mode %#x: no access bits: %w", mode, vfs.ErrInvalid)
	}
	if mode&OModeTrunc != 0 && mode&OModeWrite == 0 {
		return 0, fmt.Errorf("open mode %#x: truncate without write access: %w", mode, vfs.ErrInvalid)
	}
	var flag vfs.OpenFlag
	if mode&OModeRead != 0 {
		flag |= vfs.ORead
	}
	if mode&OModeWrite != 0 {
		flag |= vfs.OWrite
	}
	if mode&OModeTrunc != 0 {
		flag |= vfs.OTrunc
	}
	return flag, nil
}

// Wire error codes. Rerror carries a code plus the server's message
// string; the client library maps codes back to the vfs sentinel errors
// so errors.Is works across the wire.
const (
	codeOther uint8 = iota
	codeNotExist
	codeExist
	codeNotDir
	codeIsDir
	codeNotEmpty
	codeNoSpace
	codeNameTooLong
	codeInvalid
	codeBusy
	codePerm
	codeProto
	codeLimit
)

// Errors the service layer adds on top of the vfs sentinels.
var (
	// ErrPerm covers tenancy violations: unknown tenant at attach,
	// walking above the tenant root, writing through a read-only fid,
	// renaming across tenants.
	ErrPerm = errors.New("permission denied")
	// ErrProto covers malformed requests that name a usable tag: bad
	// fid, duplicate tag, unknown message type. Frame-level garbage
	// (bad size, short read) kills the connection instead.
	ErrProto = errors.New("protocol error")
	// ErrLimit is admission control pushing back: the tenant's request
	// queue is full. The operation was not attempted; retry later.
	ErrLimit = errors.New("request limit exceeded")
)

// codeErrs maps both ways, indexed by wire code. errCode scans it in
// code order, so an error wrapping two sentinels always earns the lower
// code (ranging over a map picked one at random).
var codeErrs = [...]error{
	codeNotExist:    vfs.ErrNotExist,
	codeExist:       vfs.ErrExist,
	codeNotDir:      vfs.ErrNotDir,
	codeIsDir:       vfs.ErrIsDir,
	codeNotEmpty:    vfs.ErrNotEmpty,
	codeNoSpace:     vfs.ErrNoSpace,
	codeNameTooLong: vfs.ErrNameTooLong,
	codeInvalid:     vfs.ErrInvalid,
	codeBusy:        vfs.ErrBusy,
	codePerm:        ErrPerm,
	codeProto:       ErrProto,
	codeLimit:       ErrLimit,
}

func errCode(err error) uint8 {
	for code := codeOther + 1; int(code) < len(codeErrs); code++ {
		if errors.Is(err, codeErrs[code]) {
			return code
		}
	}
	return codeOther
}

func codeErr(code uint8, ename string) error {
	if code == codeOther || int(code) >= len(codeErrs) {
		return fmt.Errorf("srv: %s", ename)
	}
	return fmt.Errorf("srv: %s (%w)", ename, codeErrs[code])
}

// maxEname bounds the message text of an Rerror, quoted names included,
// so an Rerror fits the smallest msize whatever the request carried.
const maxEname = 256

// WireStat is the stat shape that crosses the wire.
type WireStat struct {
	Ino    uint64
	Type   uint8
	Nlink  uint32
	Size   int64
	Blocks int64
	Mtime  int64
}

func toWireStat(st vfs.Stat) WireStat {
	return WireStat{
		Ino:    uint64(st.Ino),
		Type:   uint8(st.Type),
		Nlink:  st.Nlink,
		Size:   st.Size,
		Blocks: st.Blocks,
		Mtime:  st.Mtime,
	}
}

// Stat converts back to the vfs shape.
func (w WireStat) Stat() vfs.Stat {
	return vfs.Stat{
		Ino:    vfs.Ino(w.Ino),
		Type:   vfs.FileType(w.Type),
		Nlink:  w.Nlink,
		Size:   w.Size,
		Blocks: w.Blocks,
		Mtime:  w.Mtime,
	}
}

// WireDirEnt is one Rreaddir entry.
type WireDirEnt struct {
	Ino  uint64
	Type uint8
	Name string
}

// Fcall is the in-memory form of any frame — one struct for every
// message type, 9P-style, so the marshaling code and the tests share a
// single vocabulary. Only the fields relevant to Type are meaningful.
type Fcall struct {
	Type MsgType
	Tag  uint16

	Fid    uint32 // most T-messages: the operand fid
	NewFid uint32 // Twalk, Tcreate: fid to bind the result to
	DirFid uint32 // Trename: destination directory fid

	Msize   uint32 // Tversion, Rversion
	Version string // Tversion, Rversion
	Tenant  string // Tattach

	Names   []string // Twalk: path components
	Name    string   // Tcreate, Tmkdir, Tunlink, Trename (source name)
	NewName string   // Trename (destination name)
	Mode    uint8    // Topen
	Rmdir   bool     // Tunlink: remove a directory instead of a file

	Off   int64  // Tread, Twrite: byte offset; Treaddir: entry index
	Count uint32 // Tread: bytes wanted; Rwrite: bytes written
	Data  []byte // Twrite, Rread

	Ino  uint64       // Rattach, Rwalk, Rcreate, Rmkdir
	Stat WireStat     // Ropen, Rstat, Rcreate
	Ents []WireDirEnt // Rreaddir
	More bool         // Rreaddir: further entries beyond this page

	Code  uint8  // Rerror
	Ename string // Rerror
}

// Err reconstructs the error an Rerror carries.
func (f *Fcall) Err() error { return codeErr(f.Code, f.Ename) }

// reset clears f for reuse as a frame of type t, keeping the arrays
// behind Names and Ents.
func (f *Fcall) reset(t MsgType, tag uint16) {
	*f = Fcall{Type: t, Tag: tag, Names: f.Names[:0], Ents: f.Ents[:0]}
}

type encoder struct{ b []byte }

func (e *encoder) u8(v uint8)   { e.b = append(e.b, v) }
func (e *encoder) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) str(s string) {
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
}

// blob appends a length-prefixed payload; one that already sits where it
// would be copied to (Server.read fills the reply frame) is adopted.
func (e *encoder) blob(p []byte) {
	e.u32(uint32(len(p)))
	if n := len(e.b); len(p) > 0 && n+len(p) <= cap(e.b) && &p[0] == &e.b[:n+1][n] {
		e.b = e.b[:n+len(p)]
		return
	}
	e.b = append(e.b, p...)
}
func (e *encoder) stat(st WireStat) {
	e.u64(st.Ino)
	e.u8(st.Type)
	e.u32(st.Nlink)
	e.i64(st.Size)
	e.i64(st.Blocks)
	e.i64(st.Mtime)
}

type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated frame body: %w", ErrProto)
	}
}
func (d *decoder) take(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// fixed is take for the scalar readers: a short body yields zeros.
func (d *decoder) fixed(n int) []byte {
	if p := d.take(n); p != nil {
		return p
	}
	return zeros[:n]
}

var zeros [8]byte

func (d *decoder) u8() uint8   { return d.fixed(1)[0] }
func (d *decoder) u16() uint16 { return binary.LittleEndian.Uint16(d.fixed(2)) }
func (d *decoder) u32() uint32 { return binary.LittleEndian.Uint32(d.fixed(4)) }
func (d *decoder) u64() uint64 { return binary.LittleEndian.Uint64(d.fixed(8)) }
func (d *decoder) i64() int64  { return int64(d.u64()) }
func (d *decoder) bool() bool  { return d.u8() != 0 }

// str copies: names cross into vfs.FileSystem, which may keep them.
func (d *decoder) str() string { return string(d.take(int(d.u16()))) }

// blob is a view into the body: whoever owns the body owns the payload.
func (d *decoder) blob() []byte { return d.take(int(d.u32())) }

// count reads a u16 element count, refusing one the rest of the body
// cannot hold at min bytes each: a lying count never sizes an allocation.
func (d *decoder) count(min int) int {
	n := int(d.u16())
	if n*min > len(d.b)-d.off {
		d.fail()
		return 0
	}
	return n
}
func (d *decoder) stat() WireStat {
	return WireStat{
		Ino:    d.u64(),
		Type:   d.u8(),
		Nlink:  d.u32(),
		Size:   d.i64(),
		Blocks: d.i64(),
		Mtime:  d.i64(),
	}
}
func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%d trailing bytes in frame body: %w", len(d.b)-d.off, ErrProto)
	}
	return nil
}

// wireEntBytes is one Rreaddir entry less its name: ino, type, length.
const wireEntBytes = 11

// appendFcall, the only encoder, appends f's frame (header included) to
// dst: a connection's recycled buffer, or WriteFcall's fresh one. A
// frame over msize is an error; msize 0 means unchecked.
func appendFcall(dst []byte, f *Fcall, msize uint32) ([]byte, error) {
	start := len(dst)
	e := encoder{b: dst}
	e.u32(0) // size backpatched below
	e.u8(uint8(f.Type))
	e.u16(f.Tag)
	switch f.Type {
	case Tversion, Rversion:
		e.u32(f.Msize)
		e.str(f.Version)
	case Tattach:
		e.u32(f.Fid)
		e.str(f.Tenant)
	case Rattach:
		e.u64(f.Ino)
	case Twalk:
		e.u32(f.Fid)
		e.u32(f.NewFid)
		e.u16(uint16(len(f.Names)))
		for _, n := range f.Names {
			e.str(n)
		}
	case Rwalk:
		e.u64(f.Ino)
	case Topen:
		e.u32(f.Fid)
		e.u8(f.Mode)
	case Ropen, Rstat:
		e.stat(f.Stat)
	case Tcreate:
		e.u32(f.Fid)
		e.u32(f.NewFid)
		e.str(f.Name)
	case Rcreate:
		e.u64(f.Ino)
		e.stat(f.Stat)
	case Tmkdir:
		e.u32(f.Fid)
		e.str(f.Name)
	case Rmkdir:
		e.u64(f.Ino)
	case Tread:
		e.u32(f.Fid)
		e.i64(f.Off)
		e.u32(f.Count)
	case Rread:
		e.blob(f.Data)
	case Twrite:
		e.u32(f.Fid)
		e.i64(f.Off)
		e.blob(f.Data)
	case Rwrite:
		e.u32(f.Count)
	case Tstat, Tfsync, Tclunk:
		e.u32(f.Fid)
	case Treaddir:
		e.u32(f.Fid)
		e.i64(f.Off)
	case Rreaddir:
		e.bool(f.More)
		e.u16(uint16(len(f.Ents)))
		for _, ent := range f.Ents {
			e.u64(ent.Ino)
			e.u8(ent.Type)
			e.str(ent.Name)
		}
	case Tunlink:
		e.u32(f.Fid)
		e.str(f.Name)
		e.bool(f.Rmdir)
	case Trename:
		e.u32(f.Fid)
		e.str(f.Name)
		e.u32(f.DirFid)
		e.str(f.NewName)
	case Runlink, Rrename, Rfsync, Rclunk:
	case Rerror:
		e.u8(f.Code)
		e.str(f.Ename)
	default:
		return dst, fmt.Errorf("marshal %v: %w", f.Type, ErrProto)
	}
	size := uint32(len(e.b) - start)
	if msize > 0 && size > msize {
		return e.b, fmt.Errorf("frame %v size %d exceeds msize %d: %w", f.Type, size, msize, ErrProto)
	}
	binary.LittleEndian.PutUint32(e.b[start:], size)
	return e.b, nil
}

// decodeBody, the only decoder, parses body (everything after the
// header) into f, whose Type the caller set and whose other fields are
// zero (reset). f.Data is a view into body, so f is valid only while body
// is left alone; every string is a copy.
func decodeBody(f *Fcall, body []byte) error {
	d := decoder{b: body}
	switch f.Type {
	case Tversion, Rversion:
		f.Msize = d.u32()
		f.Version = d.str()
	case Tattach:
		f.Fid = d.u32()
		f.Tenant = d.str()
	case Rattach:
		f.Ino = d.u64()
	case Twalk:
		f.Fid = d.u32()
		f.NewFid = d.u32()
		n := d.count(2)
		if cap(f.Names) < n {
			f.Names = make([]string, 0, n)
		}
		for i := 0; i < n && d.err == nil; i++ {
			f.Names = append(f.Names, d.str())
		}
	case Rwalk:
		f.Ino = d.u64()
	case Topen:
		f.Fid = d.u32()
		f.Mode = d.u8()
	case Ropen, Rstat:
		f.Stat = d.stat()
	case Tcreate:
		f.Fid = d.u32()
		f.NewFid = d.u32()
		f.Name = d.str()
	case Rcreate:
		f.Ino = d.u64()
		f.Stat = d.stat()
	case Tmkdir:
		f.Fid = d.u32()
		f.Name = d.str()
	case Rmkdir:
		f.Ino = d.u64()
	case Tread:
		f.Fid = d.u32()
		f.Off = d.i64()
		f.Count = d.u32()
	case Rread:
		f.Data = d.blob()
	case Twrite:
		f.Fid = d.u32()
		f.Off = d.i64()
		f.Data = d.blob()
	case Rwrite:
		f.Count = d.u32()
	case Tstat, Tfsync, Tclunk:
		f.Fid = d.u32()
	case Treaddir:
		f.Fid = d.u32()
		f.Off = d.i64()
	case Rreaddir:
		f.More = d.bool()
		n := d.count(wireEntBytes)
		if cap(f.Ents) < n {
			f.Ents = make([]WireDirEnt, 0, n)
		}
		// One string holds the page and each entry slices its name out
		// of it (core's ReadDir idiom): one allocation, not one per name.
		base, page := d.off, ""
		if n > 0 {
			page = string(body[base:])
		}
		for i := 0; i < n && d.err == nil; i++ {
			ino, typ := d.u64(), d.u8()
			name := d.take(int(d.u16()))
			f.Ents = append(f.Ents, WireDirEnt{Ino: ino, Type: typ, Name: page[d.off-len(name)-base : d.off-base]})
		}
	case Tunlink:
		f.Fid = d.u32()
		f.Name = d.str()
		f.Rmdir = d.bool()
	case Trename:
		f.Fid = d.u32()
		f.Name = d.str()
		f.DirFid = d.u32()
		f.NewName = d.str()
	case Runlink, Rrename, Rfsync, Rclunk:
	case Rerror:
		f.Code = d.u8()
		f.Ename = d.str()
	default:
		return fmt.Errorf("unmarshal %v: unknown message type: %w", f.Type, ErrProto)
	}
	return d.done()
}

// known reports whether decodeBody can parse t. A well-formed frame of
// any other type is recoverable: the server answers Rerror and carries on.
func (t MsgType) known() bool { return t > msgInvalid && t < msgMax }

// readHeader reads one frame header into hdr (the caller's scratch, so
// none escapes per frame) and returns the frame's type, tag and body
// length. Frame-level damage — a size below the header or beyond msize, a
// short read — loses stream sync: the caller must drop the connection.
func readHeader(r io.Reader, hdr []byte, msize uint32) (MsgType, uint16, int, error) {
	if _, err := io.ReadFull(r, hdr[:headerBytes]); err != nil {
		return 0, 0, 0, err
	}
	size := binary.LittleEndian.Uint32(hdr)
	if size < headerBytes {
		return 0, 0, 0, fmt.Errorf("frame size %d below header: %w", size, ErrProto)
	}
	if msize == 0 {
		msize = MaxMsize
	}
	if size > msize {
		return 0, 0, 0, fmt.Errorf("frame size %d exceeds msize %d: %w", size, msize, ErrProto)
	}
	return MsgType(hdr[4]), binary.LittleEndian.Uint16(hdr[5:]), int(size - headerBytes), nil
}

// keepBytes is the largest buffer a connection keeps between frames:
// buffers grow (slices.Grow) to the frames they carry, never to msize
// ahead of them, and one grown past this is dropped on release.
const keepBytes = 64 << 10

// poisonRecycled (tests only): a use after release reads 0xDB, not luck.
var poisonRecycled bool

// recycled readies a released buffer for its next frame.
func recycled(buf []byte) []byte {
	if cap(buf) > keepBytes {
		return nil
	}
	if poisonRecycled {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	return buf[:0]
}

// WriteFcall marshals f and writes the frame in one Write call, which
// keeps frames from interleaving when callers serialize on a mutex
// rather than the writer.
func WriteFcall(w io.Writer, f *Fcall, msize uint32) error {
	frame, err := appendFcall(make([]byte, 0, 64+len(f.Data)), f, msize)
	if err == nil {
		_, err = w.Write(frame)
	}
	return err
}

// ReadFcall reads one frame into a fresh Fcall that owns its body (Data
// is a view into it). Frame-level damage is an error (see readHeader);
// an unknown message *type* inside a well-formed frame is reported via
// Fcall with Type preserved, for the caller to decide.
func ReadFcall(r io.Reader, msize uint32) (*Fcall, error) {
	// The header scratch and a small body share the Fcall's allocation.
	u := new(struct {
		f     Fcall
		hdr   [headerBytes]byte
		small [64 - headerBytes]byte
	})
	typ, tag, n, err := readHeader(r, u.hdr[:], msize)
	if err != nil {
		return nil, err
	}
	body := slices.Grow(u.small[:0], n)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	u.f.Type, u.f.Tag = typ, tag
	if !typ.known() {
		return &u.f, nil
	}
	return &u.f, decodeBody(&u.f, body)
}
