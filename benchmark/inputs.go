package main

import "bytes"

// Inputs are generated here, from -seed alone: the benchmark must not
// share generators with internal/workload, which later changes may edit.

// rng is splitmix64: small, seedable, and good enough for op streams.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// mix derives an independent stream seed from the run seed and a tag.
func mix(seed, tag uint64) uint64 { return newRNG(seed ^ tag*0xd6e8feb86659fd93).next() }

// pattern is the seeded content of every file the benchmark writes:
// byte o of the file with key k is ring[(k+o) mod patLen]. A read is
// checked with one or two memcmps against the ring, so verification
// costs far less than the op it checks.
type pattern struct{ ring []byte }

const patLen = 1 << 16

func newPattern(seed uint64) *pattern {
	r := newRNG(mix(seed, 0x70617474))
	p := &pattern{ring: make([]byte, 2*patLen)}
	for i := 0; i < patLen; i += 8 {
		v := r.next()
		for j := 0; j < 8; j++ {
			p.ring[i+j] = byte(v >> (8 * j))
		}
	}
	copy(p.ring[patLen:], p.ring[:patLen])
	return p
}

// key picks the ring offset of one version of one file.
func (p *pattern) key(file, version uint64) uint32 {
	return uint32(newRNG(file<<8^version).next() % patLen)
}

// bytes returns the n <= patLen content bytes at file offset off.
func (p *pattern) bytes(key uint32, off int64, n int) []byte {
	s := (int64(key) + off) % patLen
	return p.ring[s : s+int64(n)]
}

// check reports whether got is the file's content at off.
func (p *pattern) check(key uint32, off int64, got []byte) bool {
	for len(got) > 0 {
		n := len(got)
		if n > patLen {
			n = patLen
		}
		if !bytes.Equal(got[:n], p.bytes(key, off, n)) {
			return false
		}
		got, off = got[n:], off+int64(n)
	}
	return true
}
