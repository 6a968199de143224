package main

import "math/bits"

// hist is a fixed-size log-linear histogram of nanosecond samples:
// exact below 128 ns, then 64 buckets per power of two, so a bucket is
// at most 1/64 of its lower bound wide and its mid-point is within
// 0.8 % of any sample in it. Recording is one index computation and
// one increment; nothing is allocated per sample (keeping every raw
// sample made 20 s runs visibly slower than 6 s runs).
type hist struct {
	n, sum int64
	counts [histBuckets]int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histLinear  = 2 * histSub // values below this have their own bucket
	histMaxExp  = 40          // samples of 2^40 ns (18 min) and more share the last bucket
	histBuckets = histLinear + (histMaxExp-histSubBits-1)*histSub
)

func histIndex(v int64) int {
	if v < histLinear {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	if e >= histMaxExp {
		return histBuckets - 1
	}
	return histLinear + (e-histSubBits-1)*histSub + int(v>>uint(e-histSubBits))&(histSub-1)
}

// histBounds returns bucket i's inclusive lower bound and its width.
func histBounds(i int) (low, width int64) {
	if i < histLinear {
		return int64(i), 1
	}
	k, sub := (i-histLinear)/histSub, (i-histLinear)%histSub
	shift := uint(k + 1)
	return int64(histSub+sub) << shift, 1 << shift
}

func (h *hist) record(v int64) {
	h.n++
	h.sum += v
	h.counts[histIndex(v)]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile in nanoseconds, interpolated inside
// the containing bucket. An empty histogram returns 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			low, width := histBounds(i)
			return float64(low) + float64(width)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	low, width := histBounds(histBuckets - 1)
	return float64(low + width)
}

// tail returns the highest percentile up to p99 that still has ten
// samples beyond it, so a short run never reports a p99 made of one
// or two samples.
func (h *hist) tail() float64 {
	q := 0.99
	if h.n > 0 && 1-10/float64(h.n) < q {
		q = 1 - 10/float64(h.n)
	}
	if q < 0.5 {
		q = 0.5
	}
	return h.quantile(q)
}
