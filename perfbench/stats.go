package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram in nanoseconds: exact below 64 ns,
// then 32 sub-buckets per power of two (about 3% wide). Quantiles are
// interpolated inside a bucket by rank, so they move continuously with the
// data instead of snapping to bucket edges.
type hist struct {
	counts [64 + 58*32]uint32
	n      uint64
}

func bucketOf(ns uint64) int {
	if ns < 64 {
		return int(ns)
	}
	e := bits.Len64(ns) - 6 // ns >> e is in [32, 64)
	return 64 + (e-1)*32 + int(ns>>uint(e)) - 32
}

// bucketRange returns [lo, hi) of bucket b.
func bucketRange(b int) (float64, float64) {
	if b < 64 {
		return float64(b), float64(b + 1)
	}
	e := (b-64)/32 + 1
	m := uint64((b-64)%32 + 32)
	return float64(m << uint(e)), float64((m + 1) << uint(e))
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := bucketOf(uint64(ns))
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (NaN when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketRange(b)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	_, hi := bucketRange(len(h.counts) - 1)
	return hi
}

// median returns the median of xs, ignoring NaNs (NaN when none remain).
func median(xs []float64) float64 {
	var v []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			v = append(v, x)
		}
	}
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// slices holds one histogram per (slice of the timed phase, op kind) and
// the operations each slice completed. Wall-clock figures are medians over
// slices, so one disturbed slice does not move them.
type slices struct {
	lat  [][numKinds]hist
	ops  []uint64
	secs []float64
}

func newSlices(n int) *slices {
	return &slices{lat: make([][numKinds]hist, n), ops: make([]uint64, n), secs: make([]float64, n)}
}

func (s *slices) merge(o *slices) {
	for i := range s.lat {
		for k := range s.lat[i] {
			s.lat[i][k].merge(&o.lat[i][k])
		}
		s.ops[i] += o.ops[i]
		s.secs[i] = max(s.secs[i], o.secs[i])
	}
}

// rate is the median over slices of operations per second.
func (s *slices) rate() float64 {
	var xs []float64
	for i, n := range s.ops {
		if s.secs[i] > 0 {
			xs = append(xs, float64(n)/s.secs[i])
		}
	}
	return median(xs)
}

// latency returns the median over slices of the q-quantile of kind k, in
// microseconds, and the number of samples behind it.
func (s *slices) latency(k opKind, q float64) (float64, uint64) {
	var xs []float64
	var n uint64
	for i := range s.lat {
		xs = append(xs, s.lat[i][k].quantile(q)/1e3)
		n += s.lat[i][k].n
	}
	return median(xs), n
}

// pooled returns the q-quantile of kind k over every slice, in
// microseconds, and the number of samples behind it.
func (s *slices) pooled(k opKind, q float64) (float64, uint64) {
	var h hist
	for i := range s.lat {
		h.merge(&s.lat[i][k])
	}
	return h.quantile(q) / 1e3, h.n
}
