package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram in nanoseconds: 128 linear
// sub-buckets per power of two, so a quantile read from it is within 0.8 %
// of the exact sample. It exists because a 20 s closed loop on the
// in-process engine completes tens of millions of operations — too many to
// keep and sort — and because the program's own metrics.Histogram
// (power-of-two buckets, a factor of two wide) is far too coarse for a
// regression bound of 5–25 %. Not safe for concurrent use: every measuring
// goroutine owns one and they are merged afterwards.
type hist struct {
	counts [histBuckets]uint32
	n      int64
	sum    int64
	max    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits // sub-buckets per octave
	// Values up to 2^40 ns (18 minutes) are resolved; larger ones land in
	// the last bucket.
	histOctaves = 40 - histSubBits
	histBuckets = (histOctaves + 1) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	if shift >= histOctaves {
		return histBuckets - 1
	}
	return (shift+1)*histSub + int(v>>uint(shift)) - histSub
}

// histBounds returns the inclusive value range of bucket i.
func histBounds(i int) (lo, hi int64) {
	if i < histSub {
		return int64(i), int64(i)
	}
	shift := uint(i/histSub - 1)
	lo = int64(i%histSub+histSub) << shift
	return lo, lo + (1 << shift) - 1
}

func (h *hist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile (0 < q <= 1) in nanoseconds, interpolated
// linearly inside the covering bucket; 0 for an empty histogram.
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
		next := cum + float64(c)
		if next >= rank {
			lo, hi := histBounds(i)
			return float64(lo) + (rank-cum)/float64(c)*float64(hi-lo+1)
		}
		cum = next
	}
	return float64(h.max)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// fracAbove returns the share of samples strictly above ns (to the
// histogram's resolution).
func (h *hist) fracAbove(ns int64) float64 {
	if h.n == 0 {
		return 0
	}
	var above int64
	for i := histIndex(ns) + 1; i < histBuckets; i++ {
		above += int64(h.counts[i])
	}
	return float64(above) / float64(h.n)
}

// quartiles returns the first, second and third quartile of vs exactly as
// Python's statistics.quantiles(vs, n=4) does (the "exclusive" method),
// which is how the driver computes the spread of ten runs. It needs at
// least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th of the three cut points, 1-based
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// relIQR is the distance between the first and third quartile as a share of
// the median: the spread the driver holds against a metric's bound.
func relIQR(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(vs)
	m := median(vs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// maxRelDev is the largest distance of any value from the median, as a
// share of the median.
func maxRelDev(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	var worst float64
	for _, v := range vs {
		if d := math.Abs(v-m) / math.Abs(m); d > worst {
			worst = d
		}
	}
	return worst
}
