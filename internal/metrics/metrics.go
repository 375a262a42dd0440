// Package metrics is the instrumentation core of the runtime: atomic
// counters and gauges, and fixed-bucket log-scaled latency histograms
// with quantile extraction, cheap enough to live on the admission and
// durability hot paths.
//
// The paper's evaluation (Section 4) measures the simulated system —
// ply-width concurrency profiles over the Rediflow interpreter — and
// internal/trace reproduces that for in-process runs. This package gives
// the *production* stack (lanes, group commit, wire server, cluster) the
// same measurability at runtime: every layer owns a small struct of these
// primitives (layers.go), funcdb.Store and cluster nodes aggregate them
// into one Snapshot, and the wire's Introspect frame ships the snapshot to any
// client.
//
// Two cost disciplines, both load-bearing:
//
//   - zero-cost when absent: every recording method is nil-receiver-safe,
//     so an uninstrumented engine pays exactly one pointer comparison —
//     no allocation, no atomics, no clock reads;
//   - ~free when present: recording is one or two uncontended atomic adds
//     (a histogram observation is bucket-index arithmetic on bits.Len64
//     plus two adds). No locks, no maps, no allocation anywhere on a
//     record path.
package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonic atomic counter. The zero value is ready; a nil
// *Counter ignores recordings and loads as 0.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready; a nil
// *Gauge ignores recordings and loads as 0.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta (connection counts up and down).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// NumBuckets is the histogram's fixed bucket count: one bucket per
// power of two. Bucket 0 holds exactly 0; bucket b (b >= 1) holds values
// in [2^(b-1), 2^b - 1]. 64 buckets cover every non-negative int64, so
// an observation can never fall off the end — nanosecond latencies, batch
// sizes and byte counts all fit the same shape.
const NumBuckets = 64

// Histogram is a fixed-bucket, power-of-two log-scaled histogram. The
// zero value is ready; a nil *Histogram ignores observations. Recording
// is lock-free: a bucket index from bits.Len64 plus two atomic adds.
// Count and sum are recorded independently of the buckets, so a snapshot
// taken during concurrent recording may be off by in-flight observations
// — fine for monitoring, which is the contract.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// bucketOf maps a value to its bucket index. Negative values (a clock
// stepping backwards) clamp to bucket 0 rather than corrupting an index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v)) // 1..63 for v >= 1
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Since records the elapsed time from start, in nanoseconds.
func (h *Histogram) Since(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Nanoseconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot copies the histogram into its plain-data form, with the
// standard quantiles precomputed.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	top := -1
	var buckets [NumBuckets]int64
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			buckets[i] = n
			top = i
		}
	}
	if top >= 0 {
		s.Buckets = append([]int64(nil), buckets[:top+1]...)
	}
	s.P50 = s.Quantile(0.50)
	s.P99 = s.Quantile(0.99)
	s.P999 = s.Quantile(0.999)
	return s
}

// HistogramSnapshot is a histogram's state at one instant: plain data,
// JSON-encodable, comparable across nodes. Buckets are trimmed after the
// highest non-empty one (bucket b >= 1 covers [2^(b-1), 2^b - 1]).
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	P50     int64   `json:"p50"`
	P99     int64   `json:"p99"`
	P999    int64   `json:"p999"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the covering bucket, returning 0 for an empty histogram. The
// estimate is bounded by the bucket's range, so it is never more than 2x
// off the true value — the precision log-scaled buckets buy.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for b, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= rank {
			lo, hi := bucketBounds(b)
			frac := (rank - cum) / float64(n)
			return lo + int64(frac*float64(hi-lo))
		}
		cum = next
	}
	// Rounding left the rank past the last bucket: its upper bound.
	_, hi := bucketBounds(len(s.Buckets) - 1)
	return hi
}

// Mean returns the average observed value, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// bucketBounds returns the inclusive value range bucket b covers.
func bucketBounds(b int) (lo, hi int64) {
	if b <= 0 {
		return 0, 0
	}
	lo = int64(1) << (b - 1)
	if b >= 63 {
		// Bucket 63 absorbs everything Len64 maps at or past it.
		return lo, 1<<63 - 1
	}
	return lo, int64(1)<<b - 1
}
