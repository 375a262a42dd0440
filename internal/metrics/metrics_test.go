package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the bucket map: 0 → bucket 0, and each power
// of two opens a new bucket whose range is [2^(b-1), 2^b - 1].
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1024, 11}, {2047, 11},
		{1 << 40, 41},
		{1<<62 - 1, 62}, {1 << 62, 63}, {1<<63 - 1, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	for b := 1; b < 63; b++ {
		lo, hi := bucketBounds(b)
		if lo != int64(1)<<(b-1) || hi != int64(1)<<b-1 {
			t.Errorf("bucketBounds(%d) = [%d,%d], want [%d,%d]", b, lo, hi, int64(1)<<(b-1), int64(1)<<b-1)
		}
		if bucketOf(lo) != b || bucketOf(hi) != b {
			t.Errorf("bounds of bucket %d do not map back: %d→%d %d→%d", b, lo, bucketOf(lo), hi, bucketOf(hi))
		}
	}
}

// TestQuantiles checks extraction against a known distribution: the
// interpolated estimate must land inside the covering bucket, and the
// bucket's bounds bracket the true value (the ≤2x contract).
func TestQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations of value 100 (bucket 7: [64,127]).
	for i := 0; i < 1000; i++ {
		h.Observe(100)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Sum != 100_000 {
		t.Fatalf("count/sum = %d/%d", s.Count, s.Sum)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		v := s.Quantile(q)
		if v < 64 || v > 127 {
			t.Errorf("Quantile(%g) = %d, want within [64,127]", q, v)
		}
	}

	// Bimodal: 90 fast (≈1µs), 10 slow (≈1ms). p50 must sit in the fast
	// bucket, p99 in the slow one.
	var b Histogram
	for i := 0; i < 90; i++ {
		b.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		b.Observe(1_000_000)
	}
	bs := b.Snapshot()
	if p50 := bs.P50; p50 < 512 || p50 > 1023 {
		t.Errorf("bimodal p50 = %d, want in [512,1023]", p50)
	}
	if p99 := bs.P99; p99 < 524288 || p99 > 1048575 {
		t.Errorf("bimodal p99 = %d, want in [524288,1048575]", p99)
	}
	if m := bs.Mean(); m < 100_000 || m > 101_000 {
		t.Errorf("bimodal mean = %g, want ≈100900", m)
	}
}

func TestQuantileEdges(t *testing.T) {
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram must quantile/mean to 0")
	}
	var h Histogram
	h.Observe(0)
	s := h.Snapshot()
	if s.P50 != 0 || s.P999 != 0 {
		t.Errorf("all-zero histogram: p50=%d p999=%d", s.P50, s.P999)
	}
	if len(s.Buckets) != 1 {
		t.Errorf("all-zero histogram buckets = %v, want [1]", s.Buckets)
	}
	var one Histogram
	one.Observe(5)
	if v := one.Snapshot().Quantile(1.0); v < 4 || v > 7 {
		t.Errorf("single-value q1.0 = %d, want in [4,7]", v)
	}
}

// TestConcurrentRecording hammers one histogram and counters from many
// goroutines; totals must be exact (run under -race in CI).
func TestConcurrentRecording(t *testing.T) {
	var h Histogram
	var c Counter
	var g Gauge
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(i % 1000))
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Errorf("histogram count = %d, want %d", s.Count, workers*per)
	}
	var bucketSum int64
	for _, n := range s.Buckets {
		bucketSum += n
	}
	if bucketSum != workers*per {
		t.Errorf("bucket total = %d, want %d", bucketSum, workers*per)
	}
	if c.Load() != workers*per {
		t.Errorf("counter = %d, want %d", c.Load(), workers*per)
	}
	if g.Load() != 0 {
		t.Errorf("gauge = %d, want 0", g.Load())
	}
}

// TestNilSafety: every recording and snapshot method must be a no-op on
// nil receivers — the zero-cost-when-absent contract.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Error("nil counter loads non-zero")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Load() != 0 {
		t.Error("nil gauge loads non-zero")
	}
	var h *Histogram
	h.Observe(1)
	h.Since(time.Now())
	if h.Count() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil histogram recorded")
	}
	var e *Engine
	e.SizeLanes(4)
	e.Read()
	e.Admit([]int{0}, 1, time.Millisecond)
	e.CASRetry()
	e.CrossLaneAcq()
	e.Run(3)
	if e.Snapshot().Admitted != 0 {
		t.Error("nil engine recorded")
	}
	var a *Archive
	a.Buffered(1)
	a.Flushed(2, 100)
	a.Fsync(time.Millisecond)
	a.SnapshotWritten(50)
	a.Recovered(time.Second)
	if a.Snapshot().Appends != 0 {
		t.Error("nil archive recorded")
	}
	var s *Session
	s.Flush(4)
	if s.Snapshot().Flushes != 0 {
		t.Error("nil session recorded")
	}
	var cl *Cluster
	cl.Forwarded(2)
	cl.Redirected()
	if cl.Snapshot().Forwards != 0 {
		t.Error("nil cluster recorded")
	}
	var srv *Server
	if srv.Snapshot().Execs != 0 {
		t.Error("nil server recorded")
	}
}

func TestEngineLayer(t *testing.T) {
	var e Engine
	e.SizeLanes(4)
	e.Read()
	e.Read()
	e.Admit([]int{1}, 1, 2*time.Microsecond)
	e.Admit([]int{0, 2}, 3, 5*time.Microsecond)
	e.CrossLaneAcq()
	e.CASRetry()
	e.Run(3)
	s := e.Snapshot()
	if s.Reads != 2 || s.Admitted != 4 || s.CrossLane != 1 || s.CASRetries != 1 {
		t.Errorf("engine snapshot = %+v", s)
	}
	want := []int64{3, 1, 3, 0}
	for i, w := range want {
		if s.LaneCommits[i] != w {
			t.Errorf("lane %d commits = %d, want %d", i, s.LaneCommits[i], w)
		}
	}
	if s.CommitLatency.Count != 2 || s.BatchRuns.Count != 1 {
		t.Errorf("hist counts: commit=%d runs=%d", s.CommitLatency.Count, s.BatchRuns.Count)
	}
}

// TestSnapshotJSON: the aggregate snapshot round-trips through JSON and
// omits sections the node does not run.
func TestSnapshotJSON(t *testing.T) {
	var e Engine
	e.SizeLanes(2)
	e.Admit([]int{0}, 1, time.Microsecond)
	snap := Snapshot{
		Origin:  "test",
		Version: 7,
		Lanes:   2,
		Durable: false,
		Engine:  e.Snapshot(),
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Version != 7 || back.Engine.Admitted != 1 || back.Origin != "test" {
		t.Errorf("round-trip mismatch: %+v", back)
	}
	if back.Archive != nil || back.Cluster != nil || back.Server != nil {
		t.Error("absent sections must stay nil through JSON")
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if _, present := m["archive"]; present {
		t.Error("nil archive section must be omitted from JSON")
	}
	if snap.Format() == "" {
		t.Error("Format returned empty report")
	}
}

// TestFailoverSnapshotJSONFields pins the failover observability surface
// to its wire names: these keys are what the wire Introspect frame (a
// cluster client's StatsAll sweep) and the /debug/vars document carry, so
// a rename here is a breaking change to every report reader.
func TestFailoverSnapshotJSONFields(t *testing.T) {
	var c Cluster
	c.Promotions.Inc()
	c.FencingRejections.Add(2)
	c.HeartbeatRTT.Observe(1500)
	cs := c.Snapshot()
	cs.Epochs = []uint64{0, 1}
	cs.Owners = []int{0, 2}
	snap := Snapshot{
		Cluster: &cs,
		Peers: []PeerSnapshot{
			{Peer: 1, Addr: "n1", ReplicaApplied: 41, HeartbeatAgeMs: 12.5, AppliedLag: 3},
			{Peer: 2, Addr: "n2", ReplicaApplied: -1, HeartbeatAgeMs: -1, AppliedLag: -1},
		},
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cluster map[string]json.RawMessage   `json:"cluster"`
		Peers   []map[string]json.RawMessage `json:"peers"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"promotions", "fencing_rejections", "epochs", "owners", "heartbeat_rtt_ns"} {
		if _, ok := doc.Cluster[key]; !ok {
			t.Errorf("cluster section lost the %q field", key)
		}
	}
	for i, peer := range doc.Peers {
		for _, key := range []string{"heartbeat_age_ms", "applied_lag"} {
			if _, ok := peer[key]; !ok {
				t.Errorf("peer %d lost the %q field (it must be present even when -1)", i, key)
			}
		}
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cluster.Promotions != 1 || back.Cluster.FencingRejections != 2 ||
		len(back.Cluster.Epochs) != 2 || back.Cluster.Epochs[1] != 1 || back.Cluster.Owners[1] != 2 {
		t.Errorf("failover cluster fields did not round-trip: %+v", back.Cluster)
	}
	if back.Peers[0].HeartbeatAgeMs != 12.5 || back.Peers[0].AppliedLag != 3 ||
		back.Peers[1].HeartbeatAgeMs != -1 || back.Peers[1].AppliedLag != -1 {
		t.Errorf("peer liveness fields did not round-trip: %+v", back.Peers)
	}
	if !strings.Contains(snap.Format(), "hb_age") {
		t.Error("Format() dropped the per-peer heartbeat line")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		var i int64
		for pb.Next() {
			i++
			h.Observe(i)
		}
	})
}

func BenchmarkNilHistogramObserve(b *testing.B) {
	var h *Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
