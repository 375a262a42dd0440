package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Engine instruments the sharded admission lanes (internal/core): the
// hot path of the whole system. All methods are nil-receiver-safe so an
// uninstrumented engine pays one pointer comparison per commit.
type Engine struct {
	Reads         Counter   // read-only transactions, whichever path admitted them
	Admitted      Counter   // write transactions admitted under the lanes (reads excluded)
	CASRetries    Counter   // snapshot publications that lost the CAS race
	CrossLane     Counter   // admissions that locked more than one lane
	CommitLatency Histogram // lock-acquire → snapshot-published, ns, per run
	BatchRuns     Histogram // lengths of the runs admitted under one lane acquisition (a lone write's is 1)
	LaneCommits   []Counter // per-lane committed write counts
}

// SizeLanes allocates the per-lane counters for n lanes.
func (e *Engine) SizeLanes(n int) {
	if e != nil {
		e.LaneCommits = make([]Counter, n)
	}
}

// Read records one read-only transaction.
func (e *Engine) Read() {
	if e != nil {
		e.Reads.Inc()
	}
}

// Admit records a run of n writes committed under the lane set ls, with the
// lock-to-publish latency d.
func (e *Engine) Admit(ls []int, n int, d time.Duration) {
	if e == nil {
		return
	}
	e.Admitted.Add(int64(n))
	e.CommitLatency.Observe(d.Nanoseconds())
	for _, lane := range ls {
		if lane >= 0 && lane < len(e.LaneCommits) {
			e.LaneCommits[lane].Add(int64(n))
		}
	}
}

// CASRetry records one lost snapshot-publication race.
func (e *Engine) CASRetry() {
	if e != nil {
		e.CASRetries.Inc()
	}
}

// CrossLaneAcq records an admission whose lane set spans >1 lane.
func (e *Engine) CrossLaneAcq() {
	if e != nil {
		e.CrossLane.Inc()
	}
}

// Run records the length of one same-lane-set run split out of a batch.
func (e *Engine) Run(n int) {
	if e != nil {
		e.BatchRuns.Observe(int64(n))
	}
}

// EngineSnapshot is the engine section of a Snapshot.
type EngineSnapshot struct {
	Reads         int64             `json:"reads"`
	Admitted      int64             `json:"admitted"`
	CASRetries    int64             `json:"cas_retries"`
	CrossLane     int64             `json:"cross_lane"`
	CommitLatency HistogramSnapshot `json:"commit_latency_ns"`
	BatchRuns     HistogramSnapshot `json:"batch_runs"`
	LaneCommits   []int64           `json:"lane_commits,omitempty"`
}

// Snapshot copies the engine metrics. Safe on nil (returns zeros).
func (e *Engine) Snapshot() EngineSnapshot {
	var s EngineSnapshot
	if e == nil {
		return s
	}
	s.Reads = e.Reads.Load()
	s.Admitted = e.Admitted.Load()
	s.CASRetries = e.CASRetries.Load()
	s.CrossLane = e.CrossLane.Load()
	s.CommitLatency = e.CommitLatency.Snapshot()
	s.BatchRuns = e.BatchRuns.Snapshot()
	if len(e.LaneCommits) > 0 {
		s.LaneCommits = make([]int64, len(e.LaneCommits))
		for i := range e.LaneCommits {
			s.LaneCommits[i] = e.LaneCommits[i].Load()
		}
	}
	return s
}

// Archive instruments the durability layer (internal/archive): group
// commit and recovery.
type Archive struct {
	Appends      Counter   // versions (writes) appended to the log
	Bytes        Counter   // bytes written to the log (records + snapshots)
	Flushes      Counter   // log writes: one per flush, and a store flushes once per engine notifier batch
	Snapshots    Counter   // durable snapshots written
	FlushRecords Histogram // versions per log write (group-commit occupancy)
	FsyncLatency Histogram // fsync duration, ns
	RecoveryNS   Gauge     // duration of the last Open() replay, ns
}

// Buffered records the given versions entering the batch buffer.
func (a *Archive) Buffered(versions int) {
	if a != nil {
		a.Appends.Add(int64(versions))
	}
}

// Flushed records one log write of recs versions and n bytes.
func (a *Archive) Flushed(recs, bytes int) {
	if a == nil {
		return
	}
	a.Flushes.Inc()
	a.FlushRecords.Observe(int64(recs))
	a.Bytes.Add(int64(bytes))
}

// Fsync records one fsync of duration d.
func (a *Archive) Fsync(d time.Duration) {
	if a != nil {
		a.FsyncLatency.Observe(d.Nanoseconds())
	}
}

// SnapshotWritten records one durable snapshot of n bytes.
func (a *Archive) SnapshotWritten(bytes int) {
	if a == nil {
		return
	}
	a.Snapshots.Inc()
	a.Bytes.Add(int64(bytes))
}

// Recovered records the duration of a completed Open() replay.
func (a *Archive) Recovered(d time.Duration) {
	if a != nil {
		a.RecoveryNS.Set(d.Nanoseconds())
	}
}

// ArchiveSnapshot is the archive section of a Snapshot.
type ArchiveSnapshot struct {
	Appends      int64             `json:"appends"`
	Bytes        int64             `json:"bytes"`
	Flushes      int64             `json:"flushes"`
	Snapshots    int64             `json:"snapshots"`
	FlushRecords HistogramSnapshot `json:"flush_records"`
	FsyncLatency HistogramSnapshot `json:"fsync_latency_ns"`
	RecoveryNS   int64             `json:"recovery_ns"`
}

// Snapshot copies the archive metrics. Safe on nil.
func (a *Archive) Snapshot() ArchiveSnapshot {
	var s ArchiveSnapshot
	if a == nil {
		return s
	}
	s.Appends = a.Appends.Load()
	s.Bytes = a.Bytes.Load()
	s.Flushes = a.Flushes.Load()
	s.Snapshots = a.Snapshots.Load()
	s.FlushRecords = a.FlushRecords.Snapshot()
	s.FsyncLatency = a.FsyncLatency.Snapshot()
	s.RecoveryNS = a.RecoveryNS.Load()
	return s
}

// Session instruments the statement batcher (internal/session).
type Session struct {
	Statements Counter   // statements submitted through sessions
	Flushes    Counter   // adaptive-batch flushes
	FlushDepth Histogram // statements per flush (pipeline depth seen)
}

// Flush records one batch flush of n statements.
func (s *Session) Flush(n int) {
	if s == nil {
		return
	}
	s.Statements.Add(int64(n))
	s.Flushes.Inc()
	s.FlushDepth.Observe(int64(n))
}

// SessionSnapshot is the session section of a Snapshot.
type SessionSnapshot struct {
	Statements int64             `json:"statements"`
	Flushes    int64             `json:"flushes"`
	FlushDepth HistogramSnapshot `json:"flush_depth"`
}

// Snapshot copies the session metrics. Safe on nil.
func (s *Session) Snapshot() SessionSnapshot {
	var out SessionSnapshot
	if s == nil {
		return out
	}
	out.Statements = s.Statements.Load()
	out.Flushes = s.Flushes.Load()
	out.FlushDepth = s.FlushDepth.Snapshot()
	return out
}

// Server instruments the wire front-end (internal/server): connections,
// request counts and response latency (request read off the socket →
// response bytes handed to the writer) by request shape. Every statement
// arrives in one frame type, a Request; its shape is whether the sender
// tagged it and how many statements it carries.
type Server struct {
	ConnsTotal     Counter   // connections accepted over the server's life
	Conns          Gauge     // connections open now
	Execs          Counter   // untagged one-statement requests
	Batches        Counter   // untagged requests of any other statement count
	Forwards       Counter   // tagged requests (cluster clients and peers)
	Subscribes     Counter   // replication-stream subscriptions
	StatsReqs      Counter   // metrics-snapshot introspection requests
	PreparedExecs  Counter   // requests carrying a statement by text hash
	UnknownStmts   Counter   // statements answered with ErrUnknownStmt (an unknown hash sent without text)
	ReqPerConn     Histogram // requests served per connection, at close
	LatencyExec    Histogram // untagged one-statement request latency, ns
	LatencyBatch   Histogram // untagged request latency for any other statement count, ns
	LatencyForward Histogram // tagged request latency, ns
}

// ServerSnapshot is the server section of a Snapshot.
type ServerSnapshot struct {
	ConnsTotal     int64             `json:"conns_total"`
	Conns          int64             `json:"conns"`
	Execs          int64             `json:"execs"`
	Batches        int64             `json:"batches"`
	Forwards       int64             `json:"forwards"`
	Subscribes     int64             `json:"subscribes"`
	StatsReqs      int64             `json:"stats_reqs"`
	PreparedExecs  int64             `json:"prepared_execs"`
	UnknownStmts   int64             `json:"unknown_stmts"`
	ReqPerConn     HistogramSnapshot `json:"req_per_conn"`
	LatencyExec    HistogramSnapshot `json:"latency_exec_ns"`
	LatencyBatch   HistogramSnapshot `json:"latency_batch_ns"`
	LatencyForward HistogramSnapshot `json:"latency_forward_ns"`
}

// Snapshot copies the server metrics. Safe on nil.
func (m *Server) Snapshot() ServerSnapshot {
	var s ServerSnapshot
	if m == nil {
		return s
	}
	s.ConnsTotal = m.ConnsTotal.Load()
	s.Conns = m.Conns.Load()
	s.Execs = m.Execs.Load()
	s.Batches = m.Batches.Load()
	s.Forwards = m.Forwards.Load()
	s.Subscribes = m.Subscribes.Load()
	s.StatsReqs = m.StatsReqs.Load()
	s.PreparedExecs = m.PreparedExecs.Load()
	s.UnknownStmts = m.UnknownStmts.Load()
	s.ReqPerConn = m.ReqPerConn.Snapshot()
	s.LatencyExec = m.LatencyExec.Snapshot()
	s.LatencyBatch = m.LatencyBatch.Snapshot()
	s.LatencyForward = m.LatencyForward.Snapshot()
	return s
}

// Cluster instruments a cluster node's routing layer (internal/cluster).
type Cluster struct {
	Forwards     Counter // forward calls sent to peers
	ForwardStmts Counter // statements carried by those forwards
	Redirects    Counter // redirects received from peers

	// Failover instrumentation (zero without a FailoverConfig).
	Promotions        Counter   // slots this node promoted itself into
	FencingRejections Counter   // forwards refused for carrying a stale epoch
	HeartbeatRTT      Histogram // heartbeat round-trip time, per ack
}

// Forwarded records one forward call carrying n statements.
func (c *Cluster) Forwarded(n int) {
	if c == nil {
		return
	}
	c.Forwards.Inc()
	c.ForwardStmts.Add(int64(n))
}

// Redirected records one redirect received.
func (c *Cluster) Redirected() {
	if c != nil {
		c.Redirects.Inc()
	}
}

// ClusterSnapshot is the cluster section of a Snapshot.
type ClusterSnapshot struct {
	Forwards     int64 `json:"forwards"`
	ForwardStmts int64 `json:"forward_stmts"`
	Redirects    int64 `json:"redirects"`

	// The slot table: per-slot epochs and serving owners as this node
	// believes them (epoch 0 and owner = slot on a static cluster), plus
	// the promotion and fencing counters and the heartbeat round-trip
	// histogram that only failover moves.
	Promotions        int64             `json:"promotions,omitempty"`
	FencingRejections int64             `json:"fencing_rejections,omitempty"`
	Epochs            []uint64          `json:"epochs,omitempty"`
	Owners            []int             `json:"owners,omitempty"`
	HeartbeatRTT      HistogramSnapshot `json:"heartbeat_rtt_ns"`
}

// Snapshot copies the cluster metrics. Safe on nil. The failover vectors
// (Epochs, Owners) are stamped by the node, which owns that state.
func (c *Cluster) Snapshot() ClusterSnapshot {
	var s ClusterSnapshot
	if c == nil {
		return s
	}
	s.Forwards = c.Forwards.Load()
	s.ForwardStmts = c.ForwardStmts.Load()
	s.Redirects = c.Redirects.Load()
	s.Promotions = c.Promotions.Load()
	s.FencingRejections = c.FencingRejections.Load()
	s.HeartbeatRTT = c.HeartbeatRTT.Snapshot()
	return s
}

// PeerSnapshot describes one remote peer as seen from this node: outbound
// forwarding and the inbound replication stream mirrored from it.
type PeerSnapshot struct {
	Peer int    `json:"peer"`
	Addr string `json:"addr"`
	// ForwardFrames counts forward frames sent to this peer; Dials counts
	// (re)connects of the forwarding connection.
	ForwardFrames int64 `json:"forward_frames"`
	Dials         int64 `json:"dials"`
	// ReplicaApplied is the last primary sequence applied to the local
	// mirror of this peer; primary seq − ReplicaApplied is the replication
	// lag. ReplicaRecords counts log records applied; ReplicaConnects
	// counts subscription (re)connects; ReplicaResyncs counts the
	// subscriptions refused as ahead of the peer's durable log, each
	// answered by installing the peer's snapshot.
	ReplicaApplied  int64 `json:"replica_applied"`
	ReplicaRecords  int64 `json:"replica_records"`
	ReplicaConnects int64 `json:"replica_connects"`
	ReplicaResyncs  int64 `json:"replica_resyncs"`
	// HeartbeatAgeMs is how long ago this peer's last heartbeat (or ack)
	// arrived, in milliseconds; -1 when no heartbeat has ever been seen
	// (or failover is off). Ages beyond the lease mean the peer is
	// presumed dead.
	HeartbeatAgeMs float64 `json:"heartbeat_age_ms"`
	// AppliedLag is how many of THIS node's committed versions the peer has
	// not yet applied to its mirror (per the peer's last heartbeat): the
	// data this node would strand if it died right now, and therefore the
	// peer's fitness as a promotion winner. -1 when unknown.
	AppliedLag int64 `json:"applied_lag"`
}

// SharingSnapshot is the structure-sharing evidence from the functional
// representation (eval.Stats): the paper's Section 3 argument in numbers.
type SharingSnapshot struct {
	NodesCreated int64 `json:"nodes_created"`
	NodesShared  int64 `json:"nodes_shared"`
	NodesVisited int64 `json:"nodes_visited"`
}

// Snapshot is one node's full metrics state: every instrumented layer,
// plain data, JSON-encodable. Sections a node does not run (archive on a
// memory-only store, cluster on a single node) are nil pointers and omit
// themselves from JSON.
type Snapshot struct {
	Origin  string `json:"origin,omitempty"`
	Version int64  `json:"version"`
	Lanes   int    `json:"lanes"`
	Durable bool   `json:"durable"`

	Engine  EngineSnapshot  `json:"engine"`
	Session SessionSnapshot `json:"session"`
	Sharing SharingSnapshot `json:"sharing"`

	Archive *ArchiveSnapshot `json:"archive,omitempty"`
	Server  *ServerSnapshot  `json:"server,omitempty"`
	Cluster *ClusterSnapshot `json:"cluster,omitempty"`
	Peers   []PeerSnapshot   `json:"peers,omitempty"`
	Trace   *TraceSnapshot   `json:"trace,omitempty"`
	Runtime *RuntimeSnapshot `json:"runtime,omitempty"`
}

// TraceSnapshot is the request-trace recorder's own accounting, present
// when tracing is enabled: how many traces were opened, how many the
// head sampler admitted to the ring, how many the slow reservoir kept,
// and how many arrived as a propagated wire context from another node.
type TraceSnapshot struct {
	Started    int64 `json:"started"`
	Sampled    int64 `json:"sampled"`
	Slow       int64 `json:"slow"`
	Propagated int64 `json:"propagated"`
}

// fmtDur renders a nanosecond metric as a rounded duration.
func fmtDur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond / 10).String()
}

// fmtLatency renders a latency histogram's headline numbers.
func fmtLatency(h HistogramSnapshot) string {
	return fmt.Sprintf("n=%d p50=%s p99=%s p999=%s mean=%s",
		h.Count, fmtDur(h.P50), fmtDur(h.P99), fmtDur(h.P999), fmtDur(int64(h.Mean())))
}

// fmtSizes renders a size/count histogram's headline numbers.
func fmtSizes(h HistogramSnapshot) string {
	return fmt.Sprintf("n=%d p50=%d p99=%d max≤%d mean=%.1f",
		h.Count, h.P50, h.P99, upperBound(h), h.Mean())
}

func upperBound(h HistogramSnapshot) int64 {
	_, hi := bucketBounds(len(h.Buckets) - 1)
	return hi
}

// Format renders the snapshot as the human-readable report fdbrepl's
// .stats prints.
func (s Snapshot) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "origin=%s version=%d lanes=%d durable=%v\n", s.Origin, s.Version, s.Lanes, s.Durable)
	fmt.Fprintf(&b, "engine: reads=%d admitted=%d cas_retries=%d cross_lane=%d\n",
		s.Engine.Reads, s.Engine.Admitted, s.Engine.CASRetries, s.Engine.CrossLane)
	fmt.Fprintf(&b, "  commit latency: %s\n", fmtLatency(s.Engine.CommitLatency))
	if s.Engine.BatchRuns.Count > 0 {
		fmt.Fprintf(&b, "  batch runs:     %s\n", fmtSizes(s.Engine.BatchRuns))
	}
	if n := len(s.Engine.LaneCommits); n > 0 {
		// Lanes sorted by traffic, busiest first, capped to keep the
		// report one screen at 64 lanes.
		type laneCount struct {
			lane    int
			commits int64
		}
		lanes := make([]laneCount, 0, n)
		for i, c := range s.Engine.LaneCommits {
			if c > 0 {
				lanes = append(lanes, laneCount{i, c})
			}
		}
		sort.Slice(lanes, func(i, j int) bool { return lanes[i].commits > lanes[j].commits })
		fmt.Fprintf(&b, "  lanes active:   %d/%d", len(lanes), n)
		for i, lc := range lanes {
			if i == 8 {
				fmt.Fprintf(&b, " …")
				break
			}
			fmt.Fprintf(&b, " L%d:%d", lc.lane, lc.commits)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "session: statements=%d flushes=%d  depth: %s\n",
		s.Session.Statements, s.Session.Flushes, fmtSizes(s.Session.FlushDepth))
	fmt.Fprintf(&b, "sharing: created=%d shared=%d visited=%d\n",
		s.Sharing.NodesCreated, s.Sharing.NodesShared, s.Sharing.NodesVisited)
	if a := s.Archive; a != nil {
		fmt.Fprintf(&b, "archive: appends=%d bytes=%d flushes=%d snapshots=%d recovery=%s\n",
			a.Appends, a.Bytes, a.Flushes, a.Snapshots, fmtDur(a.RecoveryNS))
		if a.FsyncLatency.Count > 0 {
			fmt.Fprintf(&b, "  fsync latency:  %s\n", fmtLatency(a.FsyncLatency))
		}
		if a.FlushRecords.Count > 0 {
			fmt.Fprintf(&b, "  versions/write: %s\n", fmtSizes(a.FlushRecords))
		}
	}
	if sv := s.Server; sv != nil {
		fmt.Fprintf(&b, "server: conns=%d/%d execs=%d batches=%d forwards=%d subs=%d stats=%d\n",
			sv.Conns, sv.ConnsTotal, sv.Execs, sv.Batches, sv.Forwards, sv.Subscribes, sv.StatsReqs)
		if sv.PreparedExecs > 0 || sv.UnknownStmts > 0 {
			fmt.Fprintf(&b, "  prepared: execs=%d unknown_stmts=%d\n", sv.PreparedExecs, sv.UnknownStmts)
		}
		if sv.LatencyExec.Count > 0 {
			fmt.Fprintf(&b, "  exec latency:    %s\n", fmtLatency(sv.LatencyExec))
		}
		if sv.LatencyBatch.Count > 0 {
			fmt.Fprintf(&b, "  batch latency:   %s\n", fmtLatency(sv.LatencyBatch))
		}
		if sv.LatencyForward.Count > 0 {
			fmt.Fprintf(&b, "  forward latency: %s\n", fmtLatency(sv.LatencyForward))
		}
	}
	if c := s.Cluster; c != nil {
		fmt.Fprintf(&b, "cluster: forwards=%d fwd_stmts=%d redirects=%d\n",
			c.Forwards, c.ForwardStmts, c.Redirects)
		if len(c.Epochs) > 0 {
			fmt.Fprintf(&b, "  slots: epochs=%v owners=%v promotions=%d fencing_rejections=%d\n",
				c.Epochs, c.Owners, c.Promotions, c.FencingRejections)
			if c.HeartbeatRTT.Count > 0 {
				fmt.Fprintf(&b, "  heartbeat rtt:   %s\n", fmtLatency(c.HeartbeatRTT))
			}
		}
	}
	for _, p := range s.Peers {
		fmt.Fprintf(&b, "  peer %d %s: fwd_frames=%d dials=%d replica_applied=%d records=%d connects=%d resyncs=%d",
			p.Peer, p.Addr, p.ForwardFrames, p.Dials, p.ReplicaApplied, p.ReplicaRecords, p.ReplicaConnects, p.ReplicaResyncs)
		if p.HeartbeatAgeMs >= 0 {
			fmt.Fprintf(&b, " hb_age=%.0fms lag=%d", p.HeartbeatAgeMs, p.AppliedLag)
		}
		fmt.Fprintf(&b, "\n")
	}
	if t := s.Trace; t != nil {
		fmt.Fprintf(&b, "trace: started=%d sampled=%d slow=%d propagated=%d\n",
			t.Started, t.Sampled, t.Slow, t.Propagated)
	}
	if rt := s.Runtime; rt != nil {
		fmt.Fprintf(&b, "runtime: heap=%d goroutines=%d gc=%d pause=%s mallocs=%d\n",
			rt.HeapAllocBytes, rt.Goroutines, rt.NumGC, fmtDur(int64(rt.GCPauseTotalNs)), rt.Mallocs)
	}
	return b.String()
}
