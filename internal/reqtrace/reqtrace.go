// Package reqtrace records per-request span timelines across the
// distributed request path: the observability counterpart to
// internal/metrics' aggregate histograms. A metrics histogram says the
// p99 is 30× the p50; a trace says WHERE one slow request spent it — in
// the lane lock, the group-commit fsync, the forward hop, or the wire.
//
// The design mirrors the metrics discipline:
//
//   - Disabled is free. A nil *Recorder and a nil *T are both valid
//     receivers; every recording method is one pointer comparison and
//     zero allocations when tracing is off.
//   - Enabled is cheap. Every request gets one heap-allocated trace
//     handle (*T) with a fixed inline span array — recording a span is
//     a mutex'd array write, no allocation — so the always-keep slow
//     reservoir can catch ANY slow request, not just head-sampled ones.
//   - Publication is sampled. A completed trace is admitted to the ring
//     buffer only when head sampling picked it (default 1 in 1024) or it
//     ran over the slow threshold (default 10ms, kept in a separate
//     reservoir that head samples can never evict).
//
// Cross-node stitching is by trace id: the wire's TraceCtx frame carries
// (id, hop, sampled) to the owning primary and on to the mirror, each
// node records its own spans under the shared id, and the renderer
// (Render) merges the per-node timelines into one hop tree.
package reqtrace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage tags one span with the pipeline step it measures.
type Stage uint8

// The stage catalogue, in pipeline order. Client-side stages come first
// (recorded by traced load drivers), then the server request path, the
// engine, the archive, and the cross-node hops.
const (
	StageClientDial       Stage = iota // client: TCP dial + handshake
	StageClientSend                    // client: request sent → response decoded
	StageConnRead                      // server: blocking read of the request frame
	StageDecode                        // server: frame payload → transactions
	StageSessionQueue                  // session: queued → flushed into one batch
	StagePlan                          // engine: a lock-free read's planning (a write's is inside lane-commit)
	StageLaneWait                      // engine: waiting to acquire the lane locks
	StageLaneCommit                    // engine: lane locks held → snapshot published
	StageGroupCommitFsync              // archive: commit buffered → group flush (+fsync) done
	StageEncode                        // server: response forced + encoded into the out buffer
	StageFlush                         // server: out buffer handed to the socket
	StageForwardHop                    // gateway: forward frame sent → peer reply arrived
	StageReplicaApply                  // mirror: log record decoded → applied to the replica
	numStages
)

var stageNames = [numStages]string{
	"client-dial", "client-send",
	"conn-read", "decode", "session-queue",
	"plan", "lane-wait", "lane-commit", "group-commit-fsync",
	"encode", "flush",
	"forward-hop", "replica-apply",
}

// String returns the stage's catalogue name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage-?"
}

// StageByName resolves a catalogue name back to its Stage; ok reports
// whether the name is known.
func StageByName(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// Ctx is the trace context that crosses the wire: a TraceCtx frame
// decoded into Go. The zero Ctx (ID 0) means "not traced".
type Ctx struct {
	ID      uint64 // trace id, shared by every node's spans
	Hop     uint8  // distance from the client: 0 = first server, +1 per hop
	Sampled bool   // head-sampled at the origin: every node keeps the trace
}

// Valid reports whether the context names a trace.
func (c Ctx) Valid() bool { return c.ID != 0 }

// MaxSpans bounds the inline span array of one trace handle. Spans past
// the cap are counted in Dropped, never recorded — a trace is a fixed-
// size object so recording can never allocate.
const MaxSpans = 24

// span is one recorded stage interval.
type span struct {
	stage Stage
	start int64 // unix nanoseconds
	dur   int64 // nanoseconds
}

// T is one live trace: the handle threaded through the request path
// (server reply, core.Transaction, archive pending list). All methods
// are nil-safe; recording on a nil *T is the disabled path and costs one
// comparison. A *T is safe for concurrent use — server goroutine, engine
// and the archive's flusher may record spans at the same time.
type T struct {
	id      uint64
	hop     uint8
	sampled bool  // head-sampled (locally or at the origin): publish to the ring
	start   int64 // unix ns at Start/StartCtx
	rec     *Recorder

	mu      sync.Mutex
	n       int
	spans   [MaxSpans]span
	dropped int
	total   int64 // set at Finish; later spans may still extend the timeline
	done    bool
}

// Ctx returns the wire context for propagating this trace to the next
// hop. Nil-safe: a nil trace yields the zero (untraced) context.
func (t *T) Ctx() Ctx {
	if t == nil {
		return Ctx{}
	}
	return Ctx{ID: t.id, Hop: t.hop, Sampled: t.sampled}
}

// ID returns the trace id (0 on nil).
func (t *T) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Sampled reports whether the trace was head-sampled — the bit that
// decides wire propagation and ring admission. Nil-safe.
func (t *T) Sampled() bool { return t != nil && t.sampled }

// Span records one completed stage interval. Nil-safe and allocation-
// free: the span lands in the handle's inline array (or bumps the
// dropped counter past MaxSpans).
func (t *T) Span(st Stage, start, end time.Time) {
	if t == nil {
		return
	}
	t.SpanNS(st, start.UnixNano(), end.Sub(start).Nanoseconds())
}

// SpanNS is Span on pre-read clocks: start in unix nanoseconds, dur in
// nanoseconds. Negative durations clamp to zero (clock skew must not
// corrupt the timeline).
func (t *T) SpanNS(st Stage, startNS, durNS int64) {
	if t == nil {
		return
	}
	if durNS < 0 {
		durNS = 0
	}
	t.mu.Lock()
	if t.n < MaxSpans {
		t.spans[t.n] = span{stage: st, start: startNS, dur: durNS}
		t.n++
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Config tunes a Recorder. The zero value selects every default.
type Config struct {
	// SampleEvery head-samples one request in N for ring publication
	// (default 1024; 1 publishes every request).
	SampleEvery int
	// SlowThreshold is the always-keep bar: any trace whose total runtime
	// meets it lands in the slow reservoir regardless of sampling
	// (default 10ms; negative disables the reservoir).
	SlowThreshold time.Duration
	// Ring is the head-sampled ring capacity (default 256).
	Ring int
	// SlowRing is the slow reservoir capacity (default 64).
	SlowRing int
}

// Defaults for Config's zero fields.
const (
	DefaultSampleEvery   = 1024
	DefaultSlowThreshold = 10 * time.Millisecond
	DefaultRing          = 256
	DefaultSlowRing      = 64
)

// Recorder owns one node's trace buffers: the head-sampled ring and the
// slow reservoir. A nil Recorder is the disabled state — every method is
// nil-safe and free.
type Recorder struct {
	node        string
	sampleEvery uint64
	slowNS      int64 // 0 = reservoir disabled
	ctr         atomic.Uint64
	idState     atomic.Uint64

	mu         sync.Mutex
	ring       []*T // circular; newest at head-1
	head       int
	slowRing   []*T
	slowHead   int
	started    int64
	sampled    int64
	slow       int64
	propagated int64
}

// New builds a Recorder for one node (the name stamps every published
// trace, so merged cluster views attribute spans to hosts).
func New(node string, cfg Config) *Recorder {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	slowNS := cfg.SlowThreshold.Nanoseconds()
	if cfg.SlowThreshold < 0 {
		slowNS = 0
	}
	if cfg.Ring <= 0 {
		cfg.Ring = DefaultRing
	}
	if cfg.SlowRing <= 0 {
		cfg.SlowRing = DefaultSlowRing
	}
	r := &Recorder{
		node:        node,
		sampleEvery: uint64(cfg.SampleEvery),
		slowNS:      slowNS,
		ring:        make([]*T, 0, cfg.Ring),
		slowRing:    make([]*T, 0, cfg.SlowRing),
	}
	// Seed the id generator off the wall clock once, at construction;
	// ids only need to be distinct within a debugging session.
	r.idState.Store(uint64(time.Now().UnixNano()) | 1)
	return r
}

// Enabled reports whether tracing is on. Nil-safe — this is THE check
// every instrumentation site guards with.
func (r *Recorder) Enabled() bool { return r != nil }

// Node returns the recorder's node name ("" on nil).
func (r *Recorder) Node() string {
	if r == nil {
		return ""
	}
	return r.node
}

// nextID draws a fresh trace id (splitmix64 over an atomic counter:
// well-mixed, lock-free, never zero).
func (r *Recorder) nextID() uint64 {
	x := r.idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// Start opens a trace for a request that originated at this node,
// deciding head sampling here. Returns nil only on a nil recorder —
// when tracing is enabled every request is traced, so the slow
// reservoir sees everything; sampling gates ring publication and wire
// propagation, not recording.
func (r *Recorder) Start() *T {
	if r == nil {
		return nil
	}
	atomic.AddInt64(&r.started, 1)
	sampled := r.ctr.Add(1)%r.sampleEvery == 0
	return &T{
		id:      r.nextID(),
		sampled: sampled,
		start:   time.Now().UnixNano(),
		rec:     r,
	}
}

// StartCtx opens a trace continuing a propagated wire context at the
// next hop: same id, hop+1, the origin's sampling decision. An invalid
// context falls back to Start (the request reached us untraced).
func (r *Recorder) StartCtx(c Ctx) *T {
	if r == nil {
		return nil
	}
	if !c.Valid() {
		return r.Start()
	}
	atomic.AddInt64(&r.started, 1)
	if c.Sampled {
		atomic.AddInt64(&r.propagated, 1)
	}
	return &T{
		id:      c.ID,
		hop:     c.Hop + 1,
		sampled: c.Sampled,
		start:   time.Now().UnixNano(),
		rec:     r,
	}
}

// Finish completes the trace and runs admission: the slow reservoir for
// anything at or over the threshold, the ring for head samples,
// discard otherwise. Nil-safe on both receivers. The buffers hold the
// live handle and Traces() snapshots under its lock, so a span recorded
// after Finish still attaches.
func (r *Recorder) Finish(t *T) {
	if r == nil || t == nil {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.total = now - t.start
	isSlow := r.slowNS > 0 && t.total >= r.slowNS
	t.mu.Unlock()

	if !isSlow && !t.sampled {
		return
	}
	r.mu.Lock()
	if isSlow {
		atomic.AddInt64(&r.slow, 1)
		if len(r.slowRing) < cap(r.slowRing) {
			r.slowRing = append(r.slowRing, t)
		} else {
			r.slowRing[r.slowHead] = t
			r.slowHead = (r.slowHead + 1) % cap(r.slowRing)
		}
	} else {
		atomic.AddInt64(&r.sampled, 1)
		if len(r.ring) < cap(r.ring) {
			r.ring = append(r.ring, t)
		} else {
			r.ring[r.head] = t
			r.head = (r.head + 1) % cap(r.ring)
		}
	}
	r.mu.Unlock()
}

// SpanInfo is one published span: plain data, JSON-encodable.
type SpanInfo struct {
	Stage string `json:"stage"`
	Start int64  `json:"start_unix_ns"`
	Dur   int64  `json:"dur_ns"`
}

// Trace is one published trace: the document Traces() returns, the wire
// Introspect frame ships, and /debug/trace serves.
type Trace struct {
	ID      string     `json:"id"` // %016x — JSON numbers lose uint64 precision
	Node    string     `json:"node,omitempty"`
	Hop     int        `json:"hop"`
	Sampled bool       `json:"sampled,omitempty"`
	Slow    bool       `json:"slow,omitempty"`
	Start   int64      `json:"start_unix_ns"`
	Total   int64      `json:"total_ns"`
	Dropped int        `json:"dropped_spans,omitempty"`
	Spans   []SpanInfo `json:"spans"`
}

// publish copies a live handle into its published form under its lock.
func (t *T) publish(node string, slow bool) Trace {
	t.mu.Lock()
	out := Trace{
		ID:      FormatID(t.id),
		Node:    node,
		Hop:     int(t.hop),
		Sampled: t.sampled,
		Slow:    slow,
		Start:   t.start,
		Total:   t.total,
		Dropped: t.dropped,
		Spans:   make([]SpanInfo, t.n),
	}
	for i := 0; i < t.n; i++ {
		s := t.spans[i]
		out.Spans[i] = SpanInfo{Stage: s.stage.String(), Start: s.start, Dur: s.dur}
	}
	t.mu.Unlock()
	return out
}

// Traces snapshots both buffers, newest first, slow reservoir entries
// flagged. Nil-safe (returns nil).
func (r *Recorder) Traces() []Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ring := make([]*T, len(r.ring))
	head := r.head
	copy(ring, r.ring)
	slowRing := make([]*T, len(r.slowRing))
	slowHead := r.slowHead
	copy(slowRing, r.slowRing)
	r.mu.Unlock()

	out := make([]Trace, 0, len(ring)+len(slowRing))
	// Newest first: walk each circular buffer backwards from its head.
	for i := len(slowRing) - 1; i >= 0; i-- {
		out = append(out, slowRing[(i+slowHead)%len(slowRing)].publish(r.node, true))
	}
	for i := len(ring) - 1; i >= 0; i-- {
		out = append(out, ring[(i+head)%len(ring)].publish(r.node, false))
	}
	return out
}

// Stats is the recorder's own accounting, for the metrics snapshot.
type Stats struct {
	Started    int64 `json:"started"`    // traces opened (≈ requests while enabled)
	Sampled    int64 `json:"sampled"`    // admitted to the ring by head sampling
	Slow       int64 `json:"slow"`       // admitted to the slow reservoir
	Propagated int64 `json:"propagated"` // opened from a sampled wire context
}

// Stats reads the counters. Nil-safe (zeros).
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	return Stats{
		Started:    atomic.LoadInt64(&r.started),
		Sampled:    atomic.LoadInt64(&r.sampled),
		Slow:       atomic.LoadInt64(&r.slow),
		Propagated: atomic.LoadInt64(&r.propagated),
	}
}
