// Package session is the transport-agnostic execution layer between a
// client (a REPL, a network connection, the public Store API) and the
// admission pipeline. One Session owns what used to be duplicated between
// funcdb.Store's Exec methods and cmd/fdbrepl:
//
//   - a prepared-statement cache (query.StmtCache): each distinct
//     statement template — a query text modulo its literals — is parsed
//     once per session scope, and a committed `create` invalidates cached
//     statements touching the new relation;
//   - origin/sequence tagging: every statement the session admits carries
//     the session's origin and a dense per-session sequence number, so a
//     connection's response stream is deterministic regardless of how
//     other sessions interleave with it;
//   - pipelined submission: Queue turns a statement into a response
//     future immediately without submitting it, and Flush admits every
//     queued statement in ONE batched arbitration (Submitter.SubmitTagged
//     → Engine.SubmitBatch), so one network read's worth of requests
//     becomes one lane-split admission. Forcing any queued future flushes
//     first; responses are forced in submission order by the callers that
//     need ordering (the wire server, ExecBatch).
//
// The session is the paper's stream-merge client made explicit: it
// assembles a tagged transaction stream and hands it to the merge point
// in batches, instead of one call at a time.
package session

import (
	"fmt"
	"sync"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/lenient"
	"funcdb/internal/metrics"
	"funcdb/internal/query"
	"funcdb/internal/reqtrace"
)

// Future is an unresolved response, as the engine returns it.
type Future = lenient.Cell[core.Response]

// Submitter is the admission surface a session executes against: a batch
// of fully tagged transactions admitted in one merge arbitration, with
// the response future of txs[i] stored into futs[i] (the caller passes
// len(futs) == len(txs)). funcdb.Store implements it over the
// sharded-lane engine; tests implement it in-memory.
//
// SubmitTagged must NOT retain either slice past its return: the session
// reuses both for the next flush (transactions themselves are values —
// copying an element is fine, keeping the slice is not). Every in-tree
// implementation either consumes the batch synchronously or copies what
// it defers.
type Submitter interface {
	SubmitTagged(txs []core.Transaction, futs []*Future)
}

// BatchError reports which statement of a batch failed to translate or
// bind. Batches are all-or-nothing: nothing was submitted.
type BatchError struct {
	// Index is the position of the failing statement within the batch.
	Index int
	// Query is the failing statement's source text.
	Query string
	// Err is the underlying translation or bind error.
	Err error
}

// Error renders the failure with its batch position.
func (e *BatchError) Error() string { return fmt.Sprintf("batch query %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// Option configures New.
type Option func(*Session)

// WithOrigin sets the tag attached to the session's transactions (filled
// in only when a queued transaction carries none).
func WithOrigin(origin string) Option {
	return func(s *Session) { s.origin = origin }
}

// WithSeqs supplies the sequence allocator: next(n) must return the first
// of n consecutive fresh sequence numbers. The default is a private
// per-session counter starting at 0; funcdb.Store shares its store-wide
// counter so transaction-level Submit and session-level Exec draw from
// one tag space.
func WithSeqs(next func(n int) int) Option {
	return func(s *Session) { s.nextSeqs = next }
}

// WithMetrics records flush metrics into m — statement counts and the
// per-flush pipeline depth. Nil (the default) records nothing. Sessions
// over one store conventionally share one *metrics.Session, so the depth
// histogram describes the store's whole admission feed.
func WithMetrics(m *metrics.Session) Option {
	return func(s *Session) { s.metrics = m }
}

// WithCache shares a statement cache (e.g. one store-wide cache across
// many sessions). The default gives the session a private cache.
func WithCache(c *query.StmtCache) Option {
	return func(s *Session) { s.cache = c }
}

// pendingStmt is one queued-but-not-yet-admitted statement. fut is nil
// until the flush that admits it. tagged marks a statement whose
// Origin/Seq were assigned elsewhere (a forwarded cluster statement):
// flush must submit it verbatim instead of drawing from this session's
// tag space, so the response carries the tag the originating client
// expects.
//
// A queued statement is its own future: queued is the cell Queue hands
// out, suspended on the statement itself (Eval), so queueing allocates
// the statement and nothing else. Statements admitted on the spot
// (ExecAsync, ExecBatch) leave queued and s unused.
type pendingStmt struct {
	queued Future
	s      *Session
	tx     core.Transaction
	fut    *Future
	tagged bool
	// at is the enqueue instant, read only when the transaction carries a
	// trace handle (an untraced statement never touches the clock here):
	// the flush turns it into the session-queue span.
	at time.Time
}

// Session is one client's execution context. Safe for concurrent use;
// statements queued concurrently flush together in queue order.
type Session struct {
	sub      Submitter
	origin   string
	nextSeqs func(n int) int
	cache    *query.StmtCache
	metrics  *metrics.Session

	mu      sync.Mutex
	seq     int // default allocator state (when nextSeqs is private)
	pending []*pendingStmt
	// txScratch and futScratch are the flush's reused submission and
	// result slices — the load profile's top session-layer allocation
	// sites. Safe because Submitter.SubmitTagged must not retain them.
	txScratch  []core.Transaction
	futScratch []*Future
	// execStmt is ExecAsync's pending statement: it is queued and flushed
	// within one critical section, so it never needs to outlive one.
	execStmt pendingStmt
	// createScratch collects relations created by a flush (almost always
	// empty) without allocating.
	createScratch []string
}

// New opens a session over a submitter.
func New(sub Submitter, opts ...Option) *Session {
	s := &Session{sub: sub, origin: "session"}
	for _, opt := range opts {
		opt(s)
	}
	if s.nextSeqs == nil {
		s.nextSeqs = s.ownSeqs
	}
	if s.cache == nil {
		s.cache = query.NewStmtCache(0)
	}
	return s
}

// ownSeqs is the default sequence allocator. Callers hold s.mu (flush is
// the only allocation site).
func (s *Session) ownSeqs(n int) int {
	first := s.seq
	s.seq += n
	return first
}

// Cache returns the session's statement cache (for stats surfaces).
func (s *Session) Cache() *query.StmtCache { return s.cache }

// Prepare returns the cached prepared form of src, caching it on a miss so
// that PreparedByHash(query.HashText(src)) resolves from then on.
func (s *Session) Prepare(src string) (*query.Prepared, error) {
	return s.cache.Get(src)
}

// PreparedByHash resolves a statement by the FNV-1a hash of its text —
// the wire's prepared-request hot path, one map probe. The cache is the
// session's (store- or node-wide), so a hash prepared over one connection
// resolves on every connection to the same store. ok is false once the
// entry has been evicted or invalidated; callers must answer with
// query.ErrUnknownStmt, never a stale plan.
func (s *Session) PreparedByHash(h uint64) (*query.Prepared, bool) {
	return s.cache.ByHash(h)
}

// Translate turns a symbolic query into an untagged transaction through
// the statement cache: parse once per template (the text with its
// literals taken out), bind the literals. A query with '?' placeholders
// cannot execute directly and reports its arity here.
func (s *Session) Translate(src string) (core.Transaction, error) {
	return s.cache.Translate(src)
}

// Queue translates q and enqueues it without admitting it, returning a
// response future immediately. The statement is admitted by the next
// Flush — or implicitly when the returned future is forced, so a client
// may queue a pipeline of statements and force the responses in order.
func (s *Session) Queue(q string) (*Future, error) {
	tx, err := s.Translate(q)
	if err != nil {
		return nil, err
	}
	return s.QueueTx(tx), nil
}

// QueueTx enqueues an already-constructed transaction, returning its
// response future immediately (see Queue).
func (s *Session) QueueTx(tx core.Transaction) *Future {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queueLocked(tx, false)
}

// QueueTagged enqueues a transaction whose Origin/Seq tags are already
// final — the routing hook the cluster's forward path uses: a statement
// tagged by the gateway's session executes here with that exact tag
// (and never consumes one of this session's sequence numbers), so its
// response is byte-identical to local execution at the gateway. The
// statement still rides this session's pipeline: it is admitted by the
// next Flush, batched with whatever else is queued, and a queued create
// still invalidates the statement cache.
func (s *Session) QueueTagged(tx core.Transaction) *Future {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queueLocked(tx, true)
}

// queueLocked appends tx to the pending pipeline and returns a future
// that flushes the pipeline on demand. Must hold s.mu.
func (s *Session) queueLocked(tx core.Transaction, tagged bool) *Future {
	ps := &pendingStmt{s: s, tx: tx, tagged: tagged}
	if tx.Trace != nil {
		ps.at = time.Now()
	}
	s.pending = append(s.pending, ps)
	return ps.queued.Suspend(ps)
}

// Eval implements lenient.Thunk for a queued statement's future: admit
// the pipeline if this statement is still in it, then wait for the
// engine's response.
func (ps *pendingStmt) Eval(r *core.Response) {
	s := ps.s
	s.mu.Lock()
	if ps.fut == nil {
		s.flushLocked()
	}
	fut := ps.fut
	s.mu.Unlock()
	*r = fut.Force()
}

// Pending returns the number of queued, not yet admitted statements.
func (s *Session) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Flush admits every queued statement in one batched arbitration. A
// no-op with an empty pipeline.
func (s *Session) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
}

// flushLocked tags and submits the pending pipeline. Must hold s.mu.
// Pre-tagged statements (QueueTagged) keep their tags; the session's
// sequence allocator covers only the untagged ones, so a forwarded
// statement passing through never perturbs this session's tag space.
func (s *Session) flushLocked() {
	if len(s.pending) == 0 {
		return
	}
	s.metrics.Flush(len(s.pending))
	// Session-queue spans: how long each traced statement sat in the
	// pipeline before this flush. One request's statements share a trace
	// handle, so consecutive duplicates record once.
	var lastTr *reqtrace.T
	var flushAt time.Time
	for _, ps := range s.pending {
		if tr := ps.tx.Trace; tr != nil && tr != lastTr && !ps.at.IsZero() {
			if flushAt.IsZero() {
				flushAt = time.Now()
			}
			tr.Span(reqtrace.StageSessionQueue, ps.at, flushAt)
			lastTr = tr
		}
	}
	if cap(s.txScratch) < len(s.pending) {
		s.txScratch = make([]core.Transaction, len(s.pending))
	}
	txs := s.txScratch[:len(s.pending)]
	untagged := 0
	for _, ps := range s.pending {
		if !ps.tagged {
			untagged++
		}
	}
	next := 0
	if untagged > 0 {
		next = s.nextSeqs(untagged)
	}
	created := s.createScratch[:0]
	for i, ps := range s.pending {
		tx := ps.tx
		if !ps.tagged {
			if tx.Origin == "" {
				tx.Origin = s.origin
			}
			tx.Seq = next
			next++
		}
		if tx.Kind == core.KindCreate {
			created = append(created, tx.Rel)
		}
		txs[i] = tx
	}
	if cap(s.futScratch) < len(txs) {
		s.futScratch = make([]*Future, len(txs))
	}
	futs := s.futScratch[:len(txs)]
	s.sub.SubmitTagged(txs, futs)
	for i, ps := range s.pending {
		ps.fut = futs[i]
	}
	clear(futs) // the statements own their futures now
	s.pending = s.pending[:0]
	s.createScratch = created[:0]
	// A submitted create changes the directory: drop cached statements
	// touching the new relation so no retained translation can straddle
	// the directory change.
	for _, rel := range created {
		s.cache.InvalidateRel(rel)
	}
}

// ExecAsync translates and admits a single statement now (flushing any
// queued pipeline with it — one arbitration), returning the response
// future: the submitter's, so over a durable store it resolves once the
// answer is on disk.
func (s *Session) ExecAsync(q string) (*Future, error) {
	tx, err := s.Translate(q)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.execStmt.tx = tx // fresh from Translate: no trace handle, so no enqueue instant
	s.pending = append(s.pending, &s.execStmt)
	s.flushLocked()
	fut := s.execStmt.fut
	s.mu.Unlock()
	return fut, nil
}

// Exec translates, admits and waits for the response.
func (s *Session) Exec(q string) (core.Response, error) {
	fut, err := s.ExecAsync(q)
	if err != nil {
		return core.Response{}, err
	}
	return fut.Force(), nil
}

// ExecBatch translates a slice of queries, admits them all in one merge
// arbitration, and waits for every response. Translation is
// all-or-nothing: a failure anywhere reports a *BatchError carrying the
// failing statement's index, and nothing is submitted.
func (s *Session) ExecBatch(queries []string) ([]core.Response, error) {
	txs := make([]core.Transaction, len(queries))
	for i, q := range queries {
		tx, err := s.Translate(q)
		if err != nil {
			return nil, &BatchError{Index: i, Query: q, Err: err}
		}
		txs[i] = tx
	}
	s.mu.Lock()
	stmts := make([]pendingStmt, len(txs))
	for i, tx := range txs {
		ps := &stmts[i]
		ps.tx = tx
		if tx.Trace != nil {
			ps.at = time.Now()
		}
		s.pending = append(s.pending, ps)
	}
	s.flushLocked()
	s.mu.Unlock()

	out := make([]core.Response, len(stmts))
	for i := range stmts {
		out[i] = stmts[i].fut.Force()
	}
	return out, nil
}
