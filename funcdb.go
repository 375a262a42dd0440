// Package funcdb is a functional (applicative) database engine: the public
// API of this repository's reproduction of Keller & Lindstrom,
// "Approaching Distributed Database Implementations through Functional
// Programming Concepts", Proc. 5th ICDCS, 1985.
//
// A Store is a stream of immutable database versions. Every transaction is
// a function from one version to the next; updates share all untouched
// structure with their predecessor, old versions remain readable forever
// (time travel), and concurrency arises implicitly: submitted transactions
// become futures over per-relation lenient cells, so independent
// transactions run in parallel and conflicting ones pipeline — with no
// user-visible locks.
//
//	store := funcdb.Open(funcdb.WithRelations("parts"))
//	resp, err := store.Exec(`insert (1, "widget", 250) into parts`)
//	future := store.ExecAsync(`find 1 in parts`)
//	...
//	resp = future.Force()
//
// For the distributed form over real TCP — the paper's primary-copy model
// with log-shipped replicas and failover, one durable Store per node — see
// OpenClusterNode and funcdb/client.DialCluster.
package funcdb

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"funcdb/internal/archive"
	"funcdb/internal/cluster"
	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/eval"
	"funcdb/internal/lenient"
	"funcdb/internal/metrics"
	"funcdb/internal/query"
	"funcdb/internal/relation"
	"funcdb/internal/reqtrace"
	"funcdb/internal/server"
	"funcdb/internal/session"
	"funcdb/internal/value"
)

// Re-exported core types. The internal packages carry the implementation;
// these aliases are the supported public surface.
type (
	// Transaction is a function from a database version to a response and
	// a successor version, plus its origin tag and read/write sets.
	Transaction = core.Transaction
	// Response is a tagged transaction result.
	Response = core.Response
	// Database is one immutable database version.
	Database = database.Database
	// History retains the version stream (complete archive or bounded).
	History = database.History
	// Item is a scalar data item.
	Item = value.Item
	// Tuple is an immutable tuple of items keyed by its first field.
	Tuple = value.Tuple
	// Rep selects a relation representation.
	Rep = relation.Rep
	// Future is an unresolved response: Force blocks until available.
	Future = lenient.Cell[core.Response]
	// VersionInfo describes one element of a durable version stream.
	VersionInfo = archive.VersionInfo
	// DurabilityOption tunes the on-disk archive of WithDurability.
	DurabilityOption = archive.Option
	// BatchError reports which statement of an ExecBatch failed to
	// translate or bind (batches are all-or-nothing; nothing was
	// submitted). Recover it with errors.As to read the failing index.
	BatchError = session.BatchError
	// MetricsSnapshot is a point-in-time reading of every layer's
	// counters and latency histograms (see Store.MetricsSnapshot). It is
	// the document the wire Introspect frame, the --debug-addr endpoints, and
	// fdbrepl's .stats all render.
	MetricsSnapshot = metrics.Snapshot
	// TracingConfig tunes request tracing: sampling rate, slow-request
	// threshold, and buffer sizes (see WithTracing).
	TracingConfig = reqtrace.Config
	// RequestTrace is one published request trace — the span timeline
	// Store.Traces returns, the wire Introspect frame ships, and /debug/trace
	// serves.
	RequestTrace = reqtrace.Trace
	// TraceCtx is the trace context that crosses the wire: id, hop and
	// the sampled bit. The zero value means "not traced".
	TraceCtx = reqtrace.Ctx
)

// Relation representations.
const (
	RepList  = relation.RepList
	RepAVL   = relation.RepAVL
	Rep23    = relation.Rep23
	RepPaged = relation.RepPaged
)

// Int builds an integer item.
func Int(v int64) Item { return value.Int(v) }

// Str builds a string item.
func Str(s string) Item { return value.Str(s) }

// NewTuple builds a tuple.
func NewTuple(items ...Item) Tuple { return value.NewTuple(items...) }

// Parse translates a symbolic query into a transaction without executing
// it (the paper's translate function).
func Parse(q string) (Transaction, error) { return query.Translate(q) }

// config collects Open options.
type config struct {
	rep      Rep
	names    []string
	data     map[string][]Tuple
	history  int // -1 = disabled, 0 = unbounded archive, n = keep n
	origin   string
	initial  *database.Database
	dir      string // "" = no durability
	archOpts []archive.Option
	lanes    int              // 0 = default (from GOMAXPROCS)
	tracing  *reqtrace.Config // nil = tracing off
}

// Option configures Open.
type Option func(*cfgError, *config)

// cfgError accumulates option validation problems.
type cfgError struct{ err error }

// WithRelations declares the store's initial (empty) relations.
func WithRelations(names ...string) Option {
	return func(_ *cfgError, c *config) { c.names = append(c.names, names...) }
}

// WithRepresentation selects the relation representation (default list,
// the paper's experimental choice).
func WithRepresentation(rep Rep) Option {
	return func(_ *cfgError, c *config) { c.rep = rep }
}

// WithData seeds a relation with initial tuples (implies the relation).
func WithData(rel string, tuples ...Tuple) Option {
	return func(_ *cfgError, c *config) {
		if c.data == nil {
			c.data = map[string][]Tuple{}
		}
		c.data[rel] = append(c.data[rel], tuples...)
	}
}

// WithDatabase opens the store at an explicit initial version (overrides
// WithRelations/WithData).
func WithDatabase(db *Database) Option {
	return func(_ *cfgError, c *config) { c.initial = db }
}

// WithHistory retains database versions in memory: limit 0 keeps every
// version (a complete archive, Section 3.3), limit n keeps the newest n.
// Without this option no history is kept. Versions are appended from the
// engine's post-commit observer, off the submission path — history rides
// the lenient pipeline instead of serializing it. For a settled view after
// asynchronous submissions, History() waits on a barrier.
func WithHistory(limit int) Option {
	return func(e *cfgError, c *config) {
		if limit < 0 {
			e.err = fmt.Errorf("funcdb: negative history limit %d", limit)
			return
		}
		c.history = limit
	}
}

// WithOrigin sets the tag attached to this store's transactions (default
// "local").
func WithOrigin(origin string) Option {
	return func(_ *cfgError, c *config) { c.origin = origin }
}

// WithLanes sets the number of admission lanes the engine shards its merge
// point into. A write commits under the lane locks its relations hash
// into, so writes on disjoint lanes admit in parallel; n = 1 reproduces
// the single-mutex merge. The default (n = 0) picks the next power of two
// at or above GOMAXPROCS, capped at 64. Lane count affects only internal
// parallelism — any lane count yields the same responses and version
// contents for the same submission order.
func WithLanes(n int) Option {
	return func(e *cfgError, c *config) {
		if n < 0 {
			e.err = fmt.Errorf("funcdb: negative lane count %d", n)
			return
		}
		c.lanes = n
	}
}

// WithDurability makes the version stream durable in dir: an initial
// snapshot plus an append-only transaction log (internal/archive), written
// from the engine's post-commit observer so durability rides the lenient
// pipeline. If dir already holds an archive, the store recovers from it
// (newest snapshot + log suffix) and any WithRelations/WithData/
// WithDatabase options are superseded by the recovered version. Close the
// store to flush and release the archive.
func WithDurability(dir string, opts ...DurabilityOption) Option {
	return func(e *cfgError, c *config) {
		if dir == "" {
			e.err = fmt.Errorf("funcdb: empty durability directory")
			return
		}
		c.dir = dir
		c.archOpts = append(c.archOpts, opts...)
	}
}

// WithTracing enables per-request span tracing: every request gets a
// trace handle the pipeline brackets its stages onto (conn-read through
// group-commit-fsync), and completed traces are published to a
// fixed-size ring by head sampling (default 1 in 1024) plus an
// always-keep slow-request reservoir (default 10ms). Read them with
// Traces, the wire Introspect frame, or /debug/trace. The zero TracingConfig
// selects every default; tracing off (the default) costs zero
// allocations and zero clock reads on the request path.
func WithTracing(cfg TracingConfig) Option {
	return func(_ *cfgError, c *config) {
		tc := cfg
		c.tracing = &tc
	}
}

// SnapshotEvery snapshots the full version every n logged writes, bounding
// recovery replay time (and enabling compaction past old segments).
func SnapshotEvery(n int) DurabilityOption { return archive.SnapshotEvery(n) }

// SyncEveryWrite fsyncs the log on every committed write: durability
// against power loss, not just process crashes, at a per-write fsync cost.
func SyncEveryWrite() DurabilityOption { return archive.Fsync(true) }

// GroupCommit batches durable log appends: committed records accumulate in
// memory and are flushed — one write, and one fsync when SyncEveryWrite is
// on — at least every window. Group commit multiplies durable-write
// throughput at the cost that a crash may lose the commits of the current
// window (the in-memory database is never affected). Barrier and Close
// flush the pending batch.
func GroupCommit(window time.Duration) DurabilityOption { return archive.GroupCommit(window) }

// Store is a single-process functional database: one transaction stream,
// one version stream. Its query surface (Exec, ExecAsync, ExecBatch) is a
// thin wrapper over a session (internal/session) — the same execution
// layer every other front end (the REPL, the network server) drives — so
// there is exactly one exec/parse path from any client to the admission
// lanes.
type Store struct {
	engine  *core.Engine
	stats   *eval.Stats
	history *History
	archive *archive.Archive
	origin  string
	session *session.Session
	tracer  *reqtrace.Recorder // nil = tracing off

	// Per-layer metric sinks, always allocated: recording is a handful of
	// atomic adds, and the snapshot API must work on every store. All
	// sessions over this store share sessionM.
	engineM  *metrics.Engine
	archiveM *metrics.Archive
	sessionM *metrics.Session

	seq atomic.Int64 // per-store sequence tags; atomic keeps reads lock-free
}

// Open creates a store.
func Open(opts ...Option) (*Store, error) {
	c := config{rep: RepList, history: -1, origin: "local"}
	var ce cfgError
	for _, opt := range opts {
		opt(&ce, &c)
	}
	if ce.err != nil {
		return nil, ce.err
	}

	s := &Store{
		stats:    &eval.Stats{},
		origin:   c.origin,
		engineM:  &metrics.Engine{},
		archiveM: &metrics.Archive{},
		sessionM: &metrics.Session{},
	}
	if c.tracing != nil {
		s.tracer = reqtrace.New(c.origin, *c.tracing)
	}
	engineOpts := []core.EngineOption{
		core.WithStats(s.stats),
		core.WithEngineMetrics(s.engineM),
	}
	if c.lanes > 0 {
		engineOpts = append(engineOpts, core.WithLanes(c.lanes))
	}
	c.archOpts = append(c.archOpts, archive.WithMetrics(s.archiveM))

	initial := c.initial
	if c.dir != "" && archive.Exists(c.dir) {
		// Recovery: the durable stream supersedes any configured initial
		// state.
		arch, db, err := archive.Open(c.dir, c.archOpts...)
		if err != nil {
			return nil, err
		}
		s.archive = arch
		initial = db
	}
	if initial == nil {
		names := append([]string(nil), c.names...)
		data := map[string][]value.Tuple{}
		for _, n := range names {
			data[n] = nil
		}
		for rel, tuples := range c.data {
			if _, ok := data[rel]; !ok {
				names = append(names, rel)
			}
			data[rel] = tuples
		}
		initial = database.FromData(c.rep, names, data)
	}
	if c.dir != "" && s.archive == nil {
		arch, err := archive.Create(c.dir, initial, c.archOpts...)
		if err != nil {
			return nil, err
		}
		s.archive = arch
	}
	if s.archive != nil {
		engineOpts = append(engineOpts, core.WithCommitObserver(s.archive.Observer()))
	}
	if c.history >= 0 {
		s.history = database.NewHistory(c.history)
		s.history.Append(initial)
		engineOpts = append(engineOpts, core.WithCommitObserver(func(cm core.Commit) {
			for v := cm.First(); v <= cm.Seq; v++ {
				s.history.Append(cm.VersionAt(v))
			}
		}))
	}
	s.engine = core.NewEngine(initial, engineOpts...)
	s.session = session.New(s,
		session.WithOrigin(s.origin),
		session.WithSeqs(s.nextSeqs),
		session.WithMetrics(s.sessionM))
	return s, nil
}

// OpenDir reopens a store from an existing archive directory, recovering
// the last durable version (newest snapshot + log suffix) and continuing
// the version stream from there. It fails if dir holds no archive — create
// one by opening with WithDurability first.
func OpenDir(dir string, opts ...Option) (*Store, error) {
	if !archive.Exists(dir) {
		return nil, fmt.Errorf("funcdb: no archive in %q (open with WithDurability to create one)", dir)
	}
	return Open(append([]Option{WithDurability(dir)}, opts...)...)
}

// MustOpen is Open for statically valid configurations; it panics on
// error.
func MustOpen(opts ...Option) *Store {
	s, err := Open(opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// nextSeq issues the next per-store sequence number.
func (s *Store) nextSeq() int {
	return int(s.seq.Add(1)) - 1
}

// nextSeqs issues n consecutive per-store sequence numbers, returning the
// first.
func (s *Store) nextSeqs(n int) int {
	return int(s.seq.Add(int64(n))) - n
}

// Submit admits a transaction into the store's merged stream and returns
// its response future. The transaction's Origin/Seq are filled in when
// empty. History and durability, when enabled, are appended from the
// engine's post-commit observer — the write pipelines like any other.
func (s *Store) Submit(tx Transaction) *Future {
	if tx.Origin == "" {
		tx.Origin = s.origin
	}
	tx.Seq = s.nextSeq()
	return s.engine.Submit(tx)
}

// SubmitBatch admits a slice of transactions in one merge arbitration —
// the lane locks are taken once per run — and returns their response
// futures in submission order. Origin/Seq tags are filled in when empty,
// exactly as Submit does.
func (s *Store) SubmitBatch(txs []Transaction) []*Future {
	batch := make([]Transaction, len(txs))
	copy(batch, txs)
	first := s.nextSeqs(len(batch))
	for i := range batch {
		if batch[i].Origin == "" {
			batch[i].Origin = s.origin
		}
		batch[i].Seq = first + i
	}
	futs := make([]*Future, len(batch))
	s.SubmitTagged(batch, futs)
	return futs
}

// SubmitTagged admits a slice of already-tagged transactions: the raw
// admission surface the session layer (and through it every front end)
// feeds. Unlike Submit/SubmitBatch it never rewrites Origin or Seq — the
// session owns the tag space, which is what makes a network connection's
// response stream deterministic regardless of how other connections
// interleave. A single transaction takes the engine's one-off path, so a
// lone read keeps the lock-free fast path; a batch hints the archive's
// adaptive group-commit window with its write count before admission.
// The future of txs[i] is stored into futs[i] — the caller's slice, as
// long as txs — so a single-statement flush allocates no result slice.
func (s *Store) SubmitTagged(txs []Transaction, futs []*Future) {
	if len(txs) == 1 {
		futs[0] = s.engine.Submit(txs[0])
		return
	}
	if s.archive != nil {
		writes := 0
		for i := range txs {
			if !txs[i].IsReadOnly() {
				writes++
			}
		}
		s.archive.ExpectBatch(writes)
	}
	copy(futs, s.engine.SubmitBatch(txs))
}

// ExecAsync translates and submits a symbolic query through the store's
// session (cached statements, one exec path), returning the response
// future.
func (s *Store) ExecAsync(q string) (*Future, error) {
	return s.session.ExecAsync(q)
}

// Exec translates, submits and waits.
func (s *Store) Exec(q string) (Response, error) {
	return s.session.Exec(q)
}

// ExecBatch translates a slice of queries, submits them all in one merge
// arbitration, and waits for every response. Translation is all-or-nothing:
// a syntax error in any query fails the whole batch before anything is
// submitted, and the returned error is a *BatchError carrying the failing
// statement's index.
func (s *Store) ExecBatch(queries []string) ([]Response, error) {
	return s.session.ExecBatch(queries)
}

// Session opens a fresh session over the store with its own origin tag
// and sequence space: the per-connection execution context of the network
// server, also usable in-process for a client that wants deterministic
// per-client response tags. The session shares the store's statement
// cache.
func (s *Store) Session(origin string) *session.Session {
	return session.New(s,
		session.WithOrigin(origin),
		session.WithCache(s.session.Cache()),
		session.WithMetrics(s.sessionM))
}

// Stmt is a prepared query bound to a store: parsed once, executed many
// times with different bind parameters ('?' placeholders in data-item
// positions). A Stmt is immutable and safe for concurrent use.
type Stmt struct {
	store *Store
	prep  *query.Prepared
}

// Prepare parses q once into a reusable statement, taking the lexer and
// parser off the submission hot path:
//
//	ins, _ := store.Prepare("insert (?, ?) into R")
//	for i, name := range names {
//		ins.Exec(funcdb.Int(int64(i)), funcdb.Str(name))
//	}
func (s *Store) Prepare(q string) (*Stmt, error) {
	prep, err := s.session.Prepare(q) // store-wide statement cache
	if err != nil {
		return nil, err
	}
	return &Stmt{store: s, prep: prep}, nil
}

// Query returns the statement's source text.
func (st *Stmt) Query() string { return st.prep.Src() }

// NumParams returns the number of '?' placeholders.
func (st *Stmt) NumParams() int { return st.prep.NumParams() }

// Bind substitutes args into the placeholders and returns the transaction
// without submitting it.
func (st *Stmt) Bind(args ...Item) (Transaction, error) {
	return st.prep.Bind(args...)
}

// ExecAsync binds and submits, returning the response future.
func (st *Stmt) ExecAsync(args ...Item) (*Future, error) {
	tx, err := st.prep.Bind(args...)
	if err != nil {
		return nil, err
	}
	return st.store.Submit(tx), nil
}

// Exec binds, submits and waits.
func (st *Stmt) Exec(args ...Item) (Response, error) {
	fut, err := st.ExecAsync(args...)
	if err != nil {
		return Response{}, err
	}
	return fut.Force(), nil
}

// ExecBatch binds every argument set and submits the lot in one merge
// arbitration, waiting for all responses. Binding is all-or-nothing.
func (st *Stmt) ExecBatch(argSets ...[]Item) ([]Response, error) {
	txs := make([]Transaction, len(argSets))
	for i, args := range argSets {
		tx, err := st.prep.Bind(args...)
		if err != nil {
			return nil, &BatchError{Index: i, Query: st.prep.Src(), Err: err}
		}
		txs[i] = tx
	}
	futures := st.store.SubmitBatch(txs)
	out := make([]Response, len(futures))
	for i, f := range futures {
		out[i] = f.Force()
	}
	return out, nil
}

// Current materializes the store's present database version.
func (s *Store) Current() *Database { return s.engine.Current() }

// Version reads the present version number without materializing the
// database: one lock-free load, for callers (the cluster's ack gate and
// heartbeats) that only need to know how far the store has got.
func (s *Store) Version() int64 { return s.engine.Version() }

// Lanes returns the number of admission lanes the store's engine shards
// its merge point into (see WithLanes).
func (s *Store) Lanes() int { return s.engine.Lanes() }

// Barrier waits for every submitted transaction to finish, including its
// durable record: with group commit, the pending batch is flushed to the
// log before Barrier returns.
func (s *Store) Barrier() {
	s.engine.Barrier()
	if s.archive != nil {
		_ = s.archive.Flush() // failures are sticky; DurabilityErr reports them
	}
}

// History returns the retained version stream, or nil when history is
// disabled. It waits for pending commits to be recorded, so the returned
// stream reflects everything submitted before the call.
func (s *Store) History() *History {
	if s.history != nil {
		s.engine.Barrier()
	}
	return s.history
}

// Close waits for every submitted transaction (and its durable record),
// then flushes and closes the archive. It reports the first durability
// failure, if any occurred. Closing a store without durability is a no-op.
func (s *Store) Close() error {
	s.engine.Barrier()
	if s.archive == nil {
		return nil
	}
	return s.archive.Close()
}

// Durable reports whether the store writes a durable archive.
func (s *Store) Durable() bool { return s.archive != nil }

// DurabilityErr reports the archive's sticky failure: non-nil when some
// committed write could not be made durable. Nil without durability.
func (s *Store) DurabilityErr() error {
	if s.archive == nil {
		return nil
	}
	return s.archive.Err()
}

// VersionAt materializes the database version numbered seq: from the
// on-disk archive when the store is durable, falling back to the
// in-memory history. This is time travel over the full retained stream.
func (s *Store) VersionAt(seq int64) (*Database, error) {
	var archErr error
	if s.archive != nil {
		s.engine.Barrier()
		db, err := s.archive.VersionAt(seq)
		if err == nil {
			return db, nil
		}
		archErr = err
	}
	if h := s.History(); h != nil {
		db, err := h.Version(seq)
		if err == nil {
			return db, nil
		}
		if archErr == nil {
			archErr = err
		}
	}
	if archErr != nil {
		return nil, archErr
	}
	return nil, fmt.Errorf("funcdb: version %d not retained (no history or archive configured)", seq)
}

// ArchivedVersions lists the durable version stream oldest-first, or an
// error when the store has no archive.
func (s *Store) ArchivedVersions() ([]VersionInfo, error) {
	if s.archive == nil {
		return nil, fmt.Errorf("funcdb: store has no archive (open with WithDurability)")
	}
	s.engine.Barrier()
	// Flush the group-commit batch explicitly: a flush failure must fail
	// the listing rather than silently omit the buffered versions.
	if err := s.archive.Flush(); err != nil {
		return nil, err
	}
	return archive.Versions(s.archive.Dir())
}

// Snapshot forces a full durable snapshot of the current version and
// rotates the log, bounding the next recovery's replay.
func (s *Store) Snapshot() error {
	if s.archive == nil {
		return fmt.Errorf("funcdb: store has no archive (open with WithDurability)")
	}
	s.engine.Barrier()
	return s.archive.Snapshot(s.engine.Current())
}

// SubscribeLog streams the store's committed log: every version after
// after, one durable-format record at a time — a single write, or an
// insert run's consecutive versions — in commit order, with no gap between
// the replayed history and the live tail. It is the primary side of
// cluster log shipping — the archive's durability log doubling as the
// replication stream — and requires durability (the log is the stream;
// without an archive there is nothing to ship). Each record comes with the
// versions first … last it covers and its form; each live record with the
// trace context of the commit that wrote it, replayed history with the
// zero context. The callback runs on the commit path under the archive
// mutex: hand the record off (copy it; the slice is reused), never block or
// call back into the store. Decode records with the archive's record codec;
// cancel unregisters.
func (s *Store) SubscribeLog(after int64, fn func(first, last int64, ctx TraceCtx, form byte, record []byte)) (cancel func(), err error) {
	if s.archive == nil {
		return nil, fmt.Errorf("funcdb: store has no archive to subscribe to (open with WithDurability)")
	}
	return s.archive.SubscribeTxns(after, fn)
}

// TraceRecorder returns the store's request-trace recorder, nil when
// tracing is off. The recorder is nil-safe — callers may use the result
// unconditionally.
func (s *Store) TraceRecorder() *reqtrace.Recorder { return s.tracer }

// Traces snapshots the store's published request traces, newest first:
// the head-sampled ring plus the always-keep slow reservoir (entries
// flagged Slow). Nil when tracing is off (see WithTracing).
func (s *Store) Traces() []RequestTrace { return s.tracer.Traces() }

// SharingStats reports the structure-sharing counters of Section 2.2.
type SharingStats struct {
	Created int64
	Shared  int64
	Visited int64
	// Fraction is Shared / (Shared + Created).
	Fraction float64
}

// Stats returns the accumulated sharing statistics.
func (s *Store) Stats() SharingStats {
	return SharingStats{
		Created:  s.stats.Created.Load(),
		Shared:   s.stats.Shared.Load(),
		Visited:  s.stats.Visited.Load(),
		Fraction: s.stats.SharingFraction(),
	}
}

// MetricsSnapshot reads every layer's counters and latency histograms at
// this instant: admission lanes, commit latency, the durable archive,
// session flushing, structure sharing, and the Go runtime's heap/GC
// numbers. Layer counters read lock-free — atomic loads only — and the
// runtime section costs one runtime.ReadMemStats; safe to call from a
// monitoring loop while the store is under full load. (Named
// MetricsSnapshot, not Snapshot: Snapshot forces a durable on-disk
// snapshot.)
func (s *Store) MetricsSnapshot() MetricsSnapshot {
	snap := metrics.Snapshot{
		Origin:  s.origin,
		Version: s.engine.Version(),
		Lanes:   s.engine.Lanes(),
		Durable: s.archive != nil,
		Engine:  s.engineM.Snapshot(),
		Session: s.sessionM.Snapshot(),
		Sharing: metrics.SharingSnapshot{
			NodesCreated: s.stats.Created.Load(),
			NodesShared:  s.stats.Shared.Load(),
			NodesVisited: s.stats.Visited.Load(),
		},
	}
	if s.archive != nil {
		a := s.archiveM.Snapshot()
		snap.Archive = &a
	}
	if s.tracer != nil {
		ts := s.tracer.Stats()
		snap.Trace = &metrics.TraceSnapshot{
			Started:    ts.Started,
			Sampled:    ts.Sampled,
			Slow:       ts.Slow,
			Propagated: ts.Propagated,
		}
	}
	rt := metrics.ReadRuntime()
	snap.Runtime = &rt
	return snap
}

// ClusterNodeConfig configures one node of a real-network cluster: the
// paper's primary-copy model over TCP (internal/cluster). Every node of
// a cluster must be opened with the same Nodes list and Relations schema;
// placement is then a pure function both of them compute identically —
// relation rel's primary is node core.LaneOf(rel, len(Nodes)), the same
// hash that shards a store's admission lanes.
type ClusterNodeConfig struct {
	// ID is this node's index into Nodes.
	ID int
	// Nodes lists every node's advertised address, in cluster order. The
	// list is the membership and the placement domain.
	Nodes []string
	// Listen is the bind address (defaults to Nodes[ID]).
	Listen string
	// Listener, when non-nil, serves on an already-bound listener instead
	// of binding Listen — the clean way to bootstrap an in-process
	// cluster: bind every port first, collect the addresses into Nodes,
	// then open the nodes. Ownership transfers to the node, which closes
	// it if OpenClusterNode fails.
	Listener net.Listener
	// Dir is the node's archive directory. Required: the durability log
	// doubles as the replication stream, so a cluster node is always
	// durable.
	Dir string
	// Relations is the cluster-wide schema; this node's store holds the
	// subset that hashes to ID, and its mirrors hold each peer's subset.
	Relations []string
	// Lanes sets the store's admission lane count (0 = default).
	Lanes int
	// Durability tunes the node's archive (group commit, fsync, snapshot
	// cadence).
	Durability []DurabilityOption
	// Tracing enables request tracing on the node's store (see
	// WithTracing): the node records its own spans for every request it
	// serves and propagates sampled trace contexts on forwards and the
	// replication stream, so one trace id stitches across the cluster.
	Tracing *TracingConfig
	// Failover enables lease-based failure detection, promotion of the
	// most-caught-up mirror when a primary dies, and epoch fencing. Every
	// node of the cluster should enable it with the same parameters. See
	// cluster.FailoverConfig.
	Failover *cluster.FailoverConfig
	// Dialer overrides how the node opens outbound connections (fault
	// injection in tests). Nil means plain TCP.
	Dialer cluster.DialFunc
}

// ClusterNode is one running member of a real-network cluster: primary
// for its owned relations, gateway for the rest, and a log-shipped
// replica of every peer. Drive it with Serve, point clients
// at Addr (funcdb/client.DialCluster, or a plain Dial — the node
// forwards transparently), and stop it with Shutdown.
type ClusterNode struct {
	store *Store
	node  *cluster.Node
	srv   *server.Server
}

// OpenClusterNode opens the node's durable store (recovering it if the
// archive already exists), assembles the cluster routing around it, and
// binds the listener. Call Serve to start accepting connections.
func OpenClusterNode(cfg ClusterNodeConfig) (_ *ClusterNode, err error) {
	if cfg.Listener != nil {
		defer func() {
			if err != nil {
				cfg.Listener.Close()
			}
		}()
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("funcdb: cluster node needs the Nodes list")
	}
	if cfg.ID < 0 || cfg.ID >= len(cfg.Nodes) {
		return nil, fmt.Errorf("funcdb: cluster node id %d outside 0..%d", cfg.ID, len(cfg.Nodes)-1)
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("funcdb: cluster node needs an archive directory (the log is the replication stream)")
	}
	owned := cluster.OwnedRelations(cfg.Relations, cfg.ID, len(cfg.Nodes))
	opts := []Option{
		WithRelations(owned...),
		// A fresh node starts in the cluster's representation, like its
		// peers' mirrors of it. An existing archive overrides this:
		// relations reopen in the representation they were written with.
		WithRepresentation(cluster.FreshRep),
		WithOrigin(fmt.Sprintf("node%d", cfg.ID)),
		WithDurability(cfg.Dir, cfg.Durability...),
	}
	if cfg.Lanes > 0 {
		opts = append(opts, WithLanes(cfg.Lanes))
	}
	if cfg.Tracing != nil {
		opts = append(opts, WithTracing(*cfg.Tracing))
	}
	store, err := Open(opts...)
	if err != nil {
		return nil, err
	}
	ccfg := cluster.Config{
		ID:        cfg.ID,
		Addrs:     cfg.Nodes,
		Store:     store,
		Relations: cfg.Relations,
		Failover:  cfg.Failover,
		Dialer:    cfg.Dialer,
	}
	if cfg.Failover != nil {
		// The takeover store: the mirror's database at the promotion base
		// becomes the initial version of a fresh durable store under the
		// node's own directory, so the adopted slot's log is subscribable
		// exactly like a born-primary's — from the base onward.
		ccfg.Promote = func(slot int, epoch uint64, db *Database) (cluster.LocalStore, error) {
			dir := filepath.Join(cfg.Dir, fmt.Sprintf("takeover-%d-e%d", slot, epoch))
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			topts := []Option{
				WithDatabase(db),
				WithOrigin(fmt.Sprintf("node%d-takeover%d", cfg.ID, slot)),
				WithDurability(dir, cfg.Durability...),
			}
			if cfg.Lanes > 0 {
				topts = append(topts, WithLanes(cfg.Lanes))
			}
			return Open(topts...)
		}
	}
	node, err := cluster.New(ccfg)
	if err != nil {
		store.Close()
		return nil, err
	}
	srv := server.New(node)
	if cfg.Listener != nil {
		srv.AttachListener(cfg.Listener)
	} else {
		listen := cfg.Listen
		if listen == "" {
			listen = cfg.Nodes[cfg.ID]
		}
		if err := srv.Listen(listen); err != nil {
			node.Close()
			store.Close()
			return nil, err
		}
	}
	node.Start()
	return &ClusterNode{store: store, node: node, srv: srv}, nil
}

// Serve accepts connections until Shutdown; it returns nil on a clean
// drain.
func (cn *ClusterNode) Serve() error { return cn.srv.Serve() }

// Addr returns the bound listener address.
func (cn *ClusterNode) Addr() net.Addr { return cn.srv.Addr() }

// Store returns the node's primary store (the owned relations).
func (cn *ClusterNode) Store() *Store { return cn.store }

// ID returns the node's cluster index.
func (cn *ClusterNode) ID() int { return cn.node.ID() }

// Owner reports the advertised address of rel's primary and whether it
// is this node: the placement function, for introspection.
func (cn *ClusterNode) Owner(rel string) (addr string, self bool) { return cn.node.Owner(rel) }

// ReplicaVersion reports how far this node's replica of a peer has
// caught up (the newest applied primary sequence), or -1 without one.
func (cn *ClusterNode) ReplicaVersion(peer int) int64 { return cn.node.ReplicaVersion(peer) }

// Traces snapshots this node's published request traces, newest first —
// the node's own spans only; fetch each node's and stitch by trace id
// (reqtrace.Stitch) for the cluster-wide timeline. Nil when the node was
// opened without Tracing.
func (cn *ClusterNode) Traces() []RequestTrace { return cn.store.Traces() }

// MetricsSnapshot reads the node's full metric state: the store's layers
// plus cluster routing (forwards, redirects), per-peer link counters,
// replica progress, and the network server's per-connection and
// per-frame-type histograms. This is the document the wire Introspect frame
// returns and --debug-addr serves.
func (cn *ClusterNode) MetricsSnapshot() MetricsSnapshot {
	snap := cn.node.MetricsSnapshot()
	srv := cn.srv.Metrics().Snapshot()
	snap.Server = &srv
	return snap
}

// Kill hard-stops the node without draining, barriering, or closing the
// store: connections are cut mid-request and nothing pending is
// flushed. It is the in-process stand-in for SIGKILL — whatever a real
// crash would lose, Kill loses too — used by fault-injection tests and
// the benchmark's primary kill. The store is intentionally left unclosed.
func (cn *ClusterNode) Kill() {
	cn.node.Close()
	cn.srv.Abort()
}

// FailoverInfo reports who serves a slot (and in which epoch) as this
// node believes it, and whether this node serves it locally. Epoch 0
// with owner==slot is the static placement (no promotion yet, or
// failover off).
func (cn *ClusterNode) FailoverInfo(slot int) (owner int, epoch uint64, servingHere bool) {
	return cn.node.FailoverInfo(slot)
}

// WaitReady blocks until the node's failover boot probation resolves (a
// no-op without failover): after it returns, the node either serves its
// slot or knows who does.
func (cn *ClusterNode) WaitReady(timeout time.Duration) error {
	return cn.node.WaitReady(timeout)
}

// Shutdown drains the listener (every acked response is flushed to the
// archive), stops replication, and closes the store. The first
// durability failure, if any, is returned.
func (cn *ClusterNode) Shutdown() error {
	err := cn.srv.Shutdown()
	cn.node.Close()
	if cerr := cn.store.Close(); err == nil {
		err = cerr
	}
	return err
}
