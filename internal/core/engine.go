package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"funcdb/internal/database"
	"funcdb/internal/eval"
	"funcdb/internal/lenient"
	"funcdb/internal/metrics"
	"funcdb/internal/ptree"
	"funcdb/internal/relation"
	"funcdb/internal/reqtrace"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// Engine is the runtime form of apply-stream: the database is a directory
// of per-relation lenient cells, and every submitted transaction is a
// function of exactly the cells it touches.
//
// A transaction body is pure, so who evaluates it is unobservable; the
// engine spawns a goroutine only when there is something to wait for. A
// built-in transaction whose input relation is already a value runs on its
// submitter and installs ready cells; one whose input is still under
// computation — it queued behind a custom body, say — and every custom
// become spawned futures, so Submit never waits on a predecessor.
//
// Admission is a two-stage pipeline. Planning resolves a transaction's
// access set — the cells it reads, the names it replaces — against the
// engine's atomically published snapshot, without locks. Admission installs
// a write's output cells and publishes the successor snapshot under the
// engine mutex: the paper's "momentary 'locking' effect among transactions
// as transaction streams are merged; this establishes a definite sequence
// from which concurrent operations are extracted" (Section 2.4). After that
// moment there are no locks: transactions on different relations run
// concurrently because they share unchanged cells; transactions on the same
// relation pipeline because the later one reads — or, when it is not there
// yet, its future forces — the earlier one's output cell.
//
// Read-only transactions never install anything, so they skip the merge
// entirely, in a batch too unless they follow a write there: a read loads
// the published snapshot and runs against it lock-free — the paper's
// read-only transactions "don't lock out each other" (Section 6), now with
// no mutex either. A fast-path read observes the newest version published
// at some instant during the call, reads are monotonic (the snapshot
// pointer only advances), and a client always sees its own earlier writes
// (a write's snapshot is published before its Submit returns).
//
// The merge point itself is sharded into admission lanes (lanes.go): a
// write locks only the lanes its access set hashes into, so writes to
// disjoint lanes admit concurrently, and the successor snapshot is
// published by compare-and-swap on the epoch-stamped pointer rather than
// under any global lock. That compare-and-swap is the one place the total
// order is decided: publication assigns dense version numbers, and on an
// engine with commit observers each snapshot links back to the one it
// replaced, so the chain of published snapshots is the queue the notifier
// (observer.go) delivers in that order.
type Engine struct {
	nlanes     int
	lanes      []sync.Mutex             // the sharded merge point
	allLanes   laneSet                  // {0..nlanes-1}, the full-barrier set
	laneSingle []laneSet                // precomputed singletons, one per lane
	snap       atomic.Pointer[snapshot] // latest admitted version, lock-free readable

	stats   *eval.Stats
	evalCtx *eval.Ctx // shared transaction-body context (nil when untraced)
	bodies  inflight  // spawned transaction bodies still running

	// metrics, when non-nil, observes the admission path: commit latency,
	// CAS retries, cross-lane acquisitions, batch run lengths, per-lane
	// commits. Nil costs one pointer comparison per submission — the
	// recording helpers are nil-receiver-safe, and the clock reads are
	// guarded here so an uninstrumented engine never touches time.Now.
	metrics *metrics.Engine

	// serializedReads routes read-only transactions through the merge
	// mutex (the pre-pipeline behavior): a baseline for benchmarks and a
	// diagnostic escape hatch.
	serializedReads bool

	// Post-commit observation (observer.go): observers are notified of
	// every committed write in version order by one notifier goroutine,
	// which walks the chain of published snapshots, so durability and
	// history ride behind the pipeline instead of serializing it; flush
	// runs once per notifier batch, after them. seqMu guards flushErr and
	// the caughtUp wait; notified and durable are also read lock-free.
	observers []CommitObserver
	flush     func() error
	notifying atomic.Bool  // a notifier goroutine is running
	notified  atomic.Int64 // observers and flush have run for every version <= this
	durable   atomic.Int64 // notified and flushed without error: on disk
	seqMu     sync.Mutex
	flushErr  error     // the flush's first failure
	caughtUp  sync.Cond // on seqMu: notified advanced
}

// EngineOption configures NewEngine.
type EngineOption func(*Engine)

// WithStats accumulates sharing statistics from all transaction bodies.
func WithStats(s *eval.Stats) EngineOption {
	return func(e *Engine) { e.stats = s }
}

// WithEngineMetrics records admission metrics into m.
func WithEngineMetrics(m *metrics.Engine) EngineOption {
	return func(e *Engine) { e.metrics = m }
}

// WithSerializedReads disables the lock-free read fast path: read-only
// transactions take the merge mutex like writes. This is the baseline the
// fast path is measured against; there is no correctness reason to use it.
func WithSerializedReads() EngineOption {
	return func(e *Engine) { e.serializedReads = true }
}

// NewEngine starts an engine over an initial database version.
func NewEngine(initial *database.Database, opts ...EngineOption) *Engine {
	e := &Engine{nlanes: DefaultLanes()}
	for _, opt := range opts {
		opt(e)
	}
	if e.stats != nil {
		e.evalCtx = &eval.Ctx{Stats: e.stats}
	}
	e.initLanes()
	e.metrics.SizeLanes(e.nlanes)
	names := initial.RelationNames()
	cells := make([]*lenient.Cell[relation.Relation], len(names))
	for i, name := range names {
		rel, _ := initial.RelationFast(name)
		cells[i] = lenient.Ready(rel)
	}
	e.snap.Store(&snapshot{
		dir:     database.NewDirectory(names...),
		cells:   cells,
		version: initial.Version(),
		e:       e,
	})
	e.notified.Store(initial.Version())
	e.durable.Store(initial.Version())
	e.caughtUp.L = &e.seqMu
	return e
}

// ctx returns the eval context used inside transaction bodies (no tracing;
// optional stats). The context is immutable — its counters are atomic — so
// one instance serves every transaction.
func (e *Engine) ctx() *eval.Ctx {
	return e.evalCtx
}

// txnOut is what one transaction future produces. Built-ins write at most
// one relation and report it in the scalar pair (no map); customs fill
// newRels.
type txnOut struct {
	resp      Response
	newRel    relation.Relation
	hasNewRel bool
	newRels   map[string]relation.Relation
}

// Plan resolves tx's access set against the engine's latest published
// version without admitting it: the planning stage on its own, for
// introspection and tests. The returned plan is a snapshot in time — the
// engine may advance before the transaction is submitted.
func (e *Engine) Plan(tx Transaction) Plan {
	return planAgainst(e.snap.Load(), tx)
}

// Submit admits tx and returns its response future, an acknowledgement on
// an engine with a commit flush (WithCommitFlush): a batch of one
// (SubmitBatch). The call is brief: the merge arbitration plus, for a
// built-in whose input relation is already a value, the body itself (a few
// microseconds on a tree). Any other body runs in its own goroutine,
// demand-synchronized with its neighbors through the relation cells, so
// Submit never waits on a predecessor.
func (e *Engine) Submit(tx Transaction) *lenient.Cell[Response] {
	var out [1]*lenient.Cell[Response]
	e.SubmitBatch([]Transaction{tx}, out[:])
	return out[0]
}

// SubmitBatch, the engine's one admission path, admits txs in order, as if
// one at a time, storing the response future of txs[i] into out[i]; it
// keeps neither slice. A read locks nothing: it joins the run of a write it
// follows, and is otherwise planned against the published snapshot and
// launched lock-free. Writes are split into maximal consecutive runs whose
// lane sets fit under one set of held locks, each paying one acquisition,
// so a batch confined to one lane never blocks writers on other lanes.
// Inside a run, a stretch of at least a page's worth (ptree.DefaultPageCap)
// of inserts into one paged relation is admitted as one insert run
// (run.go): one page build, its versions published together and notified
// as one commit.
func (e *Engine) SubmitBatch(txs []Transaction, out []*lenient.Cell[Response]) {
	for i := 0; i < len(txs); {
		ls := e.laneSetOf(txs[i])
		if ls == nil {
			out[i] = e.read(txs[i], false)
			i++
			continue
		}
		j := i + 1
		for j < len(txs) && e.laneSetOf(txs[j]).subsetOf(ls) {
			j++
		}
		// A batch is one request, so its transactions share one trace
		// handle; the run's lane stages go to the first handle found (a
		// run mixing distinct traces attributes to the earliest, which
		// only a hand-built batch can produce).
		var tr *reqtrace.T
		for k := i; k < j && tr == nil; k++ {
			tr = txs[k].Trace
		}
		var start time.Time
		if e.metrics != nil || tr != nil {
			start = time.Now()
			if e.metrics != nil && len(ls) > 1 {
				e.metrics.CrossLaneAcq()
			}
		}
		e.lockLanes(ls)
		var locked time.Time
		if tr != nil {
			locked = time.Now()
		}
		writes := j - i
		for k := i; k < j; {
			n := insertStretch(txs[k:j])
			if n < ptree.DefaultPageCap || !e.admitInsertRun(txs[k:k+n], out[k:k+n]) {
				n = max(n, 1)
				for m := k; m < k+n; m++ {
					if txs[m].IsReadOnly() {
						writes--
						e.metrics.Read()
					}
					out[m] = e.admitLocked(planAgainst(e.snap.Load(), txs[m]))
				}
			}
			k += n
		}
		e.unlockLanes(ls)
		if tr != nil {
			// Planning happens per transaction inside the run, so the run's
			// lane-commit span covers plan+admit for the whole run.
			end := time.Now()
			tr.Span(reqtrace.StageLaneWait, start, locked)
			tr.Span(reqtrace.StageLaneCommit, locked, end)
		}
		if e.metrics != nil {
			e.metrics.Run(j - i)
			e.metrics.Admit(ls, writes, time.Since(start))
		}
		i = j
	}
}

// admitLocked runs the admission stage for one plan: install the write's
// output cells and publish the successor snapshot, which carries the write
// to the notifier. The caller must hold every lane lock covering p's access
// set, and p must have been planned under those locks — the locks pin the
// plan's input cells, so the plan cannot go stale before publication.
func (e *Engine) admitLocked(p Plan) *lenient.Cell[Response] {
	if p.err != nil {
		return p.errResponse(0)
	}
	if p.ReadOnly() {
		return e.launchRead(p, false)
	}
	s, c := p.snap, commitLink{tx: p.tx}

	if p.create {
		// The relation's contents (empty) are ready immediately; only the
		// directory grows. Publication rebases onto whatever snapshot is
		// current: directories only ever append, so concurrently created
		// relations in other lanes keep their positions.
		newCell := lenient.Ready(relation.New(p.tx.Rep))
		ns := e.publish(c, func(cur, ns *snapshot) {
			cells := make([]*lenient.Cell[relation.Relation], len(cur.cells), len(cur.cells)+1)
			copy(cells, cur.cells)
			ns.dir, ns.cells, ns.version = cur.dir.With(p.tx.Rel), append(cells, newCell), cur.version+1
		})
		return e.respond(answer{resp: Response{Origin: p.tx.Origin, Seq: p.tx.Seq, Kind: p.tx.Kind}}, ns)
	}

	// Replace the written cells: later transactions on these relations
	// chain on this future; every other relation's cell is shared
	// untouched in the successor snapshot. The output cells and their
	// directory indices come from the plan — both are pinned by the held
	// lane locks (no other writer can touch these relations, and directory
	// positions are append-stable) — and are built once, outside the CAS
	// loop, so rebasing onto a concurrently advanced snapshot is just
	// re-copying the other lanes' cells.

	if p.writeOne {
		// Built-in single-relation write: no index/cell slices, no map
		// lookup in the output projection.
		i, _ := s.dir.Index(p.tx.Rel)
		var wcell *lenient.Cell[relation.Relation]
		var a answer
		if rel, ok := p.in.Poll(); ok {
			// The input is a value, so there is nothing to be lenient
			// about: evaluate here. The body is pure — the cells hold what
			// a spawned future would have produced.
			o := applyToRelation(e.ctx(), p.tx, rel)
			wcell = p.in // miss (e.g. delete of absent key): old value
			if o.hasNewRel {
				wcell = lenient.Ready(o.newRel)
			}
			a.resp = o.resp
		} else {
			out, in := e.spawnBuiltin(p), p.in
			wcell = lenient.Map(out, func(o txnOut) relation.Relation {
				if o.hasNewRel {
					return o.newRel
				}
				return in.Force()
			})
			a.fut = lenient.Map(out, respAt(0))
		}
		return e.respond(a, e.publishCell(c, i, wcell, 1))
	}

	out := e.spawnCustom(p)
	widx := make([]int, len(p.writes))
	wcells := make([]*lenient.Cell[relation.Relation], len(p.writes))
	for j, w := range p.writes {
		i, _ := s.dir.Index(w)
		in, name := s.cells[i], w
		widx[j] = i
		wcells[j] = lenient.Map(out, func(o txnOut) relation.Relation {
			if nr, ok := o.newRels[name]; ok {
				return nr
			}
			return in.Force() // miss (e.g. delete of absent key): old value
		})
	}
	ns := e.publish(c, func(cur, ns *snapshot) {
		cells := make([]*lenient.Cell[relation.Relation], len(cur.cells))
		copy(cells, cur.cells)
		for j, i := range widx {
			cells[i] = wcells[j]
		}
		ns.dir, ns.cells, ns.version = cur.dir, cells, cur.version+1
	})
	return e.respond(answer{fut: lenient.Map(out, respAt(0))}, ns)
}

// publish installs a successor snapshot by compare-and-swap on the
// epoch-stamped pointer, retrying on concurrent publications from other
// lanes. build sets the successor's directory, cells and version from the
// snapshot it is given — on a retry it runs again against the new current
// snapshot — and must only replace cells whose lanes the caller has locked.
// Version numbers come out dense: every successful publication is exactly
// cur.version+1 — cur.version+k for an insert run of k.
//
// On an engine with commit observers the successor also carries c, the
// commit that produced it, linked back to cur: the compare-and-swap that
// decides the version order also queues the commit for the notifier
// (notifyLoop). The publication then starts the notifier unless one is
// running — one atomic load, and a compare-and-swap when it is idle — so
// no lock is taken, and an idle engine has no goroutine at all.
func (e *Engine) publish(c commitLink, build func(cur, ns *snapshot)) *snapshot {
	var ns *snapshot
	if len(e.observers) == 0 {
		ns = &snapshot{e: e}
	} else {
		ls := &linkedSnapshot{snap: snapshot{e: e}, link: c}
		ls.snap.link = &ls.link
		ns = &ls.snap
	}
	for {
		cur := e.snap.Load()
		build(cur, ns)
		if ns.link != nil {
			ns.link.prev = cur
		}
		if e.snap.CompareAndSwap(cur, ns) {
			if ns.link != nil && !e.notifying.Load() && e.notifying.CompareAndSwap(false, true) {
				go e.notifyLoop()
			}
			return ns
		}
		e.metrics.CASRetry()
	}
}

// publishCell publishes the successor snapshot, n versions on, in which the
// relation at directory index i holds cell.
func (e *Engine) publishCell(c commitLink, i int, cell *lenient.Cell[relation.Relation], n int64) *snapshot {
	return e.publish(c, func(cur, ns *snapshot) {
		cells := make([]*lenient.Cell[relation.Relation], len(cur.cells))
		copy(cells, cur.cells)
		cells[i] = cell
		ns.dir, ns.cells, ns.version = cur.dir, cells, cur.version+n
	})
}

// read answers a read-only transaction against the published snapshot:
// it skips the merge and takes no lock. stamp sets Response.Version to the
// version read.
func (e *Engine) read(tx Transaction, stamp bool) *lenient.Cell[Response] {
	e.metrics.Read()
	if tx.Trace == nil {
		return e.launchRead(planAgainst(e.snap.Load(), tx), stamp)
	}
	// Planning is the only engine stage a read's timeline gets.
	t0 := time.Now()
	p := planAgainst(e.snap.Load(), tx)
	tx.Trace.Span(reqtrace.StagePlan, t0, time.Now())
	return e.launchRead(p, stamp)
}

// launchRead runs a read-only plan: no cells are installed, so no lock is
// needed. A built-in read whose input cell has already resolved is answered
// inline — no goroutine, no future machinery, just the lookup. The answer
// is the planned version's, stamped with its number when stamp is set.
func (e *Engine) launchRead(p Plan, stamp bool) *lenient.Cell[Response] {
	var v int64
	if stamp {
		v = p.snap.version
	}
	if p.err != nil {
		return p.errResponse(v)
	}
	var a answer
	if p.tx.Kind == KindCustom {
		a.fut = lenient.Map(e.spawnCustom(p), respAt(0))
	} else if rel, ok := p.in.Poll(); ok {
		a.resp = applyToRelation(e.ctx(), p.tx, rel).resp
		a.resp.Version = v
	} else {
		a.fut = lenient.Map(e.spawnBuiltin(p), respAt(v))
	}
	return e.respond(a, p.snap)
}

// respAt projects a body's output onto its response, stamped with version
// v unless v is 0.
func respAt(v int64) func(txnOut) Response {
	if v == 0 {
		return func(o txnOut) Response { return o.resp }
	}
	return func(o txnOut) Response { o.resp.Version = v; return o.resp }
}

// ReadStamped answers a read-only transaction against the present version
// like a lone read — lock-free, forcing only the relation it reads —
// stamping the response with that version's number (Response.Version).
func (e *Engine) ReadStamped(tx Transaction) *lenient.Cell[Response] {
	return e.read(tx, true)
}

// spawnBuiltin starts the future for a single-relation built-in body whose
// input is still under computation.
func (e *Engine) spawnBuiltin(p Plan) *lenient.Cell[txnOut] {
	ctx := e.ctx()
	in, tx := p.in, p.tx
	gen := e.bodies.join()
	return lenient.Spawn(func() txnOut {
		defer gen.Done()
		return applyToRelation(ctx, tx, in.Force())
	})
}

// applyToRelation interprets a built-in transaction against one relation
// value.
func applyToRelation(ctx *eval.Ctx, tx Transaction, rel relation.Relation) txnOut {
	resp := Response{Origin: tx.Origin, Seq: tx.Seq, Kind: tx.Kind}
	switch tx.Kind {
	case KindInsert:
		nr, _ := rel.Insert(ctx, tx.Tuple, trace.None)
		resp.Tuple = tx.Tuple
		return txnOut{resp: resp, newRel: nr, hasNewRel: true}
	case KindDelete:
		nr, found, _ := rel.Delete(ctx, tx.Key, trace.None)
		resp.Found = found
		if !found {
			return txnOut{resp: resp}
		}
		return txnOut{resp: resp, newRel: nr, hasNewRel: true}
	case KindFind:
		tu, found, _ := rel.Find(ctx, tx.Key, trace.None)
		resp.Found, resp.Tuple = found, tu
		return txnOut{resp: resp}
	case KindScan:
		resp.Tuples = rel.Tuples()
		resp.Count = len(resp.Tuples)
		return txnOut{resp: resp}
	case KindCount:
		resp.Count = rel.Len()
		return txnOut{resp: resp}
	case KindRange:
		resp.Tuples = rangeTuples(ctx, tx, rel)
		resp.Count = len(resp.Tuples)
		return txnOut{resp: resp}
	default:
		resp.Err = fmt.Errorf("core: engine cannot interpret kind %v", tx.Kind)
		return txnOut{resp: resp}
	}
}

// rangeTuples collects a range transaction's matches. It is its own
// function so that the visitor closure captures a local here rather than
// applyToRelation's response, which would then escape on every call —
// point reads and writes included.
func rangeTuples(ctx *eval.Ctx, tx Transaction, rel relation.Relation) []value.Tuple {
	var out []value.Tuple
	rel.Range(ctx, tx.Lo, tx.Hi, trace.None, func(tu value.Tuple) {
		out = append(out, tu)
	})
	return out
}

// spawnCustom starts the future for a custom body with declared read and
// write sets, running it over a scoped view of the planned version. The
// view's Version() is the plan-time version number: under concurrent
// cross-lane traffic the commit may publish as a later sequence number
// (other lanes can publish between planning and this write's CAS), but
// the *contents* the body sees are exactly the planned cells — the lane
// locks pin them — so what the transaction commits never depends on lane
// count, only the informational version stamp of its view can trail.
func (e *Engine) spawnCustom(p Plan) *lenient.Cell[txnOut] {
	ctx := e.ctx()
	tx, touched, ins, version := p.tx, p.touched, p.ins, p.snap.version
	gen := e.bodies.join()
	return lenient.Spawn(func() (o txnOut) {
		defer gen.Done()
		defer func() {
			if r := recover(); r != nil {
				o = txnOut{resp: Response{
					Origin: tx.Origin, Seq: tx.Seq, Kind: tx.Kind,
					Err: fmt.Errorf("core: custom transaction panicked: %v", r),
				}}
			}
		}()
		rels := make([]relation.Relation, len(ins))
		for i, c := range ins {
			rels[i] = c.Force()
		}
		view := database.FromRelations(touched, rels, version)
		resp, next, _ := tx.Custom(ctx, view, trace.None)
		resp.Origin, resp.Seq = tx.Origin, tx.Seq
		if resp.Kind == 0 {
			resp.Kind = KindCustom
		}
		newRels := make(map[string]relation.Relation, len(tx.Writes))
		for _, w := range tx.Writes {
			if nr, ok := next.RelationFast(w); ok {
				newRels[w] = nr
			}
		}
		return txnOut{resp: resp, newRels: newRels}
	})
}

// Barrier blocks until every transaction submitted before the call has
// finished, including its post-commit observer notifications. It is safe
// to call while other goroutines submit; their transactions may or may not
// be covered, and they cannot hold it up.
func (e *Engine) Barrier() {
	// Every Submit that has returned published a version at or below this
	// one, and observers run in version order.
	published := e.snap.Load().version
	e.bodies.wait()
	_ = e.awaitNotified(published) // a failed flush is the hook's to report
}

// inflight tracks spawned transaction bodies by generation: a body joins
// the current generation, and wait closes that generation before waiting
// for it, so Barrier on one goroutine never races Submit on another over
// one WaitGroup (whose Add from zero may not overlap Wait) and never waits
// on bodies spawned after it was called.
type inflight struct {
	waitMu sync.Mutex      // one wait at a time, so earlier generations are empty
	mu     sync.Mutex      // guards cur
	cur    *sync.WaitGroup // the generation a new body joins
}

// join counts one body into the current generation; the body calls Done on
// the result when it finishes.
func (f *inflight) join() *sync.WaitGroup {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cur == nil {
		f.cur = new(sync.WaitGroup)
	}
	f.cur.Add(1)
	return f.cur
}

func (f *inflight) wait() {
	f.waitMu.Lock()
	defer f.waitMu.Unlock()
	f.mu.Lock()
	gen := f.cur
	f.cur = nil
	f.mu.Unlock()
	if gen != nil {
		gen.Wait()
	}
}

// Current materializes the present database version, forcing every
// relation cell (a full barrier on the version stream). It is lock-free:
// the published snapshot is the present version.
func (e *Engine) Current() *database.Database {
	return e.snap.Load().materialize()
}

// Version returns the engine's published version number without
// materializing anything: a lock-free read of the snapshot pointer. It
// counts every admitted write (the value Database.Version() would report
// for Current()).
func (e *Engine) Version() int64 {
	return e.snap.Load().version
}

// ApplyStreamPipelined runs an already-merged transaction slice through a
// fresh Engine and returns the responses in merged order plus the final
// database. It is the batch form of the runtime engine, directly comparable
// with ApplySequential for the serializability tests.
func ApplyStreamPipelined(initial *database.Database, txns []Transaction, opts ...EngineOption) ([]Response, *database.Database) {
	e := NewEngine(initial, opts...)
	futures := make([]*lenient.Cell[Response], len(txns))
	e.SubmitBatch(txns, futures)
	responses := make([]Response, 0, len(futures))
	for _, f := range futures {
		responses = append(responses, f.Force())
	}
	return responses, e.Current()
}
