package core

import (
	"fmt"
	"slices"

	"funcdb/internal/database"
	"funcdb/internal/lenient"
)

// Commit describes one committed write: the transaction, its response, and
// the database version it produced — or, for an insert run (run.go), the
// run and the consecutive versions it produced in one publication.
// Observers receive commits in engine sequence order, with the write's raw
// answer, on the engine's notifier goroutine — unlike a Force in Submit, an
// observer never delays the merge or the transactions behind it.
type Commit struct {
	// Seq is the engine's version number after this commit (the value
	// Database.Version() reports for the resulting version): a run's last.
	Seq int64
	// Tx is the committed transaction; for a run, its last insert.
	Tx Transaction
	// Resp is the transaction's response; for a run, its last insert's.
	Resp Response
	// Run is the insert run the commit published, nil for a single write.
	// A run's commit covers versions First() … Seq, version First()+i
	// holding Run.Tuples[i] under Run.Tags[i].
	Run *Run

	// The version this commit produced: the engine's published snapshot,
	// or the thunk NewCommit was given. steps are a run's versions before
	// its last.
	snap    *snapshot
	steps   []insertStep
	version func() *database.Database
}

// First returns the first version the commit produced: Seq, unless the
// commit is a run.
func (c Commit) First() int64 { return firstOf(c.Seq, c.Run) }

// firstOf returns the first version of a commit whose last version is last:
// last itself, unless the commit published run.
func firstOf(last int64, run *Run) int64 {
	if run == nil {
		return last
	}
	return last - int64(len(run.Tuples)) + 1
}

// Version materializes the database version this commit produced (a run's
// last). The version is captured structurally at merge time (a snapshot of
// the per-relation cells), so it is exact even if later transactions have
// already been merged behind this one; materializing it blocks only on the
// cells this version depends on. Nothing is built until an observer asks.
func (c Commit) Version() *database.Database {
	if c.snap != nil {
		return c.snap.materialize()
	}
	return c.version()
}

// VersionAt materializes version v of the commit, First() <= v <= Seq. A
// version inside a run shares every relation but the run's with the run's
// published snapshot; its snapshot is assembled here, and the run's
// suspended versions up to it are built now.
func (c Commit) VersionAt(v int64) *database.Database {
	if v == c.Seq {
		return c.Version()
	}
	i, _ := c.snap.dir.Index(c.Run.Rel)
	s := &snapshot{dir: c.snap.dir, cells: slices.Clone(c.snap.cells), version: v}
	s.cells[i] = &c.steps[v-c.First()].cell
	return s.materialize()
}

// NewCommit assembles a Commit from explicit parts: for tests, and for
// feeding commit consumers (an archive, a history) outside an engine —
// e.g. bulk imports that bypass transaction processing.
func NewCommit(seq int64, tx Transaction, resp Response, version func() *database.Database) Commit {
	return Commit{Seq: seq, Tx: tx, Resp: resp, version: version}
}

// CommitObserver is a post-commit hook. Observers run sequentially (in
// commit order) on the engine's notifier goroutine; a slow observer delays
// later notifications, never the transaction pipeline itself. Barrier
// waits for all pending notifications.
type CommitObserver func(Commit)

// WithCommitObserver registers a post-commit observer on the engine. It is
// the durability hook: the archive subsystem logs the version stream from
// here, and Store history rides it too.
func WithCommitObserver(fn CommitObserver) EngineOption {
	return func(e *Engine) { e.observers = append(e.observers, fn) }
}

// WithCommitFlush registers fn to run on the notifier once per batch, after
// the observers: the archive's flush. Commits that arrive while fn runs form
// the next batch — group commit with no timer. Every response cell is then
// an acknowledgement: it resolves only once the version it answers — the
// one a write produced, the one a read read — has been flushed, or with Err
// wrapping fn's first error when that flush or an earlier one failed.
// Without a commit observer there is no notifier, so nothing waits.
func WithCommitFlush(fn func() error) EngineOption {
	return func(e *Engine) { e.flush = fn }
}

// answer is a transaction's raw response: resp, computed at admission, or
// fut's value when a spawned body computes it.
type answer struct {
	resp Response
	fut  *lenient.Cell[Response]
}

func (a *answer) value() Response {
	if a.fut != nil {
		return a.fut.Force()
	}
	return a.resp
}

// pendingCommit is one published write waiting for its observers: parked
// while an earlier version has not reached the sequencer yet, then queued
// for the notifier. run and steps are set for an insert run.
type pendingCommit struct {
	tx Transaction
	answer
	snap  *snapshot
	run   *Run
	steps []insertStep
}

// respond returns the response cell for a, the answer for version s. On an
// engine with a flush the cell holds the answer until s is durable: a
// ready answer is held in the cell alone, released by s (Eval), so gating
// costs the one allocation of the ready cell it replaces, at its size.
// Until it is forced, the cell keeps s reachable.
func (e *Engine) respond(a answer, s *snapshot) *lenient.Cell[Response] {
	switch {
	case e.flush == nil && a.fut != nil:
		return a.fut
	case e.flush == nil:
		return lenient.Ready(a.resp)
	case a.fut != nil:
		g := &gatedFuture{s: s, fut: a.fut}
		return g.cell.Suspend(g)
	}
	return new(lenient.Cell[Response]).Hold(a.resp, s)
}

// Eval implements lenient.Thunk for a response held until this version is
// durable: it releases r then, or amends it with the error of a failed
// flush.
func (s *snapshot) Eval(r *Response) {
	if err := s.e.awaitNotified(s.version); err != nil && r.Err == nil {
		r.Err = err
	}
}

// gatedFuture is a gated response that a spawned body computes: its own
// future, forcing the body's and then waiting for version s.
type gatedFuture struct {
	cell lenient.Cell[Response]
	s    *snapshot
	fut  *lenient.Cell[Response]
}

// Eval implements lenient.Thunk.
func (g *gatedFuture) Eval(r *Response) {
	*r = g.fut.Force()
	g.s.Eval(r)
}

// awaitNotified blocks until the observers and the flush have run for every
// version up to v, and reports an error unless v is durable. The fast path,
// v already durable, is one atomic load.
func (e *Engine) awaitNotified(v int64) error {
	if len(e.observers) == 0 || e.durable.Load() >= v {
		return nil
	}
	e.seqMu.Lock()
	defer e.seqMu.Unlock()
	for e.notified.Load() < v {
		e.caughtUp.Wait()
	}
	if e.durable.Load() >= v {
		return nil
	}
	return fmt.Errorf("core: version %d is not durable: %w", v, e.flushErr)
}

// notifyCommit schedules the post-commit notification for a write that was
// just admitted, called right after the write's successor snapshot pc.snap
// won publication. The snapshot pins the exact version this commit
// produced — a capture of cell pointers, O(relations) regardless of size —
// even if later transactions are published behind it before the
// notification runs.
//
// Lane commits are re-serialized here: lanes publish versions in CAS
// order, but the goroutines racing through this function may arrive out of
// order. Versions are dense (publish hands out cur.version+1 on every
// successful CAS, cur.version+k for a run of k), so the sequencer queues a
// commit whose first version is v only once versions up to v-1 have been
// queued. Observers therefore see the one total version
// order no matter how many lanes produced it — the archive's group commit
// and the store's history depend on that.
//
// The queue is drained by at most one notifier goroutine, started here when
// the queue goes non-empty with none running. Enqueueing and the notifier's
// decision to exit happen under seqMu, so a commit is never left queued
// with nobody to deliver it, and an idle engine has no goroutine at all.
func (e *Engine) notifyCommit(pc pendingCommit) {
	if len(e.observers) == 0 {
		return
	}
	e.seqMu.Lock()
	defer e.seqMu.Unlock()
	if first := firstOf(pc.snap.version, pc.run); first != e.seqNext {
		if e.parked == nil {
			e.parked = make(map[int64]pendingCommit)
		}
		e.parked[first] = pc
		return
	}
	e.queue = append(e.queue, pc)
	e.seqNext = pc.snap.version + 1
	for {
		next, ok := e.parked[e.seqNext]
		if !ok {
			break
		}
		delete(e.parked, e.seqNext)
		e.queue = append(e.queue, next)
		e.seqNext = next.snap.version + 1
	}
	if !e.notifying {
		e.notifying = true
		go e.notifyLoop()
	}
}

// maxSpareCommits bounds the drained batch the notifier keeps for reuse, so
// a burst queued behind a stalled observer does not pin its buffer forever.
const maxSpareCommits = 1024

// notifyLoop is the notifier: it takes the whole queue, runs the observers
// over it in order outside the lock — taking each commit's raw answer
// first, which is where it waits for a spawned body — then the flush, and
// only then marks the batch notified (and durable). It exits when it finds
// the queue empty.
func (e *Engine) notifyLoop() {
	e.seqMu.Lock()
	for len(e.queue) > 0 {
		batch := e.queue
		e.queue, e.spare = e.spare[:0], nil
		e.seqMu.Unlock()

		for i := range batch {
			pc := &batch[i]
			c := Commit{Seq: pc.snap.version, Tx: pc.tx, Resp: pc.value(), Run: pc.run, snap: pc.snap, steps: pc.steps}
			for _, ob := range e.observers {
				ob(c)
			}
		}
		var err error
		if e.flush != nil {
			err = e.flush()
		}
		last := batch[len(batch)-1].snap.version
		clear(batch) // drop the versions and tuples the batch pinned

		e.seqMu.Lock()
		if cap(batch) <= maxSpareCommits {
			e.spare = batch
		}
		if err != nil && e.flushErr == nil {
			e.flushErr = err
		}
		e.notified.Store(last)
		if e.flushErr == nil {
			e.durable.Store(last)
		}
		e.caughtUp.Broadcast()
	}
	e.notifying = false
	e.seqMu.Unlock()
}
