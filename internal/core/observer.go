package core

import (
	"fmt"
	"slices"

	"funcdb/internal/database"
	"funcdb/internal/lenient"
	"funcdb/internal/relation"
)

// Commit describes one committed write: the transaction and the database
// version it produced — or, for an insert run (run.go), the run and the
// consecutive versions it produced in one publication. Observers receive
// commits in engine sequence order on the engine's notifier goroutine —
// unlike a Force in Submit, an observer never delays the merge or the
// transactions behind it.
type Commit struct {
	// Seq is the engine's version number after this commit (the value
	// Database.Version() reports for the resulting version): a run's last.
	Seq int64
	// Tx is the committed transaction; for a run, its last insert.
	Tx Transaction
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
func (c Commit) First() int64 {
	if c.Run == nil {
		return c.Seq
	}
	return c.Seq - int64(len(c.Run.Tuples)) + 1
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

// Written calls fn for each relation a custom commit's transaction declares
// it writes, in that order: as the version before the commit held it and as
// the commit left it. The version before is the snapshot the commit's link
// points back to — the link the notifier walked to find the commit — so
// Written is for an observer, during its call, and costs a built-in write
// nothing. It reports false, calling nothing, for a commit NewCommit
// assembled, which has no version before, and after the call, once the
// notifier has cut the link.
func (c Commit) Written(fn func(rel string, before, after relation.Relation)) bool {
	if c.snap == nil || c.snap.link.prev == nil {
		return false
	}
	prev := c.snap.link.prev
	for _, w := range c.Tx.Writes {
		before, _ := prev.cell(w)
		after, _ := c.snap.cell(w)
		fn(w, before.Force(), after.Force())
	}
	return true
}

// NewCommit assembles a Commit from explicit parts: for tests, and for
// feeding commit consumers (an archive, a history) outside an engine —
// e.g. bulk imports that bypass transaction processing.
func NewCommit(seq int64, tx Transaction, version func() *database.Database) Commit {
	return Commit{Seq: seq, Tx: tx, version: version}
}

// CommitObserver is a post-commit hook. Observers run sequentially (in
// commit order) on the engine's notifier goroutine; a slow observer delays
// later notifications, never the transaction pipeline itself. Barrier
// waits for all pending notifications.
type CommitObserver func(Commit)

// WithCommitObserver registers a post-commit observer on the engine. It is
// the durability hook: the archive subsystem logs the version stream from
// here, and Store history rides it too. With an observer, every published
// snapshot links back to its predecessor until the notifier has delivered
// it; an engine without one links nothing.
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

// commitLink is what a published snapshot carries to the notifier on an
// engine with observers: the commit that produced it — its transaction,
// and for an insert run the run and its steps — and prev, the snapshot it
// replaced. The links run backward only, from the newest version to the
// last one notified, and the notifier clears them once it has delivered
// the commit, so a snapshot kept by an unforced response cell pins no
// history.
type commitLink struct {
	prev  *snapshot
	tx    Transaction
	run   *Run
	steps []insertStep
}

// linkedSnapshot allocates a snapshot and its link together, so queueing a
// commit for the notifier costs a write no allocation of its own.
type linkedSnapshot struct {
	snap snapshot
	link commitLink
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

// notifyLoop is the notifier. It walks the chain of published snapshots
// back from the head to the last version it notified, runs the observers
// over the commits it found, oldest first, then the flush, and only then
// clears what it delivered — cutting each link — and marks the batch
// notified (and durable). Commits published meanwhile form the next batch.
// Observers therefore see the one total version order the publications'
// compare-and-swaps decided, no matter how many lanes produced it — the
// archive's group commit and the store's history depend on that.
//
// It exits when it finds the head notified. A publisher that found the
// flag still set left its version to this notifier, so after clearing the
// flag the notifier looks at the head once more and carries on unless
// another notifier has started.
func (e *Engine) notifyLoop() {
	var buf [64]*snapshot // a batch of up to 64 commits costs no allocation
	batch := buf[:0]
	for {
		last, head := e.notified.Load(), e.snap.Load()
		if head.version == last {
			e.notifying.Store(false)
			if e.snap.Load().version == last || !e.notifying.CompareAndSwap(false, true) {
				return
			}
			continue
		}
		for s := head; s.version > last; s = s.link.prev {
			batch = append(batch, s)
		}
		for _, s := range slices.Backward(batch) {
			c := Commit{Seq: s.version, Tx: s.link.tx, Run: s.link.run, snap: s, steps: s.link.steps}
			for _, ob := range e.observers {
				ob(c)
			}
		}
		var err error
		if e.flush != nil {
			err = e.flush()
		}
		for _, s := range batch {
			*s.link = commitLink{} // drop the history, tuples and steps it pinned
		}
		clear(batch)
		batch = batch[:0]

		e.seqMu.Lock()
		if err != nil && e.flushErr == nil {
			e.flushErr = err
		}
		e.notified.Store(head.version)
		if e.flushErr == nil {
			e.durable.Store(head.version)
		}
		e.caughtUp.Broadcast()
		e.seqMu.Unlock()
	}
}
