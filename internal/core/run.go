package core

import (
	"funcdb/internal/eval"
	"funcdb/internal/lenient"
	"funcdb/internal/relation"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// Insert runs. A stretch of inserts into one relation is admitted as one
// page build — the paper's "A new directory structure is created, the old
// one being left intact", taken once per stretch instead of once per insert
// — and its versions are published together, by one compare-and-swap from
// version v to v+k. No other lane's commit can land inside the run, so the
// run is a unit all the way down the stream: one commit for observers, one
// record in the archive, one record on the replication stream, and one
// replay on every mirror.
//
// Readers see the database before the run or after it, never inside: a
// valid serialization, since nothing else was admitted in between. The
// versions inside still exist for whoever asks by number — a commit
// observer, history — as suspended inserts on their predecessors, built
// only when forced.

// Tag is one write's origin tag (Section 2.4): the origin that submitted
// it, and its sequence number there.
type Tag struct {
	Origin string
	Seq    int
}

// Run is a stretch of inserts into one relation committed as consecutive
// versions in one publication: the i-th version the run produces holds
// Tuples[i], tagged Tags[i].
type Run struct {
	Rel    string
	Tuples []value.Tuple
	// Tags holds one tag per tuple; nil leaves the run's writes untagged.
	Tags []Tag
}

// Txn returns the insert that produced the run's i-th version.
func (r *Run) Txn(i int) Transaction {
	tx := Insert(r.Rel, r.Tuples[i])
	if r.Tags != nil {
		tx.Origin, tx.Seq = r.Tags[i].Origin, r.Tags[i].Seq
	}
	return tx
}

// insertStretch returns how many transactions at the head of txs are valid,
// untraced inserts into the relation the first one names: the stretch
// admitInsertRun may take as one run.
func insertStretch(txs []Transaction) int {
	n := 0
	for n < len(txs) {
		tx := &txs[n]
		if tx.Kind != KindInsert || tx.Trace != nil || tx.Rel != txs[0].Rel || tx.Validate() != nil {
			break
		}
		n++
	}
	return n
}

// admitInsertRun admits a stretch of a batch as one run. It reports false,
// admitting nothing, unless the relation's input cell already holds a paged
// relation: a run is one page build, which other representations cannot
// make, so the caller admits their stretches one transaction at a time.
// Every insert's answer is known at once (it does not depend on the
// relation). The caller must hold the relation's lane lock.
func (e *Engine) admitInsertRun(txs []Transaction, out []*lenient.Cell[Response]) bool {
	p := planAgainst(e.snap.Load(), txs[0])
	if p.err != nil {
		return false
	}
	rel, ok := p.in.Poll()
	if !ok {
		return false
	}
	if _, paged := relation.Paged(rel); !paged {
		return false
	}
	run := &Run{Rel: txs[0].Rel, Tuples: make([]value.Tuple, len(txs))}
	if len(e.observers) > 0 {
		run.Tags = make([]Tag, len(txs))
	}
	for k := range txs {
		tx := &txs[k]
		run.Tuples[k] = tx.Tuple
		if run.Tags != nil {
			run.Tags[k] = Tag{Origin: tx.Origin, Seq: tx.Seq}
		}
	}
	// Each insert is answered for the run's last version: the run is
	// notified as one commit, so its versions are durable together.
	s := e.admitRun(p, rel, run)
	for k := range txs {
		tx := &txs[k]
		out[k] = e.respond(answer{resp: Response{Origin: tx.Origin, Seq: tx.Seq, Kind: KindInsert, Tuple: tx.Tuple}}, s)
	}
	return true
}

// admitRun publishes run as the next len(run.Tuples) versions of the
// relation p planned, whose input value is rel: the last version is built
// here, by one UpsertRun, and published in one compare-and-swap; admitRun
// returns that version's snapshot. With observers, each version before the
// last becomes a suspended insert on its predecessor, one slab for the
// whole run, and the run is published as one commit, carrying those steps,
// its transaction the run's last insert; without any, nothing can ever ask
// for those versions, so none is made. The caller must hold the relation's
// lane lock.
func (e *Engine) admitRun(p Plan, rel relation.Relation, run *Run) *snapshot {
	k := len(run.Tuples)
	final := relation.UpsertRun(e.ctx(), rel, run.Tuples)
	c := commitLink{run: run}
	if len(e.observers) > 0 {
		c.tx, c.steps = run.Txn(k-1), make([]insertStep, k-1)
		prev := p.in
		for j := range c.steps {
			c.steps[j] = insertStep{prev: prev, tu: run.Tuples[j], ctx: e.ctx()}
			prev = c.steps[j].cell.Suspend(&c.steps[j])
		}
	}
	i, _ := p.snap.dir.Index(run.Rel)
	return e.publishCell(c, i, lenient.Ready(final), int64(k))
}

// insertStep is one version inside an insert run: its predecessor's
// relation with one more tuple, suspended until forced. It is its own cell,
// and a run's steps share one allocation.
type insertStep struct {
	cell lenient.Cell[relation.Relation]
	prev *lenient.Cell[relation.Relation]
	tu   value.Tuple
	ctx  *eval.Ctx
}

func (s *insertStep) Eval(v *relation.Relation) {
	*v, _ = s.prev.Force().Insert(s.ctx, s.tu, trace.None)
	s.prev = nil // the predecessor's version is no longer needed here
}
