package core

import (
	"fmt"

	"funcdb/internal/database"
	"funcdb/internal/lenient"
	"funcdb/internal/relation"
)

// snapshot is one atomically published directory state: the membership
// (names) of a database version together with the per-relation cells that
// will eventually hold — or already hold — its relation values. A snapshot
// is immutable; the engine advances by publishing a successor. This is what
// makes the read fast path possible: loading the snapshot pointer observes
// one definite version of the merged stream without entering the merge.
type snapshot struct {
	dir     *database.Directory
	cells   []*lenient.Cell[relation.Relation] // parallel to dir.Names()
	version int64
	e       *Engine // the publisher, whose flush gates the responses of this version

	// link is set on an engine with commit observers (observer.go): the
	// commit that published this version, for the notifier. Nil on the
	// initial version and on an engine without observers.
	link *commitLink
}

// cell resolves a relation's cell by name.
func (s *snapshot) cell(name string) (*lenient.Cell[relation.Relation], bool) {
	i, ok := s.dir.Index(name)
	if !ok {
		return nil, false
	}
	return s.cells[i], true
}

// materialize forces every relation cell and assembles the database value
// this snapshot denotes.
func (s *snapshot) materialize() *database.Database {
	rels := make([]relation.Relation, len(s.cells))
	for i, c := range s.cells {
		rels[i] = c.Force()
	}
	return database.FromRelations(s.dir.Names(), rels, s.version)
}

// Plan is a transaction's resolved access set: the version it was planned
// against, the input cells its body will force, and the relation names its
// admission will replace (or create). Planning only reads a published
// snapshot — it takes no locks and installs nothing; admission (installing
// output cells and publishing the successor snapshot) is the serialized
// step. Splitting the two keeps the engine mutex down to the pure merge
// arbitration and lets read-only plans skip it entirely.
type Plan struct {
	tx   Transaction
	snap *snapshot
	err  error // validation/resolution failure -> immediate error response

	// Built-in transactions touch exactly one relation; their access set is
	// held in these two scalars so planning the hot path allocates nothing.
	in       *lenient.Cell[relation.Relation] // the single input cell
	writeOne bool                             // admission replaces tx.Rel's cell

	// Customs (and creates) use the general slice form.
	touched []string // input relation names (sorted union for customs)
	ins     []*lenient.Cell[relation.Relation]
	writes  []string // names whose cells admission replaces
	create  bool     // admission grows the directory by tx.Rel
}

// Err reports why the plan cannot run (unknown relation, invalid
// transaction); nil for admissible plans.
func (p Plan) Err() error { return p.err }

// ReadOnly reports whether admission would install nothing: the plan's
// transaction can run against the planned version without serializing.
func (p Plan) ReadOnly() bool { return !p.create && !p.writeOne && len(p.writes) == 0 }

// Touched returns the relation names the plan's body reads (including
// read-modify-write inputs).
func (p Plan) Touched() []string {
	if p.in != nil {
		return []string{p.tx.Rel}
	}
	return append([]string(nil), p.touched...)
}

// Version returns the database version the plan resolved against.
func (p Plan) Version() int64 { return p.snap.version }

// planAgainst resolves tx's access set against one published snapshot. It
// is pure: no engine state is read or written beyond s.
func planAgainst(s *snapshot, tx Transaction) Plan {
	p := Plan{tx: tx, snap: s}
	if err := tx.Validate(); err != nil {
		p.err = err
		return p
	}

	switch tx.Kind {
	case KindCreate:
		// Directory membership is strict: later transactions must know
		// which relations exist the moment they are merged.
		if s.dir.Has(tx.Rel) {
			p.err = fmt.Errorf("%w: %q", database.ErrRelationExists, tx.Rel)
			return p
		}
		p.create = true
		p.writes = []string{tx.Rel}
		return p

	case KindCustom:
		// An empty declaration means "touches everything" (a full
		// barrier) — correct but unpipelined, so callers should declare
		// sets. The directory caches its sorted order, so the full
		// barrier costs no per-plan sort.
		touched := unionSorted(tx.Reads, tx.Writes)
		if len(touched) == 0 {
			touched = s.dir.Sorted()
		}
		ins := make([]*lenient.Cell[relation.Relation], len(touched))
		for i, name := range touched {
			cell, ok := s.cell(name)
			if !ok {
				p.err = fmt.Errorf("%w: %q", database.ErrNoRelation, name)
				return p
			}
			ins[i] = cell
		}
		p.touched, p.ins, p.writes = touched, ins, tx.Writes
		return p

	default:
		in, ok := s.cell(tx.Rel)
		if !ok {
			p.err = fmt.Errorf("%w: %q", database.ErrNoRelation, tx.Rel)
			return p
		}
		p.in = in
		p.writeOne = !tx.IsReadOnly()
		return p
	}
}

// errResponse builds the immediate error response for an inadmissible plan,
// stamped with version v unless v is 0.
func (p Plan) errResponse(v int64) *lenient.Cell[Response] {
	return lenient.Ready(Response{Origin: p.tx.Origin, Seq: p.tx.Seq, Kind: p.tx.Kind, Err: p.err, Version: v})
}
