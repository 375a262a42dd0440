// Package relation abstracts the persistent representations a relation can
// take. The paper's experiments use the linked list (Section 4); Section
// 2.2 argues tree and paged representations share even more structure
// ("all but a proportion (log n)/n of a relation can be shared during
// updating"). The Relation interface lets the rest of the engine — and the
// experiments — swap representations without change, which is how the
// representation ablation is run.
//
// All implementations are purely functional: updates return new relation
// values and never disturb old ones.
package relation

import (
	"fmt"

	"funcdb/internal/eval"
	"funcdb/internal/plist"
	"funcdb/internal/ptree"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// Rep names a relation representation.
type Rep uint8

// Available representations.
const (
	// RepList is the paper's experimental representation: a key-sorted
	// persistent linked list.
	RepList Rep = iota + 1
	// RepAVL is a persistent AVL tree (Myers [18], "Efficient applicative
	// data types").
	RepAVL
	// Rep23 is a persistent 2-3 tree (Hoffman & O'Donnell [8]).
	Rep23
	// RepPaged is a persistent paged B-tree with directory pages (Figure
	// 2-2, Section 3.3).
	RepPaged
)

// DefaultRep is the representation a relation gets when none is named: a
// store opened without a representation, "create R" without "using", and
// every relation of a cluster node. A paged write copies one path of
// page-wide nodes (Section 3.3), where a list write copies the list's
// prefix, O(n).
const DefaultRep = RepPaged

// String returns the representation name.
func (r Rep) String() string {
	switch r {
	case RepList:
		return "list"
	case RepAVL:
		return "avl"
	case Rep23:
		return "2-3"
	case RepPaged:
		return "paged"
	default:
		return fmt.Sprintf("Rep(%d)", uint8(r))
	}
}

// Relation is one persistent relation: a set of tuples keyed by their first
// field. Implementations are immutable; operations return new values.
type Relation interface {
	// Rep identifies the representation.
	Rep() Rep
	// Len returns the number of tuples.
	Len() int
	// HeadTask is the constructor task of this version's root, i.e. when
	// the version became available as an object (None if pre-existing).
	HeadTask() trace.TaskID
	// Find searches for key, returning the tuple, whether it was found,
	// and the determining task.
	Find(ctx *eval.Ctx, key value.Item, after trace.TaskID) (value.Tuple, bool, trace.TaskID)
	// Insert adds t (replacing an equal-keyed tuple), returning the new
	// version and its op trace.
	Insert(ctx *eval.Ctx, t value.Tuple, after trace.TaskID) (Relation, trace.Op)
	// Delete removes the tuple keyed key if present, returning the new
	// version, whether a tuple was removed, and the op trace.
	Delete(ctx *eval.Ctx, key value.Item, after trace.TaskID) (Relation, bool, trace.Op)
	// Range visits tuples with lo <= key <= hi in key order and returns
	// the final task.
	Range(ctx *eval.Ctx, lo, hi value.Item, after trace.TaskID, visit func(value.Tuple)) trace.TaskID
	// Tuples returns the contents in key order.
	Tuples() []value.Tuple
}

// New returns an empty relation of the given representation.
func New(rep Rep) Relation {
	return FromTuples(rep, nil)
}

// FromTuples builds a relation of the given representation from
// pre-existing tuples (untraced, as initial data). Tuples may come in any
// order; of equal keys the last one wins, as if they had been inserted one
// by one. Every representation is built in one O(n) pass with no path
// copying: input already in strictly ascending key order (a snapshot, a
// preload) is laid out as is, and any other is sorted once first
// (value.SortedByKey).
func FromTuples(rep Rep, tuples []value.Tuple) Relation {
	switch rep {
	case RepList:
		return listRelation{l: plist.FromTuples(tuples)}
	case RepAVL:
		return avlFromTuples(tuples)
	case Rep23:
		return tree23FromTuples(tuples)
	case RepPaged:
		return pagedFromTuples(tuples)
	default:
		panic(fmt.Sprintf("relation: unknown representation %v", rep))
	}
}

// listRelation adapts plist.List to the Relation interface.
type listRelation struct {
	l plist.List
}

var _ Relation = listRelation{}

func (r listRelation) Rep() Rep               { return RepList }
func (r listRelation) Len() int               { return r.l.Len() }
func (r listRelation) HeadTask() trace.TaskID { return r.l.HeadTask() }
func (r listRelation) Tuples() []value.Tuple  { return r.l.Tuples() }

func (r listRelation) Find(ctx *eval.Ctx, key value.Item, after trace.TaskID) (value.Tuple, bool, trace.TaskID) {
	return r.l.Find(ctx, key, after)
}

func (r listRelation) Insert(ctx *eval.Ctx, t value.Tuple, after trace.TaskID) (Relation, trace.Op) {
	nl, op := r.l.Insert(ctx, t, after)
	return listRelation{l: nl}, op
}

func (r listRelation) Delete(ctx *eval.Ctx, key value.Item, after trace.TaskID) (Relation, bool, trace.Op) {
	nl, found, op := r.l.Delete(ctx, key, after)
	return listRelation{l: nl}, found, op
}

func (r listRelation) Range(ctx *eval.Ctx, lo, hi value.Item, after trace.TaskID, visit func(value.Tuple)) trace.TaskID {
	return r.l.Range(ctx, lo, hi, after, visit)
}

// Diff calls visit, in key order, for every key whose tuple differs between
// two versions of a relation: with old's tuple and next's, the zero Tuple
// standing in for the one a version lacks. Two paged versions are walked
// page by page, skipping every page they share (ptree.Paged.Diff); any
// other pair is merged from two ordered scans.
func Diff(old, next Relation, visit func(old, new value.Tuple)) {
	if po, ok := Paged(old); ok {
		if pn, ok := Paged(next); ok {
			po.Diff(nil, pn, visit)
			return
		}
	}
	for a, b := old.Tuples(), next.Tuples(); len(a) > 0 || len(b) > 0; {
		a, b = ptree.DiffStep(a, b, visit)
	}
}
