package relation

import (
	"funcdb/internal/eval"
	"funcdb/internal/ptree"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// avlRelation adapts ptree.AVL to the Relation interface.
type avlRelation struct {
	t ptree.AVL
}

var _ Relation = avlRelation{}

func avlFromTuples(tuples []value.Tuple) Relation {
	return avlRelation{t: ptree.AVLFromTuples(tuples)}
}

func (r avlRelation) Rep() Rep               { return RepAVL }
func (r avlRelation) Len() int               { return r.t.Len() }
func (r avlRelation) HeadTask() trace.TaskID { return r.t.HeadTask() }
func (r avlRelation) Tuples() []value.Tuple  { return r.t.Tuples() }

func (r avlRelation) Find(ctx *eval.Ctx, key value.Item, after trace.TaskID) (value.Tuple, bool, trace.TaskID) {
	return r.t.Find(ctx, key, after)
}

func (r avlRelation) Insert(ctx *eval.Ctx, t value.Tuple, after trace.TaskID) (Relation, trace.Op) {
	nt, op := r.t.Insert(ctx, t, after)
	return avlRelation{t: nt}, op
}

func (r avlRelation) Delete(ctx *eval.Ctx, key value.Item, after trace.TaskID) (Relation, bool, trace.Op) {
	nt, found, op := r.t.Delete(ctx, key, after)
	return avlRelation{t: nt}, found, op
}

func (r avlRelation) Range(ctx *eval.Ctx, lo, hi value.Item, after trace.TaskID, visit func(value.Tuple)) trace.TaskID {
	return r.t.Range(ctx, lo, hi, after, visit)
}

// tree23Relation adapts ptree.Tree23 to the Relation interface.
type tree23Relation struct {
	t ptree.Tree23
}

var _ Relation = tree23Relation{}

func tree23FromTuples(tuples []value.Tuple) Relation {
	return tree23Relation{t: ptree.Tree23FromTuples(tuples)}
}

func (r tree23Relation) Rep() Rep               { return Rep23 }
func (r tree23Relation) Len() int               { return r.t.Len() }
func (r tree23Relation) HeadTask() trace.TaskID { return r.t.HeadTask() }
func (r tree23Relation) Tuples() []value.Tuple  { return r.t.Tuples() }

func (r tree23Relation) Find(ctx *eval.Ctx, key value.Item, after trace.TaskID) (value.Tuple, bool, trace.TaskID) {
	return r.t.Find(ctx, key, after)
}

func (r tree23Relation) Insert(ctx *eval.Ctx, t value.Tuple, after trace.TaskID) (Relation, trace.Op) {
	nt, op := r.t.Insert(ctx, t, after)
	return tree23Relation{t: nt}, op
}

func (r tree23Relation) Delete(ctx *eval.Ctx, key value.Item, after trace.TaskID) (Relation, bool, trace.Op) {
	nt, found, op := r.t.Delete(ctx, key, after)
	return tree23Relation{t: nt}, found, op
}

func (r tree23Relation) Range(ctx *eval.Ctx, lo, hi value.Item, after trace.TaskID, visit func(value.Tuple)) trace.TaskID {
	return r.t.Range(ctx, lo, hi, after, visit)
}

// pagedRelation adapts ptree.Paged to the Relation interface.
type pagedRelation struct {
	t ptree.Paged
}

var _ Relation = pagedRelation{}

func pagedFromTuples(tuples []value.Tuple) Relation {
	return pagedRelation{t: ptree.PagedFromTuples(ptree.DefaultPageCap, tuples)}
}

// NewPagedWithCap returns an empty paged relation with an explicit page
// capacity, used by the Figure 2-2 experiments to sweep page sizes.
func NewPagedWithCap(pageCap int, tuples []value.Tuple) Relation {
	return pagedRelation{t: ptree.PagedFromTuples(pageCap, tuples)}
}

func (r pagedRelation) Rep() Rep               { return RepPaged }
func (r pagedRelation) Len() int               { return r.t.Len() }
func (r pagedRelation) HeadTask() trace.TaskID { return r.t.HeadTask() }
func (r pagedRelation) Tuples() []value.Tuple  { return r.t.Tuples() }

func (r pagedRelation) Find(ctx *eval.Ctx, key value.Item, after trace.TaskID) (value.Tuple, bool, trace.TaskID) {
	return r.t.Find(ctx, key, after)
}

func (r pagedRelation) Insert(ctx *eval.Ctx, t value.Tuple, after trace.TaskID) (Relation, trace.Op) {
	nt, op := r.t.Insert(ctx, t, after)
	return pagedRelation{t: nt}, op
}

func (r pagedRelation) Delete(ctx *eval.Ctx, key value.Item, after trace.TaskID) (Relation, bool, trace.Op) {
	nt, found, op := r.t.Delete(ctx, key, after)
	return pagedRelation{t: nt}, found, op
}

func (r pagedRelation) Range(ctx *eval.Ctx, lo, hi value.Item, after trace.TaskID, visit func(value.Tuple)) trace.TaskID {
	return r.t.Range(ctx, lo, hi, after, visit)
}

// UpsertRun returns the relation a run of inserts leaves, the last of equal
// keys winning. A paged relation takes the run as one page build
// (ptree.Paged.UpsertRun); other representations insert it tuple by tuple.
func UpsertRun(ctx *eval.Ctx, r Relation, tuples []value.Tuple) Relation {
	if pr, ok := r.(pagedRelation); ok {
		return pagedRelation{t: pr.t.UpsertRun(ctx, tuples)}
	}
	for _, tu := range tuples {
		r, _ = r.Insert(ctx, tu, trace.None)
	}
	return r
}

// Paged unwraps a paged relation for page-level statistics (Figure 2-2);
// ok is false for other representations.
func Paged(r Relation) (ptree.Paged, bool) {
	pr, ok := r.(pagedRelation)
	return pr.t, ok
}
