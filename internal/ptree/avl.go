// Package ptree implements the persistent balanced-tree relation
// representations discussed in Section 2.2 of the paper: "The technique
// extends with even further sharing possibilities by making the directory
// structure into a tree. ... all but a proportion (log n)/n of a relation
// can be shared during updating."
//
// Three structures are provided:
//
//   - AVL: a persistent AVL tree, after Myers [18] ("Efficient applicative
//     data types").
//   - Tree23: a persistent 2-3 tree, after Hoffman & O'Donnell [8], whose
//     equational code the paper notes was transcribed to FEL.
//   - Paged: a persistent B+-tree of fixed-capacity pages with separate
//     directory pages, the structure of Figure 2-2 and Section 3.3 — and
//     what a cluster holds its relations in. A page is one allocation and
//     a version is its root page.
//
// A version that exists whole — initial data, a decoded snapshot — is not
// built by updating: each structure's FromTuples lays the key-sorted tuples
// out bottom-up in one O(n) pass, allocating only the nodes it keeps. Input
// in strictly ascending key order is taken as is; any other is sorted first
// and, of tuples with equal keys, the last is kept (value.SortedByKey). A
// Paged tree takes a run of inserts the same way (Paged.UpsertRun, of which
// PagedFromTuples is the case of the empty tree): one merge that rebuilds
// each page the run touches once.
//
// All other updates are by path copying: the nodes/pages on the search path are
// re-created, everything else is shared with the previous version. Unlike
// the linked list, a tree node's constructor depends on its new children's
// constructors (balance decisions need completed subtrees), so updates
// contribute short bottom-up chains of log n tasks rather than long
// pipelined spines — which is why the paper projects trees to be "even more
// efficient, since fewer nodes need to be modified on insertion". The page
// is that argument's second step: the path of a 16-way tree is 3 objects
// where a binary tree's is 10, at about twice the bytes.
package ptree

import (
	"funcdb/internal/eval"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// avlNode is one immutable AVL node.
type avlNode struct {
	tuple  value.Tuple
	left   *avlNode
	right  *avlNode
	height int8
	task   trace.TaskID
}

// AVL is a persistent AVL tree of tuples keyed by Tuple.Key. The zero AVL
// is empty and ready to use.
type AVL struct {
	root *avlNode
	size int
}

// AVLFromTuples builds a tree untraced from initial data, in any order;
// equal keys replace (the last one wins). The build is one pass over the
// key-sorted tuples (value.SortedByKey, which costs nothing on sorted
// input): each subtree's root is its middle tuple, so the tree is as low as
// n nodes allow and no node is built that is not kept.
func AVLFromTuples(tuples []value.Tuple) AVL {
	tuples = value.SortedByKey(tuples)
	return AVL{root: avlBuild(tuples), size: len(tuples)}
}

func avlBuild(tuples []value.Tuple) *avlNode {
	if len(tuples) == 0 {
		return nil
	}
	mid := len(tuples) / 2
	l, r := avlBuild(tuples[:mid]), avlBuild(tuples[mid+1:])
	return &avlNode{tuple: tuples[mid], left: l, right: r, height: max(height(l), height(r)) + 1}
}

// Len returns the number of tuples.
func (t AVL) Len() int { return t.size }

// HeadTask returns the root's constructor task (None when empty or
// pre-existing).
func (t AVL) HeadTask() trace.TaskID {
	if t.root == nil {
		return trace.None
	}
	return t.root.task
}

// Height returns the tree height (0 when empty).
func (t AVL) Height() int { return int(height(t.root)) }

func height(n *avlNode) int8 {
	if n == nil {
		return 0
	}
	return n.height
}

func balanceOf(n *avlNode) int { return int(height(n.left)) - int(height(n.right)) }

// Find searches for key with one visit task per node on the path.
func (t AVL) Find(ctx *eval.Ctx, key value.Item, after trace.TaskID) (value.Tuple, bool, trace.TaskID) {
	step := after
	for n := t.root; n != nil; {
		step = ctx.Task(trace.KindVisit, step, n.task)
		ctx.VisitedN(1)
		switch cmp := key.Compare(n.tuple.Key()); {
		case cmp == 0:
			return n.tuple, true, step
		case cmp < 0:
			n = n.left
		default:
			n = n.right
		}
	}
	return value.Tuple{}, false, step
}

// Insert returns a new tree containing tu (replacing an equal-keyed tuple).
// The op's Ready and Done coincide at the new root's constructor: tree
// shape depends on subtree balance, so the root cannot exist leniently
// before its children.
func (t AVL) Insert(ctx *eval.Ctx, tu value.Tuple, after trace.TaskID) (AVL, trace.Op) {
	ins := &avlOp{ctx: ctx, step: after}
	root, replaced := ins.insert(t.root, tu)
	size := t.size + 1
	if replaced {
		size = t.size
	}
	newSize := size
	ctx.SharedN(int64(newSize) - ins.created)
	return AVL{root: root, size: size}, trace.Op{Ready: root.task, Done: ins.step}
}

// avlOp threads the trace chain and allocation count through one update.
type avlOp struct {
	ctx     *eval.Ctx
	step    trace.TaskID
	created int64
}

func (o *avlOp) visit(n *avlNode) {
	o.step = o.ctx.Task(trace.KindVisit, o.step, n.task)
	o.ctx.VisitedN(1)
}

// mk constructs a new node whose task depends on the walk so far and on the
// constructors of its new children (old children contribute through the
// structure itself when later visited).
func (o *avlOp) mk(tu value.Tuple, l, r *avlNode) *avlNode {
	h := height(l)
	if hr := height(r); hr > h {
		h = hr
	}
	// A fixed array keeps the dependency list on the stack: one is built
	// per node, and an untraced update must not pay a heap slice for it.
	var buf [3]trace.TaskID
	deps := append(buf[:0], o.step)
	if l != nil {
		deps = append(deps, l.task)
	}
	if r != nil {
		deps = append(deps, r.task)
	}
	task := o.ctx.Task(trace.KindConstruct, deps...)
	o.step = task
	o.created++
	o.ctx.Created(1)
	return &avlNode{tuple: tu, left: l, right: r, height: h + 1, task: task}
}

// rebalance restores the AVL invariant for a freshly built node, creating
// the usual single/double rotations persistently.
func (o *avlOp) rebalance(n *avlNode) *avlNode {
	switch b := balanceOf(n); {
	case b > 1:
		if balanceOf(n.left) < 0 {
			// left-right: rotate left child left, then node right.
			n = o.mk(n.tuple, o.rotateLeft(n.left), n.right)
		}
		return o.rotateRight(n)
	case b < -1:
		if balanceOf(n.right) > 0 {
			n = o.mk(n.tuple, n.left, o.rotateRight(n.right))
		}
		return o.rotateLeft(n)
	default:
		return n
	}
}

func (o *avlOp) rotateRight(n *avlNode) *avlNode {
	l := n.left
	return o.mk(l.tuple, l.left, o.mk(n.tuple, l.right, n.right))
}

func (o *avlOp) rotateLeft(n *avlNode) *avlNode {
	r := n.right
	return o.mk(r.tuple, o.mk(n.tuple, n.left, r.left), r.right)
}

func (o *avlOp) insert(n *avlNode, tu value.Tuple) (*avlNode, bool) {
	if n == nil {
		return o.mk(tu, nil, nil), false
	}
	o.visit(n)
	switch cmp := tu.Key().Compare(n.tuple.Key()); {
	case cmp == 0:
		return o.mk(tu, n.left, n.right), true
	case cmp < 0:
		nl, replaced := o.insert(n.left, tu)
		return o.rebalance(o.mk(n.tuple, nl, n.right)), replaced
	default:
		nr, replaced := o.insert(n.right, tu)
		return o.rebalance(o.mk(n.tuple, n.left, nr)), replaced
	}
}

// Delete returns a new tree without key (reporting whether it was found).
// Like a strict functional deletion it path-copies down to the target and
// promotes the in-order successor when both children exist.
func (t AVL) Delete(ctx *eval.Ctx, key value.Item, after trace.TaskID) (AVL, bool, trace.Op) {
	op := &avlOp{ctx: ctx, step: after}
	root, found := op.delete(t.root, key)
	if !found {
		return t, false, trace.Op{Done: op.step}
	}
	size := t.size - 1
	ctx.SharedN(int64(size) - op.created)
	res := AVL{root: root, size: size}
	ready := trace.None
	if root != nil {
		ready = root.task
	} else {
		ready = op.step
	}
	return res, true, trace.Op{Ready: ready, Done: op.step}
}

func (o *avlOp) delete(n *avlNode, key value.Item) (*avlNode, bool) {
	if n == nil {
		return nil, false
	}
	o.visit(n)
	switch cmp := key.Compare(n.tuple.Key()); {
	case cmp < 0:
		nl, found := o.delete(n.left, key)
		if !found {
			return n, false
		}
		return o.rebalance(o.mk(n.tuple, nl, n.right)), true
	case cmp > 0:
		nr, found := o.delete(n.right, key)
		if !found {
			return n, false
		}
		return o.rebalance(o.mk(n.tuple, n.left, nr)), true
	default:
		switch {
		case n.left == nil:
			return n.right, true
		case n.right == nil:
			return n.left, true
		default:
			succ, nr := o.popMin(n.right)
			return o.rebalance(o.mk(succ, n.left, nr)), true
		}
	}
}

// popMin removes and returns the minimum tuple of a non-empty subtree.
func (o *avlOp) popMin(n *avlNode) (value.Tuple, *avlNode) {
	o.visit(n)
	if n.left == nil {
		return n.tuple, n.right
	}
	minTu, nl := o.popMin(n.left)
	return minTu, o.rebalance(o.mk(n.tuple, nl, n.right))
}

// Range visits tuples with lo <= key <= hi in key order, pruning subtrees
// outside the bounds.
func (t AVL) Range(ctx *eval.Ctx, lo, hi value.Item, after trace.TaskID, visit func(value.Tuple)) trace.TaskID {
	step := after
	var walk func(n *avlNode)
	walk = func(n *avlNode) {
		if n == nil {
			return
		}
		step = ctx.Task(trace.KindVisit, step, n.task)
		ctx.VisitedN(1)
		k := n.tuple.Key()
		if k.Compare(lo) > 0 {
			walk(n.left)
		}
		if k.Compare(lo) >= 0 && k.Compare(hi) <= 0 {
			visit(n.tuple)
		}
		if k.Compare(hi) < 0 {
			walk(n.right)
		}
	}
	walk(t.root)
	return step
}

// Tuples returns the contents in key order.
func (t AVL) Tuples() []value.Tuple {
	out := make([]value.Tuple, 0, t.size)
	var walk func(n *avlNode)
	walk = func(n *avlNode) {
		if n == nil {
			return
		}
		walk(n.left)
		out = append(out, n.tuple)
		walk(n.right)
	}
	walk(t.root)
	return out
}

// SharedNodesWith counts nodes physically shared with another version.
func (t AVL) SharedNodesWith(other AVL) int {
	set := map[*avlNode]struct{}{}
	var collect func(n *avlNode)
	collect = func(n *avlNode) {
		if n == nil {
			return
		}
		set[n] = struct{}{}
		collect(n.left)
		collect(n.right)
	}
	collect(other.root)
	n := 0
	var count func(nd *avlNode)
	count = func(nd *avlNode) {
		if nd == nil {
			return
		}
		if _, ok := set[nd]; ok {
			n++
		}
		count(nd.left)
		count(nd.right)
	}
	count(t.root)
	return n
}

// checkInvariants verifies AVL ordering and balance; used by tests.
func (t AVL) checkInvariants() error {
	var check func(n *avlNode) (int8, error)
	check = func(n *avlNode) (int8, error) {
		if n == nil {
			return 0, nil
		}
		hl, err := check(n.left)
		if err != nil {
			return 0, err
		}
		hr, err := check(n.right)
		if err != nil {
			return 0, err
		}
		if d := hl - hr; d < -1 || d > 1 {
			return 0, errImbalance{at: n.tuple.Key()}
		}
		h := hl
		if hr > h {
			h = hr
		}
		if n.height != h+1 {
			return 0, errHeight{at: n.tuple.Key()}
		}
		if n.left != nil && n.left.tuple.Key().Compare(n.tuple.Key()) >= 0 {
			return 0, errOrder{at: n.tuple.Key()}
		}
		if n.right != nil && n.right.tuple.Key().Compare(n.tuple.Key()) <= 0 {
			return 0, errOrder{at: n.tuple.Key()}
		}
		return h + 1, nil
	}
	_, err := check(t.root)
	return err
}

type errImbalance struct{ at value.Item }

func (e errImbalance) Error() string { return "ptree: AVL imbalance at " + e.at.String() }

type errHeight struct{ at value.Item }

func (e errHeight) Error() string { return "ptree: stale height at " + e.at.String() }

type errOrder struct{ at value.Item }

func (e errOrder) Error() string { return "ptree: ordering violation at " + e.at.String() }
