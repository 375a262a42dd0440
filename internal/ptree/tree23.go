package ptree

import (
	"errors"
	"fmt"

	"funcdb/internal/eval"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// t23 is one immutable 2-3 tree node. A 2-node holds one tuple and (if
// internal) two children; a 3-node holds two sorted tuples and three
// children. All leaves are at the same depth.
type t23 struct {
	tuples [2]value.Tuple
	ntup   int8
	kids   [3]*t23 // all nil for terminal nodes
	task   trace.TaskID
}

func (n *t23) terminal() bool { return n.kids[0] == nil }

// Tree23 is a persistent 2-3 tree of tuples keyed by Tuple.Key, after the
// equational formulation of Hoffman & O'Donnell that the paper cites as
// having been transcribed to FEL. The zero Tree23 is empty and ready to
// use.
type Tree23 struct {
	root  *t23
	size  int
	nodes int // nodes in the tree: kept by every update, never walked
}

// Tree23FromTuples builds a tree untraced from initial data, in any order;
// equal keys replace (the last one wins). The build is one pass over the
// key-sorted tuples (value.SortedByKey, which costs nothing on sorted
// input): the tree is given the least height h whose 3^h − 1 tuples hold
// them all, and every subtree's tuples are split evenly among two or three
// children, which keeps every leaf at depth h and every node a 2- or 3-node.
func Tree23FromTuples(tuples []value.Tuple) Tree23 {
	tuples = value.SortedByKey(tuples)
	if len(tuples) == 0 {
		return Tree23{}
	}
	most := 2 // 3^h − 1: the tuples a tree of height h holds at most
	for most < len(tuples) {
		most = 3*most + 2
	}
	t := Tree23{size: len(tuples)}
	t.root = t.build(tuples, most)
	return t
}

// build lays tuples out as a subtree holding at most most tuples. They
// number at least 2^h − 1 for its height h, so every child gets one.
func (t *Tree23) build(tuples []value.Tuple, most int) *t23 {
	t.nodes++
	n := &t23{}
	if most == 2 {
		n.ntup = int8(copy(n.tuples[:], tuples))
		return n
	}
	sub := (most - 2) / 3
	kids := 2
	if len(tuples)-1 > 2*sub {
		kids = 3
	}
	n.ntup = int8(kids - 1)
	below := len(tuples) - (kids - 1)
	for i, lo := 0, 0; i < kids; i++ {
		size := below / kids
		if i < below%kids {
			size++
		}
		n.kids[i] = t.build(tuples[lo:lo+size], sub)
		lo += size
		if i < kids-1 {
			n.tuples[i] = tuples[lo]
			lo++
		}
	}
	return n
}

// Len returns the number of tuples.
func (t Tree23) Len() int { return t.size }

// HeadTask returns the root's constructor task.
func (t Tree23) HeadTask() trace.TaskID {
	if t.root == nil {
		return trace.None
	}
	return t.root.task
}

// Height returns the number of levels (0 when empty).
func (t Tree23) Height() int {
	h := 0
	for n := t.root; n != nil; n = n.kids[0] {
		h++
		if n.terminal() {
			break
		}
	}
	return h
}

// t23op threads tracing state through one operation. created counts every
// node it builds, dropped every node that is not in the tree it returns:
// each node on the path it copies, each sibling a repair merges or borrows
// from, and each transient node (a hole, a copy made only to be repaired).
type t23op struct {
	ctx     *eval.Ctx
	step    trace.TaskID
	created int64
	dropped int64
}

// visit notes a node on the path: an update that goes on to succeed
// replaces it with a copy.
func (o *t23op) visit(n *t23) {
	o.step = o.ctx.Task(trace.KindVisit, o.step, n.task)
	o.ctx.VisitedN(1)
	o.dropped++
}

// result returns the tree an update made of t, its node count carried over
// rather than recounted: t's nodes, plus what the update built, minus what
// it left behind.
func (o *t23op) result(t Tree23, root *t23, size int) Tree23 {
	return Tree23{root: root, size: size, nodes: t.nodes + int(o.created-o.dropped)}
}

func (o *t23op) mk2(tu value.Tuple, l, r *t23) *t23 {
	return o.build(&t23{tuples: [2]value.Tuple{tu}, ntup: 1, kids: [3]*t23{l, r}})
}

func (o *t23op) mk3(tu1, tu2 value.Tuple, l, m, r *t23) *t23 {
	return o.build(&t23{tuples: [2]value.Tuple{tu1, tu2}, ntup: 2, kids: [3]*t23{l, m, r}})
}

func (o *t23op) build(n *t23) *t23 {
	var buf [4]trace.TaskID // on the stack: see avlOp.mk
	deps := append(buf[:0], o.step)
	for _, k := range n.kids {
		if k != nil {
			deps = append(deps, k.task)
		}
	}
	n.task = o.ctx.Task(trace.KindConstruct, deps...)
	o.step = n.task
	o.created++
	o.ctx.Created(1)
	return n
}

// Find searches for key.
func (t Tree23) Find(ctx *eval.Ctx, key value.Item, after trace.TaskID) (value.Tuple, bool, trace.TaskID) {
	step := after
	n := t.root
	for n != nil {
		step = ctx.Task(trace.KindVisit, step, n.task)
		ctx.VisitedN(1)
		i := int8(0)
		for ; i < n.ntup; i++ {
			cmp := key.Compare(n.tuples[i].Key())
			if cmp == 0 {
				return n.tuples[i], true, step
			}
			if cmp < 0 {
				break
			}
		}
		if n.terminal() {
			return value.Tuple{}, false, step
		}
		n = n.kids[i]
	}
	return value.Tuple{}, false, step
}

// kick carries a subtree split upward during insertion: the subtree became
// [left, mid, right] and the parent must absorb mid.
type kick struct {
	mid         value.Tuple
	left, right *t23
}

// Insert returns a new tree containing tu (replacing an equal-keyed tuple).
func (t Tree23) Insert(ctx *eval.Ctx, tu value.Tuple, after trace.TaskID) (Tree23, trace.Op) {
	op := &t23op{ctx: ctx, step: after}
	if t.root == nil {
		root := op.mk2(tu, nil, nil)
		ctx.SharedN(0)
		return op.result(t, root, 1), trace.Op{Ready: root.task, Done: op.step}
	}
	node, up, replaced := op.insert(t.root, tu)
	if up != nil {
		node = op.mk2(up.mid, up.left, up.right)
	}
	size := t.size + 1
	if replaced {
		size = t.size
	}
	res := op.result(t, node, size)
	ctx.SharedN(int64(res.nodes) - op.created)
	return res, trace.Op{Ready: node.task, Done: op.step}
}

// insert returns either a rebuilt node (kick == nil) or a split.
func (o *t23op) insert(n *t23, tu value.Tuple) (*t23, *kick, bool) {
	o.visit(n)
	key := tu.Key()

	// Position i: index of first tuple with key <= tuples[i].key; replace
	// in place on equality.
	i := int8(0)
	for ; i < n.ntup; i++ {
		cmp := key.Compare(n.tuples[i].Key())
		if cmp == 0 {
			if n.ntup == 1 {
				return o.mk2(tu, n.kids[0], n.kids[1]), nil, true
			}
			if i == 0 {
				return o.mk3(tu, n.tuples[1], n.kids[0], n.kids[1], n.kids[2]), nil, true
			}
			return o.mk3(n.tuples[0], tu, n.kids[0], n.kids[1], n.kids[2]), nil, true
		}
		if cmp < 0 {
			break
		}
	}

	if n.terminal() {
		if n.ntup == 1 {
			// 2-node absorbs the tuple, becoming a 3-node.
			if i == 0 {
				return o.mk3(tu, n.tuples[0], nil, nil, nil), nil, false
			}
			return o.mk3(n.tuples[0], tu, nil, nil, nil), nil, false
		}
		// 3-node splits; middle kicks up.
		a, b := n.tuples[0], n.tuples[1]
		var lo, mid, hi value.Tuple
		switch i {
		case 0:
			lo, mid, hi = tu, a, b
		case 1:
			lo, mid, hi = a, tu, b
		default:
			lo, mid, hi = a, b, tu
		}
		l := o.mk2(lo, nil, nil)
		r := o.mk2(hi, nil, nil)
		return nil, &kick{mid: mid, left: l, right: r}, false
	}

	child, up, replaced := o.insert(n.kids[i], tu)
	if up == nil {
		// Child rebuilt without splitting: copy this node with the new
		// child in place.
		kids := n.kids
		kids[i] = child
		if n.ntup == 1 {
			return o.mk2(n.tuples[0], kids[0], kids[1]), nil, replaced
		}
		return o.mk3(n.tuples[0], n.tuples[1], kids[0], kids[1], kids[2]), nil, replaced
	}

	// Child split: absorb the kicked tuple.
	if n.ntup == 1 {
		// 2-node becomes a 3-node.
		if i == 0 {
			return o.mk3(up.mid, n.tuples[0], up.left, up.right, n.kids[1]), nil, replaced
		}
		return o.mk3(n.tuples[0], up.mid, n.kids[0], up.left, up.right), nil, replaced
	}
	// 3-node splits in turn.
	a, b := n.tuples[0], n.tuples[1]
	switch i {
	case 0:
		l := o.mk2(up.mid, up.left, up.right)
		r := o.mk2(b, n.kids[1], n.kids[2])
		return nil, &kick{mid: a, left: l, right: r}, replaced
	case 1:
		l := o.mk2(a, n.kids[0], up.left)
		r := o.mk2(b, up.right, n.kids[2])
		return nil, &kick{mid: up.mid, left: l, right: r}, replaced
	default:
		l := o.mk2(a, n.kids[0], n.kids[1])
		r := o.mk2(up.mid, up.left, up.right)
		return nil, &kick{mid: b, left: l, right: r}, replaced
	}
}

// Delete returns a new tree without key, reporting whether it was found.
// Underflow ("holes") propagates upward with the standard borrow/merge
// repairs, all performed persistently.
func (t Tree23) Delete(ctx *eval.Ctx, key value.Item, after trace.TaskID) (Tree23, bool, trace.Op) {
	if t.root == nil {
		return t, false, trace.Op{}
	}
	op := &t23op{ctx: ctx, step: after}
	node, shrunk, found := op.delete(t.root, key)
	if !found {
		return t, false, trace.Op{Done: op.step}
	}
	if shrunk {
		// The root lost its only tuple; its single surviving child (or
		// nothing) becomes the root.
		node = node.kids[0]
	}
	res := op.result(t, node, t.size-1)
	if node != nil {
		// Holes and pre-fix copies are transient values not present in the
		// final tree, so the sharing estimate is clamped at zero.
		if shared := int64(res.nodes) - op.created; shared > 0 {
			ctx.SharedN(shared)
		}
		return res, true, trace.Op{Ready: node.task, Done: op.step}
	}
	return res, true, trace.Op{Ready: op.step, Done: op.step}
}

// delete removes key from the subtree at n. The returned node is the
// rebuilt subtree; shrunk reports that it is a "hole": a pseudo-node with
// ntup == 0 and exactly one child (kids[0]) that is one level shorter than
// the original subtree.
func (o *t23op) delete(n *t23, key value.Item) (node *t23, shrunk, found bool) {
	o.visit(n)

	i := int8(0)
	match := int8(-1)
	for ; i < n.ntup; i++ {
		cmp := key.Compare(n.tuples[i].Key())
		if cmp == 0 {
			match = i
			break
		}
		if cmp < 0 {
			break
		}
	}

	if n.terminal() {
		if match < 0 {
			return n, false, false
		}
		if n.ntup == 2 {
			keep := n.tuples[1-match]
			return o.mk2(keep, nil, nil), false, true
		}
		// Removing the only tuple of a terminal 2-node leaves a hole.
		return o.hole(nil), true, true
	}

	if match >= 0 {
		// Interior match: replace with the in-order successor (min of the
		// child right of the match), then treat as deletion in that child.
		succ, child, shrunkChild := o.popMin23(n.kids[match+1])
		swapped := o.replaceTuple(n, match, succ)
		fixed := o.fix(swapped, match+1, child, shrunkChild)
		return fixed, fixed.ntup == 0, true
	}

	child, shrunkChild, found := o.delete(n.kids[i], key)
	if !found {
		return n, false, false
	}
	fixed := o.fix(n, i, child, shrunkChild)
	return fixed, fixed.ntup == 0, true
}

// hole builds the pseudo-node representing an underflowed subtree.
func (o *t23op) hole(child *t23) *t23 {
	o.dropped++
	return o.build(&t23{ntup: 0, kids: [3]*t23{child, nil, nil}})
}

// replaceTuple copies n with tuple i replaced (children unchanged; the
// caller immediately re-fixes the affected child slot).
func (o *t23op) replaceTuple(n *t23, i int8, tu value.Tuple) *t23 {
	cp := *n
	cp.tuples[i] = tu
	o.dropped++
	return o.build(&cp)
}

// popMin23 removes the minimum tuple of the subtree, returning it plus the
// rebuilt subtree and whether it shrunk.
func (o *t23op) popMin23(n *t23) (value.Tuple, *t23, bool) {
	o.visit(n)
	if n.terminal() {
		if n.ntup == 2 {
			return n.tuples[0], o.mk2(n.tuples[1], nil, nil), false
		}
		return n.tuples[0], o.hole(nil), true
	}
	minTu, child, shrunk := o.popMin23(n.kids[0])
	fixed := o.fix(n, 0, child, shrunk)
	return minTu, fixed, fixed.ntup == 0
}

// fix rebuilds n with child slot i replaced by child; when the child is a
// hole (shrunk), it repairs by borrowing from or merging with a sibling.
// The result may itself be a hole (ntup == 0 with one child).
func (o *t23op) fix(n *t23, i int8, child *t23, shrunk bool) *t23 {
	if !shrunk {
		kids := n.kids
		kids[i] = child
		if n.ntup == 1 {
			return o.mk2(n.tuples[0], kids[0], kids[1])
		}
		return o.mk3(n.tuples[0], n.tuples[1], kids[0], kids[1], kids[2])
	}
	// child is a hole: its single subtree is child.kids[0]. Every repair
	// below rebuilds exactly one sibling of it into new nodes.
	h := child.kids[0]
	o.dropped++
	if n.ntup == 1 {
		// Parent is a 2-node with sibling s.
		if i == 0 {
			s := n.kids[1]
			if s.ntup == 2 {
				// Borrow: rotate s's left tuple through the parent.
				l := o.mk2(n.tuples[0], h, s.kids[0])
				r := o.mk2(s.tuples[1], s.kids[1], s.kids[2])
				return o.mk2(s.tuples[0], l, r)
			}
			// Merge parent tuple + sibling into a 3-node; hole moves up.
			m := o.mk3(n.tuples[0], s.tuples[0], h, s.kids[0], s.kids[1])
			return o.hole(m)
		}
		s := n.kids[0]
		if s.ntup == 2 {
			l := o.mk2(s.tuples[0], s.kids[0], s.kids[1])
			r := o.mk2(n.tuples[0], s.kids[2], h)
			return o.mk2(s.tuples[1], l, r)
		}
		m := o.mk3(s.tuples[0], n.tuples[0], s.kids[0], s.kids[1], h)
		return o.hole(m)
	}
	// Parent is a 3-node: always repairable without propagating.
	switch i {
	case 0:
		s := n.kids[1]
		if s.ntup == 2 {
			l := o.mk2(n.tuples[0], h, s.kids[0])
			m := o.mk2(s.tuples[1], s.kids[1], s.kids[2])
			return o.mk3(s.tuples[0], n.tuples[1], l, m, n.kids[2])
		}
		m := o.mk3(n.tuples[0], s.tuples[0], h, s.kids[0], s.kids[1])
		return o.mk2(n.tuples[1], m, n.kids[2])
	case 1:
		s := n.kids[0]
		if s.ntup == 2 {
			l := o.mk2(s.tuples[0], s.kids[0], s.kids[1])
			m := o.mk2(n.tuples[0], s.kids[2], h)
			return o.mk3(s.tuples[1], n.tuples[1], l, m, n.kids[2])
		}
		right := n.kids[2]
		if right.ntup == 2 {
			m := o.mk2(n.tuples[1], h, right.kids[0])
			r := o.mk2(right.tuples[1], right.kids[1], right.kids[2])
			return o.mk3(n.tuples[0], right.tuples[0], n.kids[0], m, r)
		}
		m := o.mk3(s.tuples[0], n.tuples[0], s.kids[0], s.kids[1], h)
		return o.mk2(n.tuples[1], m, n.kids[2])
	default:
		s := n.kids[1]
		if s.ntup == 2 {
			m := o.mk2(s.tuples[0], s.kids[0], s.kids[1])
			r := o.mk2(n.tuples[1], s.kids[2], h)
			return o.mk3(n.tuples[0], s.tuples[1], n.kids[0], m, r)
		}
		m := o.mk3(s.tuples[0], n.tuples[1], s.kids[0], s.kids[1], h)
		return o.mk2(n.tuples[0], n.kids[0], m)
	}
}

// Range visits tuples with lo <= key <= hi in key order.
func (t Tree23) Range(ctx *eval.Ctx, lo, hi value.Item, after trace.TaskID, visit func(value.Tuple)) trace.TaskID {
	step := after
	inRange := func(k value.Item) bool {
		return k.Compare(lo) >= 0 && k.Compare(hi) <= 0
	}
	var walk func(n *t23)
	walk = func(n *t23) {
		step = ctx.Task(trace.KindVisit, step, n.task)
		ctx.VisitedN(1)
		if n.terminal() {
			for i := int8(0); i < n.ntup; i++ {
				if inRange(n.tuples[i].Key()) {
					visit(n.tuples[i])
				}
			}
			return
		}
		for i := int8(0); i <= n.ntup; i++ {
			// Child i holds keys in (tuples[i-1], tuples[i]); prune
			// subtrees wholly outside [lo, hi].
			couldHold := (i == 0 || n.tuples[i-1].Key().Compare(hi) < 0) &&
				(i == n.ntup || n.tuples[i].Key().Compare(lo) > 0)
			if couldHold {
				walk(n.kids[i])
			}
			if i < n.ntup && inRange(n.tuples[i].Key()) {
				visit(n.tuples[i])
			}
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return step
}

// Tuples returns the contents in key order.
func (t Tree23) Tuples() []value.Tuple {
	out := make([]value.Tuple, 0, t.size)
	var walk func(n *t23)
	walk = func(n *t23) {
		if n == nil {
			return
		}
		for i := int8(0); i < n.ntup; i++ {
			walk(n.kids[i])
			out = append(out, n.tuples[i])
		}
		walk(n.kids[n.ntup])
	}
	walk(t.root)
	return out
}

// checkInvariants verifies 2-3 shape: uniform leaf depth and 1-2 tuples
// per node with correctly interleaved keys; used by tests.
func (t Tree23) checkInvariants() error {
	if t.root == nil {
		return nil
	}
	var depth func(n *t23) (int, error)
	depth = func(n *t23) (int, error) {
		if n.ntup < 1 || n.ntup > 2 {
			return 0, fmt.Errorf("ptree: node with %d tuples", n.ntup)
		}
		if n.terminal() {
			for i := n.ntup; i < 3; i++ {
				if n.kids[i] != nil {
					return 0, errors.New("ptree: terminal node with children")
				}
			}
			return 1, nil
		}
		want := -1
		for i := int8(0); i <= n.ntup; i++ {
			if n.kids[i] == nil {
				return 0, errors.New("ptree: internal node missing child")
			}
			d, err := depth(n.kids[i])
			if err != nil {
				return 0, err
			}
			if want == -1 {
				want = d
			} else if d != want {
				return 0, errors.New("ptree: leaves at differing depths")
			}
		}
		return want + 1, nil
	}
	if _, err := depth(t.root); err != nil {
		return err
	}
	tuples := t.Tuples()
	for i := 1; i < len(tuples); i++ {
		if tuples[i-1].Key().Compare(tuples[i].Key()) >= 0 {
			return errors.New("ptree: keys out of order")
		}
	}
	if len(tuples) != t.size {
		return fmt.Errorf("ptree: size %d but %d tuples", t.size, len(tuples))
	}
	return nil
}
