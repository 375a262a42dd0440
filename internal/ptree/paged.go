package ptree

import (
	"errors"
	"fmt"

	"funcdb/internal/eval"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// DefaultPageCap is the default tuple/child capacity of a page: the paper's
// "balanced tree strategy in which the size of a tree node is one physical
// page" (Section 3.3). The small default keeps toy relations multi-page so
// the Figure 2-2 sharing structure is visible; production embedders tune it
// to their real page size.
const DefaultPageCap = 8

// page is one immutable page: either a data page of sorted tuples or a
// directory page of separator keys and children (Figure 2-2's "data pages"
// and "directory pages").
type page struct {
	leaf   bool
	tuples []value.Tuple // data pages: sorted by key
	seps   []value.Item  // directory pages: len(kids)-1 separators
	kids   []*page
	task   trace.TaskID
}

// Paged is a persistent B+-tree of fixed-capacity pages. Updating re-creates
// only the pages on the root-to-leaf path ("If an insertion or modification
// affects only a few pages, then all other pages can be shared. A new
// directory structure is created, the old one being left intact." —
// Section 2.2). The zero Paged is invalid; use NewPaged or PagedFromTuples.
type Paged struct {
	root *page
	size int
	cap  int
}

// NewPaged returns an empty paged tree with the given page capacity
// (DefaultPageCap if cap <= 0; minimum useful capacity is 2).
func NewPaged(pageCap int) Paged {
	if pageCap <= 0 {
		pageCap = DefaultPageCap
	}
	if pageCap < 2 {
		pageCap = 2
	}
	return Paged{root: &page{leaf: true}, cap: pageCap}
}

// PagedFromTuples bulk-builds a paged tree untraced from initial data.
func PagedFromTuples(pageCap int, tuples []value.Tuple) Paged {
	t := NewPaged(pageCap)
	for _, tu := range tuples {
		t, _ = t.Insert(nil, tu, trace.None)
	}
	return t
}

// Len returns the number of tuples.
func (t Paged) Len() int { return t.size }

// PageCap returns the page capacity.
func (t Paged) PageCap() int { return t.cap }

// HeadTask returns the root directory page's constructor task.
func (t Paged) HeadTask() trace.TaskID {
	if t.root == nil {
		return trace.None
	}
	return t.root.task
}

// PageCount returns the total number of pages in this version.
func (t Paged) PageCount() int {
	var count func(p *page) int
	count = func(p *page) int {
		n := 1
		for _, k := range p.kids {
			n += count(k)
		}
		return n
	}
	if t.root == nil {
		return 0
	}
	return count(t.root)
}

// Height returns the number of page levels.
func (t Paged) Height() int {
	h := 0
	for p := t.root; p != nil; {
		h++
		if p.leaf {
			break
		}
		p = p.kids[0]
	}
	return h
}

// childIndex returns the child slot covering key within a directory page:
// the first i with key < seps[i], else the last child.
func childIndex(p *page, key value.Item) int {
	i := 0
	for ; i < len(p.seps); i++ {
		if key.Compare(p.seps[i]) < 0 {
			break
		}
	}
	return i
}

// Find searches for key with one visit task per page on the path — the
// paper's point that "the transit time of a page from secondary to main
// memory is likely to dominate the processing time", so the page is the
// honest unit of work.
func (t Paged) Find(ctx *eval.Ctx, key value.Item, after trace.TaskID) (value.Tuple, bool, trace.TaskID) {
	step := after
	p := t.root
	for {
		step = ctx.Task(trace.KindVisit, step, p.task)
		ctx.VisitedN(1)
		if p.leaf {
			for _, tu := range p.tuples {
				if c := tu.Key().Compare(key); c == 0 {
					return tu, true, step
				} else if c > 0 {
					break
				}
			}
			return value.Tuple{}, false, step
		}
		p = p.kids[childIndex(p, key)]
	}
}

// pagedOp threads tracing through one update and counts copied pages for
// the Figure 2-2 sharing measurements.
type pagedOp struct {
	ctx      *eval.Ctx
	step     trace.TaskID
	created  int64
	capacity int
}

func (o *pagedOp) visit(p *page) {
	o.step = o.ctx.Task(trace.KindVisit, o.step, p.task)
	o.ctx.VisitedN(1)
}

func (o *pagedOp) build(p *page) *page {
	// A page has as many children as its capacity allows, so the
	// dependency list is a heap slice: build it only for a tracer.
	if o.ctx != nil && o.ctx.Graph != nil {
		deps := []trace.TaskID{o.step}
		for _, k := range p.kids {
			if k != nil && k.task != trace.None {
				deps = append(deps, k.task)
			}
		}
		p.task = o.ctx.Task(trace.KindConstruct, deps...)
	}
	o.step = p.task
	o.created++
	o.ctx.Created(1)
	return p
}

// pagedSplit carries a page split upward: the child became [left, right]
// separated by sep.
type pagedSplit struct {
	sep         value.Item
	left, right *page
}

// Insert returns a new tree containing tu (replacing an equal-keyed tuple).
// Exactly the root-to-leaf path is copied; on overflow a page splits and
// the split propagates.
func (t Paged) Insert(ctx *eval.Ctx, tu value.Tuple, after trace.TaskID) (Paged, trace.Op) {
	op := &pagedOp{ctx: ctx, step: after, capacity: t.cap}
	root, split, replaced := op.insert(t.root, tu)
	if split != nil {
		root = op.build(&page{
			seps: []value.Item{split.sep},
			kids: []*page{split.left, split.right},
		})
	}
	size := t.size + 1
	if replaced {
		size = t.size
	}
	nt := Paged{root: root, size: size, cap: t.cap}
	ctx.SharedN(int64(nt.PageCount()) - op.created)
	return nt, trace.Op{Ready: root.task, Done: op.step}
}

func (o *pagedOp) insertInLeaf(p *page, tu value.Tuple) (tuples []value.Tuple, replaced bool) {
	key := tu.Key()
	tuples = make([]value.Tuple, 0, len(p.tuples)+1)
	inserted := false
	for _, cur := range p.tuples {
		if !inserted {
			switch c := cur.Key().Compare(key); {
			case c == 0:
				tuples = append(tuples, tu)
				inserted, replaced = true, true
				continue
			case c > 0:
				tuples = append(tuples, tu)
				inserted = true
			}
		}
		tuples = append(tuples, cur)
	}
	if !inserted {
		tuples = append(tuples, tu)
	}
	return tuples, replaced
}

func (o *pagedOp) insert(p *page, tu value.Tuple) (*page, *pagedSplit, bool) {
	o.visit(p)
	if p.leaf {
		tuples, replaced := o.insertInLeaf(p, tu)
		if len(tuples) <= o.capacity {
			return o.build(&page{leaf: true, tuples: tuples}), nil, replaced
		}
		mid := len(tuples) / 2
		left := o.build(&page{leaf: true, tuples: tuples[:mid:mid]})
		right := o.build(&page{leaf: true, tuples: tuples[mid:]})
		return nil, &pagedSplit{sep: tuples[mid].Key(), left: left, right: right}, replaced
	}

	i := childIndex(p, tu.Key())
	child, split, replaced := o.insert(p.kids[i], tu)
	if split == nil {
		kids := append([]*page(nil), p.kids...)
		kids[i] = child
		return o.build(&page{seps: p.seps, kids: kids}), nil, replaced
	}
	seps := make([]value.Item, 0, len(p.seps)+1)
	kids := make([]*page, 0, len(p.kids)+1)
	seps = append(seps, p.seps[:i]...)
	seps = append(seps, split.sep)
	seps = append(seps, p.seps[i:]...)
	kids = append(kids, p.kids[:i]...)
	kids = append(kids, split.left, split.right)
	kids = append(kids, p.kids[i+1:]...)
	if len(kids) <= o.capacity {
		return o.build(&page{seps: seps, kids: kids}), nil, replaced
	}
	// Directory overflow: split around the middle separator.
	mid := len(kids) / 2
	leftSeps := append([]value.Item(nil), seps[:mid-1]...)
	rightSeps := append([]value.Item(nil), seps[mid:]...)
	left := o.build(&page{seps: leftSeps, kids: append([]*page(nil), kids[:mid]...)})
	right := o.build(&page{seps: rightSeps, kids: append([]*page(nil), kids[mid:]...)})
	return nil, &pagedSplit{sep: seps[mid-1], left: left, right: right}, replaced
}

// Delete removes key if present. In the spirit of append-only functional
// stores (and the paper's archive view of old versions), pages may
// underflow: an emptied data page is unlinked from its directory and a
// directory left with a single child collapses, but no borrow/merge
// rebalancing is performed. Height never grows and lookups remain correct;
// see DESIGN.md for the deviation note.
func (t Paged) Delete(ctx *eval.Ctx, key value.Item, after trace.TaskID) (Paged, bool, trace.Op) {
	op := &pagedOp{ctx: ctx, step: after, capacity: t.cap}
	root, found := op.delete(t.root, key)
	if !found {
		return t, false, trace.Op{Done: op.step}
	}
	if root == nil {
		root = op.build(&page{leaf: true})
	}
	for !root.leaf && len(root.kids) == 1 {
		root = root.kids[0]
	}
	nt := Paged{root: root, size: t.size - 1, cap: t.cap}
	if shared := int64(nt.PageCount()) - op.created; shared > 0 {
		ctx.SharedN(shared)
	}
	ready := root.task
	if ready == trace.None {
		ready = op.step
	}
	return nt, true, trace.Op{Ready: ready, Done: op.step}
}

// delete returns the rebuilt page (nil if it became empty) and whether the
// key was found.
func (o *pagedOp) delete(p *page, key value.Item) (*page, bool) {
	o.visit(p)
	if p.leaf {
		for i, tu := range p.tuples {
			c := tu.Key().Compare(key)
			if c > 0 {
				break
			}
			if c == 0 {
				if len(p.tuples) == 1 {
					return nil, true
				}
				tuples := make([]value.Tuple, 0, len(p.tuples)-1)
				tuples = append(tuples, p.tuples[:i]...)
				tuples = append(tuples, p.tuples[i+1:]...)
				return o.build(&page{leaf: true, tuples: tuples}), true
			}
		}
		return p, false
	}
	i := childIndex(p, key)
	child, found := o.delete(p.kids[i], key)
	if !found {
		return p, false
	}
	if child != nil {
		kids := append([]*page(nil), p.kids...)
		kids[i] = child
		return o.build(&page{seps: p.seps, kids: kids}), true
	}
	// The child page emptied: unlink it and drop one separator.
	if len(p.kids) == 1 {
		return nil, true
	}
	kids := make([]*page, 0, len(p.kids)-1)
	kids = append(kids, p.kids[:i]...)
	kids = append(kids, p.kids[i+1:]...)
	sepDrop := i
	if sepDrop == len(p.seps) {
		sepDrop = len(p.seps) - 1
	}
	seps := make([]value.Item, 0, len(p.seps)-1)
	seps = append(seps, p.seps[:sepDrop]...)
	seps = append(seps, p.seps[sepDrop+1:]...)
	return o.build(&page{seps: seps, kids: kids}), true
}

// Range visits tuples with lo <= key <= hi in key order.
func (t Paged) Range(ctx *eval.Ctx, lo, hi value.Item, after trace.TaskID, visit func(value.Tuple)) trace.TaskID {
	step := after
	var walk func(p *page)
	walk = func(p *page) {
		step = ctx.Task(trace.KindVisit, step, p.task)
		ctx.VisitedN(1)
		if p.leaf {
			for _, tu := range p.tuples {
				k := tu.Key()
				if k.Compare(hi) > 0 {
					return
				}
				if k.Compare(lo) >= 0 {
					visit(tu)
				}
			}
			return
		}
		for i, kid := range p.kids {
			okLeft := i == 0 || p.seps[i-1].Compare(hi) <= 0
			okRight := i == len(p.seps) || p.seps[i].Compare(lo) > 0
			if okLeft && okRight {
				walk(kid)
			}
		}
	}
	walk(t.root)
	return step
}

// Tuples returns the contents in key order.
func (t Paged) Tuples() []value.Tuple {
	out := make([]value.Tuple, 0, t.size)
	var walk func(p *page)
	walk = func(p *page) {
		if p.leaf {
			out = append(out, p.tuples...)
			return
		}
		for _, kid := range p.kids {
			walk(kid)
		}
	}
	walk(t.root)
	return out
}

// SharedPagesWith counts pages physically shared with another version —
// the measured form of Figure 2-2.
func (t Paged) SharedPagesWith(other Paged) int {
	set := map[*page]struct{}{}
	var collect func(p *page)
	collect = func(p *page) {
		set[p] = struct{}{}
		for _, k := range p.kids {
			collect(k)
		}
	}
	if other.root != nil {
		collect(other.root)
	}
	n := 0
	var count func(p *page)
	count = func(p *page) {
		if _, ok := set[p]; ok {
			n++
		}
		for _, k := range p.kids {
			count(k)
		}
	}
	if t.root != nil {
		count(t.root)
	}
	return n
}

// checkInvariants verifies page shape: sorted leaves, correct separator
// bounds, size consistency, and capacity limits; used by tests.
func (t Paged) checkInvariants() error {
	if t.root == nil {
		return errors.New("ptree: nil root")
	}
	var walk func(p *page, lo, hi *value.Item) (int, error)
	walk = func(p *page, lo, hi *value.Item) (int, error) {
		if p.leaf {
			if len(p.tuples) > t.cap {
				return 0, fmt.Errorf("ptree: data page over capacity: %d > %d", len(p.tuples), t.cap)
			}
			for i, tu := range p.tuples {
				if i > 0 && p.tuples[i-1].Key().Compare(tu.Key()) >= 0 {
					return 0, errors.New("ptree: data page out of order")
				}
				if lo != nil && tu.Key().Compare(*lo) < 0 {
					return 0, errors.New("ptree: tuple below separator bound")
				}
				if hi != nil && tu.Key().Compare(*hi) >= 0 {
					return 0, errors.New("ptree: tuple above separator bound")
				}
			}
			return len(p.tuples), nil
		}
		if len(p.kids) > t.cap {
			return 0, fmt.Errorf("ptree: directory page over capacity: %d > %d", len(p.kids), t.cap)
		}
		if len(p.seps) != len(p.kids)-1 {
			return 0, fmt.Errorf("ptree: %d separators for %d children", len(p.seps), len(p.kids))
		}
		total := 0
		for i, kid := range p.kids {
			var klo, khi *value.Item
			if i > 0 {
				klo = &p.seps[i-1]
			} else {
				klo = lo
			}
			if i < len(p.seps) {
				khi = &p.seps[i]
			} else {
				khi = hi
			}
			n, err := walk(kid, klo, khi)
			if err != nil {
				return 0, err
			}
			total += n
		}
		return total, nil
	}
	n, err := walk(t.root, nil, nil)
	if err != nil {
		return err
	}
	if n != t.size {
		return fmt.Errorf("ptree: size %d but %d tuples", t.size, n)
	}
	return nil
}
