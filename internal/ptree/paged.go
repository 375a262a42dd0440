package ptree

import (
	"errors"
	"fmt"

	"funcdb/internal/eval"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// DefaultPageCap is the tuple/child capacity of a page — the paper's
// "balanced tree strategy in which the size of a tree node is one physical
// page" (Section 3.3) — and the size of the slot array a page carries
// inline. It is a measured constant, not a tuning knob: every relation a
// cluster node, a mirror or a takeover store holds uses it, and only the
// Figure 2-2 sweep (NewPaged with an explicit capacity) departs from it.
//
// 16 was measured against 32 on the repository benchmark's cluster-prepared
// workload (2 000-row relations, three copies of every write, alternated
// pairs on both seeds; CHANGES.md, PR 20). Both are three pages deep there,
// so allocs_per_op is the same (24.06); cpu_us_per_op and heap_live_mb do
// not separate them; 16 runs 3.1 GC cycles a second where 32 runs 4.1,
// because a write copies 928 bytes (2 × 224 B directories + one 480 B data
// page) instead of 1 600. BenchmarkUpsert agrees: 553 against 830 ns at
// 2 000 rows, and at 25 000 rows, where 16 is a level deeper (4 objects
// against 3), still 1 150 ns and 1 152 B against 1 400 ns and 1 600 B.
const DefaultPageCap = 16

// page is one immutable page: either a data page of sorted tuples or a
// directory page of separator keys and children (Figure 2-2's "data pages"
// and "directory pages"). It carries its subtree's tuple and page counts,
// so any page is a complete tree and a version is nothing but its root.
//
// A page is one allocation: it is the header of a leafPage or dirPage whose
// slot array it slices. That makes three rules. Never append to tuples or
// kids once the page is built. Never give one page a sub-slice of another
// page's slots (a split builds two fresh pages). And remember that any
// pointer into the slots keeps the whole page alive — which is the point.
// seps is a separate object because an update that does not split shares
// it with the page it replaces.
type page struct {
	tuples []value.Tuple // data pages: sorted by key
	kids   []*page       // directory pages
	seps   []value.Item  // directory pages: len(kids)-1 separators
	task   trace.TaskID
	n      int32 // tuples in this subtree
	pages  int32 // pages in this subtree, this one included
	cap    int32 // the tree's page capacity
	leaf   bool
}

type leafPage struct {
	page
	buf [DefaultPageCap]value.Tuple
}

type dirPage struct {
	page
	buf [DefaultPageCap]*page
}

// newLeaf returns an unbuilt data page with n empty slots. Capacities
// above the inline size (the Figure 2-2 sweep only) fall back to a heap
// slice.
func newLeaf(pageCap, n int) *page {
	var p *page
	if pageCap <= DefaultPageCap {
		lp := &leafPage{}
		lp.tuples = lp.buf[:n:n]
		p = &lp.page
	} else {
		p = &page{tuples: make([]value.Tuple, n)}
	}
	p.leaf, p.cap, p.n, p.pages = true, int32(pageCap), int32(n), 1
	return p
}

// newDir returns an unbuilt directory page with n empty child slots; the
// caller fills kids, seps and the subtree counts.
func newDir(pageCap, n int) *page {
	var p *page
	if pageCap <= DefaultPageCap {
		dp := &dirPage{}
		dp.kids = dp.buf[:n:n]
		p = &dp.page
	} else {
		p = &page{kids: make([]*page, n)}
	}
	p.cap = int32(pageCap)
	return p
}

// count sets a directory's subtree counts by visiting every child: for the
// rare pages (splits, runs) that are not one child away from a page
// whose counts are known.
func (p *page) count() {
	p.n, p.pages = 0, 1
	for _, k := range p.kids {
		p.n += k.n
		p.pages += k.pages
	}
}

// insertInto copies src into dst with x inserted at slot i;
// len(dst) == len(src)+1.
func insertInto[T any](dst, src []T, i int, x T) {
	copy(dst, src[:i])
	dst[i] = x
	copy(dst[i+1:], src[i:])
}

// removeFrom copies src into dst without slot i; len(dst) == len(src)-1.
func removeFrom[T any](dst, src []T, i int) {
	copy(dst, src[:i])
	copy(dst[i:], src[i+1:])
}

// Paged is a persistent B+-tree of fixed-capacity pages. Updating re-creates
// only the pages on the root-to-leaf path ("If an insertion or modification
// affects only a few pages, then all other pages can be shared. A new
// directory structure is created, the old one being left intact." —
// Section 2.2). A version is its root page and nothing else, so a Paged is
// one pointer. The zero Paged is invalid; use NewPaged or PagedFromTuples.
type Paged struct {
	root *page
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
	return Paged{root: newLeaf(pageCap, 0)}
}

// PagedFromTuples bulk-builds a paged tree untraced from initial data, in
// any order; equal keys replace (the last one wins). It is UpsertRun into
// the empty tree: the key-sorted tuples (value.SortedByKey, which costs
// nothing on input already in strictly ascending order — what a snapshot, a
// rejoin and database.FromData hand over) fill pages left to right and the
// directories bottom-up: O(n), every page but the last of each level full,
// nothing built that is not kept.
func PagedFromTuples(pageCap int, tuples []value.Tuple) Paged {
	return NewPaged(pageCap).UpsertRun(nil, tuples)
}

// Len returns the number of tuples.
func (t Paged) Len() int { return int(t.root.n) }

// PageCap returns the page capacity.
func (t Paged) PageCap() int { return int(t.root.cap) }

// HeadTask returns the root directory page's constructor task.
func (t Paged) HeadTask() trace.TaskID {
	if t.root == nil {
		return trace.None
	}
	return t.root.task
}

// PageCount returns the total number of pages in this version: the count
// the root carries, kept by every update in O(height).
func (t Paged) PageCount() int {
	if t.root == nil {
		return 0
	}
	return int(t.root.pages)
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
	lo, hi := 0, len(p.seps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if key.Compare(p.seps[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// leafIndex returns the first slot of a data page whose key is >= key, and
// whether that slot holds key itself.
func leafIndex(p *page, key value.Item) (int, bool) {
	lo, hi := 0, len(p.tuples)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch c := p.tuples[mid].Key().Compare(key); {
		case c == 0:
			return mid, true
		case c < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
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
			if i, ok := leafIndex(p, key); ok {
				return p.tuples[i], true, step
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
	merged   []value.Tuple // UpsertRun's scratch: one data page merged with its share of the run
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

// done reports an update's sharing: every page of the new version the
// update did not build is shared with the old one.
func (o *pagedOp) done(root *page) Paged {
	if shared := int64(root.pages) - o.created; shared > 0 {
		o.ctx.SharedN(shared)
	}
	return Paged{root: root}
}

// Insert returns a new tree containing tu (replacing an equal-keyed tuple).
// Exactly the root-to-leaf path is copied, one allocation per page; on
// overflow a page splits and the split propagates.
func (t Paged) Insert(ctx *eval.Ctx, tu value.Tuple, after trace.TaskID) (Paged, trace.Op) {
	op := pagedOp{ctx: ctx, step: after, capacity: t.PageCap()}
	root, right, sep := op.insert(t.root, tu, true)
	if right != nil {
		left := root
		root = newDir(op.capacity, 2)
		root.kids[0], root.kids[1] = left, right
		root.seps = []value.Item{sep}
		root.count()
		op.build(root)
	}
	return op.done(root), trace.Op{Ready: root.task, Done: op.step}
}

// UpsertRun returns a new tree holding every tuple of a run, each replacing
// an equal-keyed one: the run's inserts, applied as one bulk merge instead
// of one path copy each. The run, in any order, is key-sorted once, the
// last of equal keys winning (value.SortedByKey). The merge descends once,
// dividing the run between the children by their separators, and rebuilds
// each page the run touches exactly once. A page that overflows is laid out
// left to right in as many full pages as it needs, and directories overflow
// the same way, bottom-up, up to new root levels. Pages the run does not
// touch are shared with the old version, which stays intact ("A new
// directory structure is created, the old one being left intact" — Section
// 2.2), and the sharing counters are kept as for Insert.
func (t Paged) UpsertRun(ctx *eval.Ctx, tuples []value.Tuple) Paged {
	run := value.SortedByKey(tuples)
	if len(run) == 0 {
		return t
	}
	op := pagedOp{ctx: ctx, capacity: t.PageCap()}
	level, seps := op.upsertRun(t.root, run, nil, nil)
	for len(level) > 1 {
		level, seps = op.packDirs(level, seps, nil, nil)
	}
	return op.done(level[0])
}

// upsertRun merges a non-empty key-sorted run into the subtree p, appending
// the pages that replace p to kids and the separators between them to seps.
func (o *pagedOp) upsertRun(p *page, run []value.Tuple, kids []*page, seps []value.Item) ([]*page, []value.Item) {
	o.visit(p)
	if p.leaf {
		merged := run
		if len(p.tuples) > 0 {
			merged = mergeRun(o.merged[:0], p.tuples, run)
			o.merged = merged
		}
		for lo := 0; lo < len(merged); lo += o.capacity {
			np := newLeaf(o.capacity, min(o.capacity, len(merged)-lo))
			copy(np.tuples, merged[lo:])
			if lo > 0 {
				seps = append(seps, merged[lo].Key())
			}
			kids = append(kids, o.build(np))
		}
		return kids, seps
	}
	// The new children: the old ones, each the run reaches replaced by what
	// it became. Every old separator still bounds its child's replacements.
	newKids := make([]*page, 0, 2*len(p.kids))
	newSeps := make([]value.Item, 0, 2*len(p.kids))
	for i, kid := range p.kids {
		if i > 0 {
			newSeps = append(newSeps, p.seps[i-1])
		}
		n := len(run)
		if i < len(p.seps) {
			n = searchRun(run, p.seps[i])
		}
		if n == 0 {
			newKids = append(newKids, kid)
			continue
		}
		newKids, newSeps = o.upsertRun(kid, run[:n], newKids, newSeps)
		run = run[n:]
	}
	return o.packDirs(newKids, newSeps, kids, seps)
}

// packDirs lays children out left to right in full directory pages,
// appending the pages to kids and the separators between them to seps.
// level's separators are in levelSeps; the pages slice that array, which is
// never written again.
func (o *pagedOp) packDirs(level []*page, levelSeps []value.Item, kids []*page, seps []value.Item) ([]*page, []value.Item) {
	for lo := 0; lo < len(level); lo += o.capacity {
		hi := min(lo+o.capacity, len(level))
		np := newDir(o.capacity, hi-lo)
		copy(np.kids, level[lo:hi])
		np.seps = levelSeps[lo : hi-1 : hi-1]
		np.count()
		if lo > 0 {
			seps = append(seps, levelSeps[lo-1])
		}
		kids = append(kids, o.build(np))
	}
	return kids, seps
}

// mergeRun appends to dst the key-ordered merge of a data page's tuples and
// a key-sorted run, a run tuple replacing a page tuple of the same key.
func mergeRun(dst, tuples, run []value.Tuple) []value.Tuple {
	i, j := 0, 0
	for i < len(tuples) && j < len(run) {
		switch c := tuples[i].Key().Compare(run[j].Key()); {
		case c < 0:
			dst = append(dst, tuples[i])
			i++
		case c > 0:
			dst = append(dst, run[j])
			j++
		default:
			dst = append(dst, run[j])
			i, j = i+1, j+1
		}
	}
	return append(append(dst, tuples[i:]...), run[j:]...)
}

// searchRun returns how many tuples of a key-sorted run sort below key.
func searchRun(run []value.Tuple, key value.Item) int {
	lo, hi := 0, len(run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if run[mid].Key().Compare(key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// splitPoint says how many of an overflowing page's total slots stay in
// the left page. A page that overflows because the new slot went past its
// end, on the tree's right edge, is being appended to — ascending keys,
// which is every autoincrement relation and every bulk preload — and
// leaves the left page full, where a split down the middle would leave
// every page of an ascending load half empty and the tree a level deeper.
func splitPoint(total int, appended bool) int {
	if appended {
		return total - 1
	}
	return total / 2
}

// insert returns p rebuilt with tu. When p overflowed, np is its left half,
// right its right half, and sep the least key under right. rightmost says
// that p lies on the tree's right edge.
func (o *pagedOp) insert(p *page, tu value.Tuple, rightmost bool) (np, right *page, sep value.Item) {
	o.visit(p)
	if p.leaf {
		n := len(p.tuples)
		i, found := leafIndex(p, tu.Key())
		switch {
		case found:
			np = newLeaf(o.capacity, n)
			copy(np.tuples, p.tuples)
			np.tuples[i] = tu
		case n < o.capacity:
			np = newLeaf(o.capacity, n+1)
			insertInto(np.tuples, p.tuples, i, tu)
		default:
			mid := splitPoint(n+1, rightmost && i == n)
			np, right = newLeaf(o.capacity, mid), newLeaf(o.capacity, n+1-mid)
			if i < mid {
				insertInto(np.tuples, p.tuples[:mid-1], i, tu)
				copy(right.tuples, p.tuples[mid-1:])
			} else {
				copy(np.tuples, p.tuples[:mid])
				insertInto(right.tuples, p.tuples[mid:], i-mid, tu)
			}
			o.build(np)
			return np, o.build(right), right.tuples[0].Key()
		}
		return o.build(np), nil, value.Item{}
	}

	i := childIndex(p, tu.Key())
	old, last := p.kids[i], i == len(p.kids)-1
	child, split, csep := o.insert(old, tu, rightmost && last)
	if split == nil {
		np = newDir(o.capacity, len(p.kids))
		copy(np.kids, p.kids)
		np.kids[i] = child
		np.seps = p.seps
		np.n, np.pages = p.n-old.n+child.n, p.pages-old.pages+child.pages
		return o.build(np), nil, value.Item{}
	}
	// The child became [child, split] around csep. seps is built whole and,
	// if this page splits too, divided between the halves: separators are
	// never written after this, so sharing the array is safe.
	total := len(p.kids) + 1
	seps := make([]value.Item, total-1)
	insertInto(seps, p.seps, i, csep)
	if total <= o.capacity {
		np = newDir(o.capacity, total)
		insertInto(np.kids, p.kids, i+1, split)
		np.kids[i] = child
		np.seps = seps
		np.n, np.pages = p.n-old.n+child.n+split.n, p.pages-old.pages+child.pages+split.pages
		return o.build(np), nil, value.Item{}
	}
	mid := splitPoint(total, rightmost && last)
	np, right = newDir(o.capacity, mid), newDir(o.capacity, total-mid)
	if i+1 < mid {
		insertInto(np.kids, p.kids[:mid-1], i+1, split)
		copy(right.kids, p.kids[mid-1:])
	} else {
		copy(np.kids, p.kids[:mid])
		insertInto(right.kids, p.kids[mid:], i+1-mid, split)
	}
	if i < mid {
		np.kids[i] = child
	} else {
		right.kids[i-mid] = child
	}
	np.seps, right.seps = seps[:mid-1:mid-1], seps[mid:]
	np.count()
	right.count()
	o.build(np)
	return np, o.build(right), seps[mid-1]
}

// Delete removes key if present. Pages may underflow, in the spirit of
// append-only functional stores (and the paper's archive view of old
// versions): old versions are never reorganized, and the rule for new ones
// is kept to what a shrinking relation needs. A data page left under a
// quarter full merges with a neighbour under the same directory when the
// two fit one page; an emptied data page is unlinked from its directory;
// a directory left without children is unlinked in turn, and a root
// directory left with a single child collapses into it. Directories are
// otherwise not rebalanced. Height never grows and lookups stay correct.
func (t Paged) Delete(ctx *eval.Ctx, key value.Item, after trace.TaskID) (Paged, bool, trace.Op) {
	op := pagedOp{ctx: ctx, step: after, capacity: t.PageCap()}
	root, _, found := op.delete(t.root, key, nil, nil)
	if !found {
		return t, false, trace.Op{Done: op.step}
	}
	if root == nil {
		root = op.build(newLeaf(op.capacity, 0))
	}
	for !root.leaf && len(root.kids) == 1 {
		root = root.kids[0]
	}
	ready := root.task
	if ready == trace.None {
		ready = op.step
	}
	return op.done(root), true, trace.Op{Ready: ready, Done: op.step}
}

// delete returns the rebuilt page (nil if it became empty) and whether the
// key was found. left and right are a data page's neighbours under its
// directory (nil where there is none); absorbed says which of them the
// rebuilt page took in: -1 the left, +1 the right, 0 neither.
func (o *pagedOp) delete(p *page, key value.Item, left, right *page) (np *page, absorbed int, found bool) {
	o.visit(p)
	if p.leaf {
		i, ok := leafIndex(p, key)
		if !ok {
			return p, 0, false
		}
		rest := len(p.tuples) - 1
		if rest == 0 {
			return nil, 0, true
		}
		if rest*4 < o.capacity {
			switch {
			case left != nil && len(left.tuples)+rest <= o.capacity:
				np = newLeaf(o.capacity, len(left.tuples)+rest)
				copy(np.tuples, left.tuples)
				removeFrom(np.tuples[len(left.tuples):], p.tuples, i)
				return o.build(np), -1, true
			case right != nil && rest+len(right.tuples) <= o.capacity:
				np = newLeaf(o.capacity, rest+len(right.tuples))
				removeFrom(np.tuples[:rest], p.tuples, i)
				copy(np.tuples[rest:], right.tuples)
				return o.build(np), +1, true
			}
		}
		np = newLeaf(o.capacity, rest)
		removeFrom(np.tuples, p.tuples, i)
		return o.build(np), 0, true
	}

	i := childIndex(p, key)
	old := p.kids[i]
	var before, after *page // old's neighbours, if old is a data page
	if old.leaf && i > 0 {
		before = p.kids[i-1]
	}
	if old.leaf && i+1 < len(p.kids) {
		after = p.kids[i+1]
	}
	child, absorbed, found := o.delete(old, key, before, after)
	if !found {
		return p, 0, false
	}
	if child != nil && absorbed == 0 {
		np = newDir(o.capacity, len(p.kids))
		copy(np.kids, p.kids)
		np.kids[i] = child
		np.seps = p.seps
		np.n, np.pages = p.n-1, p.pages-old.pages+child.pages
		return o.build(np), 0, true
	}
	// One child slot goes, and one separator with it: an emptied child's
	// own slot, or the slot of the neighbour the child absorbed.
	if len(p.kids) == 1 {
		return nil, 0, true
	}
	gone := i + absorbed
	np = newDir(o.capacity, len(p.kids)-1)
	removeFrom(np.kids, p.kids, gone)
	np.n, np.pages = p.n-1, p.pages-old.pages
	if child != nil {
		np.kids[min(i, gone)] = child
		np.pages += child.pages - p.kids[gone].pages
	}
	// Dropping the separator to the right of the lower of the two slots (the
	// last one when the last slot goes) widens a surviving neighbour over
	// the vanished range.
	sepGone := min(i, gone, len(p.seps)-1)
	np.seps = make([]value.Item, len(p.seps)-1)
	removeFrom(np.seps, p.seps, sepGone)
	return o.build(np), 0, true
}

// Range visits tuples with lo <= key <= hi in key order.
func (t Paged) Range(ctx *eval.Ctx, lo, hi value.Item, after trace.TaskID, visit func(value.Tuple)) trace.TaskID {
	step := after
	var walk func(p *page)
	walk = func(p *page) {
		step = ctx.Task(trace.KindVisit, step, p.task)
		ctx.VisitedN(1)
		if p.leaf {
			for i, _ := leafIndex(p, lo); i < len(p.tuples) && p.tuples[i].Key().Compare(hi) <= 0; i++ {
				visit(p.tuples[i])
			}
			return
		}
		for i := childIndex(p, lo); i < len(p.kids) && (i == 0 || p.seps[i-1].Compare(hi) <= 0); i++ {
			walk(p.kids[i])
		}
	}
	walk(t.root)
	return step
}

// Tuples returns the contents in key order.
func (t Paged) Tuples() []value.Tuple {
	out := make([]value.Tuple, 0, t.Len())
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

// Diff calls visit, in key order, for every key whose tuple differs between
// t and next: with t's tuple and next's, the zero Tuple standing in for the
// one a version lacks. It walks both trees from the root and skips every
// subtree whose page the two versions share. The paper's "If an insertion
// or modification affects only a few pages, then all other pages can be
// shared" (Section 2.2) makes that an algorithm: a diff opens the pages
// that changed and the directories above them, O(pages changed × height),
// not O(n). Every page it opens counts as a visit on ctx.
func (t Paged) Diff(ctx *eval.Ctx, next Paged, visit func(old, new value.Tuple)) {
	a, b := diffCursor{stack: []*page{t.root}}, diffCursor{stack: []*page{next.root}}
	for {
		pa, pb := a.unopened(), b.unopened()
		switch {
		case pa != nil && pa == pb:
			// The same page holds the same tuples in both versions.
			a.stack, b.stack = a.stack[:len(a.stack)-1], b.stack[:len(b.stack)-1]
		case pa != nil && (pb == nil || pa.pages >= pb.pages):
			// A page never contains one with as many pages as itself, so
			// opening the larger of two never opens a page the other side
			// could share.
			ctx.VisitedN(1)
			a.open()
		case pb != nil:
			ctx.VisitedN(1)
			b.open()
		case len(a.tuples) == 0 && len(b.tuples) == 0:
			return
		default:
			a.tuples, b.tuples = DiffStep(a.tuples, b.tuples, visit)
		}
	}
}

// DiffStep is one step of a diff of two key-sorted runs of tuples, a and b,
// not both empty: it takes the least key at their heads, from one run or
// from both, visits it as Diff does unless both hold the same tuple, and
// returns what is left of each run.
func DiffStep(a, b []value.Tuple, visit func(old, new value.Tuple)) ([]value.Tuple, []value.Tuple) {
	switch {
	case len(b) == 0 || len(a) > 0 && a[0].Key().Compare(b[0].Key()) < 0:
		visit(a[0], value.Tuple{})
		return a[1:], b
	case len(a) == 0 || b[0].Key().Compare(a[0].Key()) < 0:
		visit(value.Tuple{}, b[0])
		return a, b[1:]
	}
	if !a[0].Equal(b[0]) {
		visit(a[0], b[0])
	}
	return a[1:], b[1:]
}

// diffCursor reads one version for Diff: tuples is the rest of the data
// page being read, and stack the subtrees after it, the next one last.
type diffCursor struct {
	stack  []*page
	tuples []value.Tuple
}

// unopened returns the subtree the cursor reads next, or nil while it is
// inside a data page or once it has read everything.
func (c *diffCursor) unopened() *page {
	if len(c.tuples) > 0 || len(c.stack) == 0 {
		return nil
	}
	return c.stack[len(c.stack)-1]
}

// open replaces the next subtree by its children, or a data page by its
// tuples.
func (c *diffCursor) open() {
	p := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	if p.leaf {
		c.tuples = p.tuples
		return
	}
	for i := len(p.kids) - 1; i >= 0; i-- {
		c.stack = append(c.stack, p.kids[i])
	}
}

// checkInvariants verifies page shape by walking the whole tree: sorted
// leaves, correct separator bounds, capacity limits, and that the tuple and
// page counts every page carries are those of its subtree; used by tests.
func (t Paged) checkInvariants() error {
	if t.root == nil {
		return errors.New("ptree: nil root")
	}
	pageCap := t.PageCap()
	// walk returns the subtree's tuple and page counts.
	var walk func(p *page, lo, hi *value.Item) (int, int, error)
	walk = func(p *page, lo, hi *value.Item) (int, int, error) {
		if int(p.cap) != pageCap {
			return 0, 0, fmt.Errorf("ptree: page of capacity %d in a tree of capacity %d", p.cap, pageCap)
		}
		tuples, pages := 0, 1
		if p.leaf {
			if len(p.tuples) > pageCap {
				return 0, 0, fmt.Errorf("ptree: data page over capacity: %d > %d", len(p.tuples), pageCap)
			}
			for i, tu := range p.tuples {
				if i > 0 && p.tuples[i-1].Key().Compare(tu.Key()) >= 0 {
					return 0, 0, errors.New("ptree: data page out of order")
				}
				if lo != nil && tu.Key().Compare(*lo) < 0 {
					return 0, 0, errors.New("ptree: tuple below separator bound")
				}
				if hi != nil && tu.Key().Compare(*hi) >= 0 {
					return 0, 0, errors.New("ptree: tuple above separator bound")
				}
			}
			tuples = len(p.tuples)
		} else {
			if len(p.kids) > pageCap {
				return 0, 0, fmt.Errorf("ptree: directory page over capacity: %d > %d", len(p.kids), pageCap)
			}
			if len(p.seps) != len(p.kids)-1 {
				return 0, 0, fmt.Errorf("ptree: %d separators for %d children", len(p.seps), len(p.kids))
			}
			for i, kid := range p.kids {
				klo, khi := lo, hi
				if i > 0 {
					klo = &p.seps[i-1]
				}
				if i < len(p.seps) {
					khi = &p.seps[i]
				}
				n, pg, err := walk(kid, klo, khi)
				if err != nil {
					return 0, 0, err
				}
				tuples += n
				pages += pg
			}
		}
		if int(p.n) != tuples || int(p.pages) != pages {
			return 0, 0, fmt.Errorf("ptree: page carries %d tuples in %d pages, its subtree has %d in %d", p.n, p.pages, tuples, pages)
		}
		return tuples, pages, nil
	}
	_, _, err := walk(t.root, nil, nil)
	return err
}
