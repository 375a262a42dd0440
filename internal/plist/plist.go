// Package plist implements the persistent, key-sorted linked list used by
// the paper's experiments: "For simplicity, a linked-list implementation of
// both the database and individual relations was used" (Section 4).
//
// The list is purely functional. An update never modifies an existing cell;
// it copies the spine up to the affected position and shares the entire
// suffix with the previous version ("selective object copying ... with
// references to components of previously constructed data objects achieving
// a sharing effect", Section 1). Old versions therefore remain valid
// forever.
//
// Every cell remembers the trace task that constructed it. A traversal step
// depends both on the previous step and on the visited cell's constructor,
// so a reader of a version still being built by an earlier transaction
// pipelines one wavefront behind the builder — precisely the lenient
// pipelining of Section 2.3, recovered here as DAG structure.
package plist

import (
	"funcdb/internal/eval"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// cell is one immutable list cell.
type cell struct {
	tuple value.Tuple
	next  *cell
	task  trace.TaskID // constructor task; None for pre-existing data
}

// cellArena hands out cells from chunked allocations: a copied spine of n
// cells costs O(n/chunkSize) mallocs instead of n. Handed-out pointers are
// stable — a full chunk is replaced, never grown. Chunks start small (most
// updates under a skewed key distribution copy only a short prefix) and the
// cap bounds how much dead prefix a still-shared cell can pin: every cell
// in a chunk was built for one version, so at worst chunkMax-1 superseded
// neighbors stay reachable alongside a live one.
type cellArena struct{ chunk []cell }

const (
	chunkMin = 4
	chunkMax = 64
)

func (a *cellArena) take() *cell {
	if len(a.chunk) == cap(a.chunk) {
		n := cap(a.chunk) * 2
		if n < chunkMin {
			n = chunkMin
		}
		if n > chunkMax {
			n = chunkMax
		}
		a.chunk = make([]cell, 0, n)
	}
	a.chunk = a.chunk[:len(a.chunk)+1]
	return &a.chunk[len(a.chunk)-1]
}

// List is a persistent sorted list of tuples keyed by Tuple.Key. The zero
// List is empty and ready to use.
type List struct {
	head *cell
	size int
}

// Len returns the number of tuples.
func (l List) Len() int { return l.size }

// IsEmpty reports whether the list holds no tuples.
func (l List) IsEmpty() bool { return l.size == 0 }

// HeadTask returns the constructor task of the head cell: the moment this
// version of the list became accessible as a value. None for empty or
// pre-existing lists.
func (l List) HeadTask() trace.TaskID {
	if l.head == nil {
		return trace.None
	}
	return l.head.task
}

// FromTuples builds a list from pre-existing data (e.g. the initial
// database, a decoded snapshot), untraced, as if the structure predated the
// computation. Tuples may come in any order; of equal keys the last one
// wins. The list is linked back to front over the key-sorted tuples
// (value.SortedByKey, which costs nothing on input already in strictly
// ascending order), its cells taken from a cellArena: O(n) time and
// O(n/chunkMax) allocations.
func FromTuples(tuples []value.Tuple) List {
	tuples = value.SortedByKey(tuples)
	var arena cellArena
	var head *cell
	for i := len(tuples) - 1; i >= 0; i-- {
		c := arena.take()
		c.tuple, c.next = tuples[i], head
		head = c
	}
	return List{head: head, size: len(tuples)}
}

// Find searches for key. It returns the tuple (zero Tuple when absent),
// whether it was found, and the trace task of the final step, which the
// caller threads into response construction. after is the caller's control
// predecessor (e.g. the transaction dispatch task).
func (l List) Find(ctx *eval.Ctx, key value.Item, after trace.TaskID) (value.Tuple, bool, trace.TaskID) {
	step := after
	for c := l.head; c != nil; c = c.next {
		step = ctx.Task(trace.KindVisit, step, c.task)
		ctx.VisitedN(1)
		switch cmp := c.tuple.Key().Compare(key); {
		case cmp == 0:
			return c.tuple, true, step
		case cmp > 0:
			// Sorted order: key cannot appear later.
			return value.Tuple{}, false, step
		}
	}
	return value.Tuple{}, false, step
}

// Insert returns a new list containing t (replacing any tuple with the same
// key), sharing every cell at or after the insertion point's successor.
//
// The copied spine is built front to back, mirroring the lenient recursion
//
//	insert(x, l) = cons(first(l), {insert(x, rest(l))})
//
// in which the head copy is constructed *first* with a still-uncomputed
// tail. The returned task is therefore the constructor of the new head cell
// — the moment the new version exists as an object — and a subsequent
// reader's visit of each copied cell depends on that cell's own
// constructor, producing the paper's pipeline wavefront.
func (l List) Insert(ctx *eval.Ctx, t value.Tuple, after trace.TaskID) (List, trace.Op) {
	key := t.Key()

	var arena cellArena
	var newHead, prevNew *cell
	link := func(n *cell) {
		if prevNew == nil {
			newHead = n
		} else {
			prevNew.next = n
		}
		prevNew = n
	}

	headTask := trace.None
	step := after
	c := l.head
	replaced := false
	for c != nil {
		step = ctx.Task(trace.KindVisit, step, c.task)
		ctx.VisitedN(1)
		cmp := c.tuple.Key().Compare(key)
		if cmp >= 0 {
			replaced = cmp == 0
			break
		}
		// Copy this cell; its tail is lenient (linked as the walk
		// continues).
		step = ctx.Task(trace.KindConstruct, step)
		if headTask == trace.None {
			headTask = step
		}
		n := arena.take()
		n.tuple, n.task = c.tuple, step
		link(n)
		ctx.Created(1)
		c = c.next
	}

	suffix := c
	if replaced {
		suffix = c.next
	}
	shared := 0
	for s := suffix; s != nil; s = s.next {
		shared++
	}
	ctx.SharedN(int64(shared))

	step = ctx.Task(trace.KindConstruct, step)
	if headTask == trace.None {
		headTask = step
	}
	n := arena.take()
	n.tuple, n.next, n.task = t, suffix, step
	link(n)
	ctx.Created(1)

	size := l.size + 1
	if replaced {
		size = l.size
	}
	return List{head: newHead, size: size}, trace.Op{Ready: headTask, Done: step}
}

// Delete returns a new list without the tuple keyed by key, sharing the
// suffix past the removed cell. When the key is absent the receiver itself
// is returned (no reconstruction for a no-op, mirroring read-only
// transactions).
func (l List) Delete(ctx *eval.Ctx, key value.Item, after trace.TaskID) (List, bool, trace.Op) {
	var arena cellArena
	var newHead, prevNew *cell
	link := func(n *cell) {
		if prevNew == nil {
			newHead = n
		} else {
			prevNew.next = n
		}
		prevNew = n
	}

	headTask := trace.None
	step := after
	c := l.head
	found := false
	for c != nil {
		step = ctx.Task(trace.KindVisit, step, c.task)
		ctx.VisitedN(1)
		cmp := c.tuple.Key().Compare(key)
		if cmp == 0 {
			found = true
			break
		}
		if cmp > 0 {
			break
		}
		step = ctx.Task(trace.KindConstruct, step)
		if headTask == trace.None {
			headTask = step
		}
		n := arena.take()
		n.tuple, n.task = c.tuple, step
		link(n)
		ctx.Created(1)
		c = c.next
	}
	if !found {
		if prevNew == nil {
			// Nothing was copied (empty list or key below the head): the
			// old version is the result.
			return l, false, trace.Op{Done: step}
		}
		// Key absent mid-list: the functional recursion has already built
		// the copied prefix, so the result is a new (equal) version sharing
		// the remainder — it cannot retract the copies it made before the
		// outcome was known.
		shared := 0
		for s := c; s != nil; s = s.next {
			shared++
		}
		ctx.SharedN(int64(shared))
		prevNew.next = c
		return List{head: newHead, size: l.size}, false, trace.Op{Ready: headTask, Done: step}
	}

	suffix := c.next
	shared := 0
	for s := suffix; s != nil; s = s.next {
		shared++
	}
	ctx.SharedN(int64(shared))

	if prevNew == nil {
		// Deleting the head: the new version is the shared suffix itself;
		// it becomes available at the decision visit.
		return List{head: suffix, size: l.size - 1}, true, trace.Op{Ready: step, Done: step}
	}
	prevNew.next = suffix
	return List{head: newHead, size: l.size - 1}, true, trace.Op{Ready: headTask, Done: step}
}

// Tuples returns the list contents in key order.
func (l List) Tuples() []value.Tuple {
	out := make([]value.Tuple, 0, l.size)
	for c := l.head; c != nil; c = c.next {
		out = append(out, c.tuple)
	}
	return out
}

// Range calls visit for each tuple with lo <= key <= hi, in key order,
// recording one traced visit per inspected cell.
func (l List) Range(ctx *eval.Ctx, lo, hi value.Item, after trace.TaskID, visit func(value.Tuple)) trace.TaskID {
	step := after
	for c := l.head; c != nil; c = c.next {
		step = ctx.Task(trace.KindVisit, step, c.task)
		ctx.VisitedN(1)
		if c.tuple.Key().Compare(hi) > 0 {
			break
		}
		if c.tuple.Key().Compare(lo) >= 0 {
			visit(c.tuple)
		}
	}
	return step
}

// SharedCellsWith counts the cells of l that are physically shared with
// other (pointer-identical), measuring the paper's partial physical
// reconstruction. It is O(len(l) * 1) using suffix identity: once the two
// lists join they share everything after the join.
func (l List) SharedCellsWith(other List) int {
	set := make(map[*cell]struct{}, other.size)
	for c := other.head; c != nil; c = c.next {
		set[c] = struct{}{}
	}
	n := 0
	for c := l.head; c != nil; c = c.next {
		if _, ok := set[c]; ok {
			n++
		}
	}
	return n
}
