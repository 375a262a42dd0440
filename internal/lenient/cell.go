// Package lenient implements the paper's "lenient data constructors": data
// structures that are usable as objects before their components are fully
// computed.
//
// Keller & Lindstrom 1985, Section 1: "Through the use of lenient data
// constructors ... data structures need not be constructed in their entirety
// before they are used as components in other structures. ... a lenient
// tuple constructor creates a tuple which itself is an object, the
// components of which are made positionally accessible before any of the
// components are necessarily completely computed."
//
// Two constructors are provided:
//
//   - Cell[T]: a single lenient component (a future). Lazy cells compute on
//     first demand; Spawn cells begin computing immediately in their own
//     goroutine, which is the operational reading of leniency used by the
//     paper's pipelined transaction processing.
//   - Stream[T]: the lenient cons-stream built from FollowedBy (the paper's
//     infix "followed-by" used in the apply-stream equations), with first,
//     rest, apply-to-all and the usual derived operators.
package lenient

import (
	"sync"
	"sync/atomic"
)

// Cell is a lenient component: a value of type T that may still be under
// computation. Force blocks until the value is available. A Cell computes
// its thunk at most once; Force is safe for concurrent use.
type Cell[T any] struct {
	once sync.Once
	done atomic.Bool // beside once, whose padding it fills
	th   Thunk[T]
	val  T
}

// Thunk is a suspended computation of a T: what a lazy cell holds until
// its first demand, when Eval stores the value through v. v starts as the
// zero T, or as the value a held cell holds (Hold), which Eval then only
// releases — it may amend it. A struct that already carries the
// computation's inputs implements Thunk directly and embeds its own Cell
// (see Suspend), where a closure would be a second object.
type Thunk[T any] interface {
	Eval(v *T)
}

// thunkFunc is the func() T form of a Thunk. A func value is a pointer,
// so the conversion to the interface allocates nothing.
type thunkFunc[T any] func() T

func (f thunkFunc[T]) Eval(v *T) { *v = f() }

// Lazy returns a cell that computes fn on first demand (call-by-need).
func Lazy[T any](fn func() T) *Cell[T] {
	if fn == nil {
		panic("lenient: Lazy with nil thunk")
	}
	return &Cell[T]{th: thunkFunc[T](fn)}
}

// Suspend makes the zero cell c lazy in place — th.Eval runs on first
// demand — and returns c. It is Lazy for a cell embedded in another
// object, typically th itself: the object is its own future, one
// allocation instead of object, closure and cell. c must not have been
// forced or handed out yet.
func (c *Cell[T]) Suspend(th Thunk[T]) *Cell[T] {
	if th == nil {
		panic("lenient: Suspend with nil thunk")
	}
	c.th = th
	return c
}

// Hold makes the zero cell c hold v, released on first demand by th: a
// value known before it may be observed — a reply waiting for its flush —
// stored once, in the cell. th.Eval gets v in place, blocks until it may
// be seen, and may amend it; until then Poll reports nothing. c must not
// have been forced or handed out yet.
func (c *Cell[T]) Hold(v T, th Thunk[T]) *Cell[T] {
	c.val = v
	return c.Suspend(th)
}

// Ready returns an already-computed cell holding v.
func Ready[T any](v T) *Cell[T] {
	c := &Cell[T]{val: v}
	c.once.Do(func() {})
	c.done.Store(true)
	return c
}

// Spawn returns a cell whose thunk starts computing immediately in its own
// goroutine. This is the anticipatory demand of the paper's evaluation
// mechanism: "many elements of the output sequence are demanded in an
// anticipatory fashion, to generate as much parallel execution as possible"
// (Section 2.3). The goroutine's lifetime is bounded by the thunk itself.
func Spawn[T any](fn func() T) *Cell[T] {
	c := Lazy(fn)
	go c.Force()
	return c
}

// Force returns the cell's value, computing it if necessary and blocking if
// another goroutine is already computing it.
func (c *Cell[T]) Force() T {
	c.once.Do(func() {
		c.th.Eval(&c.val)
		c.th = nil // release the thunk and anything it captured
		c.done.Store(true)
	})
	return c.val
}

// Poll returns the cell's value without blocking: ok is false while the
// value is still under computation (Poll never demands it). A true result
// carries the same value every Force observes.
func (c *Cell[T]) Poll() (v T, ok bool) {
	if !c.done.Load() {
		var zero T
		return zero, false
	}
	return c.val, true
}

// Map returns a lazy cell holding f of c's value.
func Map[T, U any](c *Cell[T], f func(T) U) *Cell[U] {
	return Lazy(func() U { return f(c.Force()) })
}

// Join flattens a cell of a cell.
func Join[T any](c *Cell[*Cell[T]]) *Cell[T] {
	return Lazy(func() T { return c.Force().Force() })
}

// Pair is a lenient 2-tuple: both components are independently demandable.
// It models the paper's bracketed pairs such as [response, new-database]:
// a consumer of Second need not wait for First and vice versa.
type Pair[A, B any] struct {
	first  *Cell[A]
	second *Cell[B]
}

// NewPair builds a lenient pair from two cells.
func NewPair[A, B any](a *Cell[A], b *Cell[B]) Pair[A, B] {
	return Pair[A, B]{first: a, second: b}
}

// First demands and returns the first component.
func (p Pair[A, B]) First() A { return p.first.Force() }

// Second demands and returns the second component.
func (p Pair[A, B]) Second() B { return p.second.Force() }

// FirstCell returns the first component's cell without demanding it.
func (p Pair[A, B]) FirstCell() *Cell[A] { return p.first }

// SecondCell returns the second component's cell without demanding it.
func (p Pair[A, B]) SecondCell() *Cell[B] { return p.second }
