// Package value defines the data model of the functional database: scalar
// items, tuples of items, and a total ordering over both.
//
// The paper (Keller & Lindstrom 1985, Section 2.1) assumes a relational
// model: "a relational database is a set of relations ... Each relation is a
// set of tuples of data items." Items and tuples here are immutable values;
// every operation that appears to modify one returns a fresh value, in
// keeping with the applicative discipline of the rest of the system.
//
// By convention the first field of a tuple is its key within a relation.
package value

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
)

// Kind discriminates the scalar types an Item can hold.
type Kind uint8

// Item kinds. KindInt sorts before KindString so that heterogeneous keys
// still have a total order.
const (
	KindInt Kind = iota + 1
	KindString

	// kindMax is the internal kind of the MaxKey sentinel; it sorts after
	// every valid kind. The zero kind (invalid items, MinKey) sorts before
	// every valid kind.
	kindMax Kind = 0xFF
)

// MinKey returns a sentinel ordering strictly below every valid item, for
// unbounded range scans. It is not a storable value (IsValid is false).
func MinKey() Item { return Item{} }

// MaxKey returns a sentinel ordering strictly above every valid item, for
// unbounded range scans. It is not a storable value (IsValid is false).
func MaxKey() Item { return Item{kind: kindMax} }

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Item is one scalar data item: either an integer or a string. The zero
// Item is invalid; construct items with Int or Str.
type Item struct {
	kind Kind
	i    int64
	s    string
}

// Int returns an integer item.
func Int(v int64) Item { return Item{kind: KindInt, i: v} }

// Str returns a string item.
func Str(s string) Item { return Item{kind: KindString, s: s} }

// Kind reports the item's scalar kind.
func (it Item) Kind() Kind { return it.kind }

// IsValid reports whether the item was constructed with Int or Str.
func (it Item) IsValid() bool { return it.kind == KindInt || it.kind == KindString }

// AsInt returns the integer payload. It is only meaningful when Kind is
// KindInt.
func (it Item) AsInt() int64 { return it.i }

// AsString returns the string payload. It is only meaningful when Kind is
// KindString.
func (it Item) AsString() string { return it.s }

// Compare returns -1, 0 or +1 ordering it relative to other. Items of
// different kinds order by kind (ints before strings).
func (it Item) Compare(other Item) int {
	if it.kind != other.kind {
		if it.kind < other.kind {
			return -1
		}
		return 1
	}
	switch it.kind {
	case KindInt:
		switch {
		case it.i < other.i:
			return -1
		case it.i > other.i:
			return 1
		}
		return 0
	case KindString:
		return strings.Compare(it.s, other.s)
	default:
		return 0
	}
}

// Equal reports whether two items are identical in kind and payload.
func (it Item) Equal(other Item) bool { return it.Compare(other) == 0 }

// String renders the item as it would appear in the query language: bare
// digits for ints, double quotes for strings.
func (it Item) String() string {
	switch it.kind {
	case KindInt:
		return strconv.FormatInt(it.i, 10)
	case KindString:
		return strconv.Quote(it.s)
	case kindMax:
		return "<max-key>"
	default:
		return "<invalid item>"
	}
}

// Tuple is an immutable, ordered sequence of items. The first field is the
// tuple's key within a relation.
type Tuple struct {
	fields []Item
}

// NewTuple builds a tuple from the given items. The slice is copied, so the
// caller retains ownership of its argument.
func NewTuple(items ...Item) Tuple {
	fields := make([]Item, len(items))
	copy(fields, items)
	return Tuple{fields: fields}
}

// TupleOf builds a tuple that takes ownership of fields: no copy is made, so
// the caller must not modify the slice afterwards. For callers that have
// just built the slice for this tuple and drop their reference to it.
func TupleOf(fields []Item) Tuple { return Tuple{fields: fields} }

// Arity returns the number of fields.
func (t Tuple) Arity() int { return len(t.fields) }

// IsZero reports whether the tuple has no fields (the zero Tuple).
func (t Tuple) IsZero() bool { return len(t.fields) == 0 }

// Field returns field i. It panics if i is out of range, mirroring slice
// indexing.
func (t Tuple) Field(i int) Item { return t.fields[i] }

// Key returns the tuple's key: its first field. The zero Item is returned
// for the zero Tuple.
func (t Tuple) Key() Item {
	if len(t.fields) == 0 {
		return Item{}
	}
	return t.fields[0]
}

// SortedByKey returns tuples in strictly ascending key order, the form
// every relation builder lays out in one linear pass. Input already in that
// order — a snapshot, a preload — is returned as is, with no copy. Anything
// else is stably sorted into a copy in which the last of each run of equal
// keys stands for the run: a later tuple replaces an earlier one with the
// same key, as an insert would.
func SortedByKey(tuples []Tuple) []Tuple {
	for i := 1; i < len(tuples); i++ {
		if tuples[i-1].Key().Compare(tuples[i].Key()) >= 0 {
			return lastPerKey(tuples)
		}
	}
	return tuples
}

func lastPerKey(tuples []Tuple) []Tuple {
	out := slices.Clone(tuples)
	slices.SortStableFunc(out, func(a, b Tuple) int { return a.Key().Compare(b.Key()) })
	kept := 0
	for _, t := range out {
		if kept > 0 && out[kept-1].Key().Compare(t.Key()) == 0 {
			kept--
		}
		out[kept] = t
		kept++
	}
	return out[:kept]
}

// Fields returns a copy of the tuple's fields.
func (t Tuple) Fields() []Item {
	out := make([]Item, len(t.fields))
	copy(out, t.fields)
	return out
}

// WithField returns a copy of the tuple with field i replaced. It panics if
// i is out of range.
func (t Tuple) WithField(i int, item Item) Tuple {
	if i < 0 || i >= len(t.fields) {
		panic(fmt.Sprintf("value: WithField index %d out of range for arity %d", i, len(t.fields)))
	}
	fields := make([]Item, len(t.fields))
	copy(fields, t.fields)
	fields[i] = item
	return Tuple{fields: fields}
}

// Compare orders tuples lexicographically field by field; a shorter tuple
// that is a prefix of a longer one sorts first.
func (t Tuple) Compare(other Tuple) int {
	n := min(len(t.fields), len(other.fields))
	for i := 0; i < n; i++ {
		if c := t.fields[i].Compare(other.fields[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t.fields) < len(other.fields):
		return -1
	case len(t.fields) > len(other.fields):
		return 1
	}
	return 0
}

// Equal reports whether two tuples have identical fields.
func (t Tuple) Equal(other Tuple) bool { return t.Compare(other) == 0 }

// String renders the tuple as it would appear in the query language, e.g.
// (7, "widget", 3).
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range t.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Hash returns a 64-bit FNV-1a hash of the tuple, used by property tests to
// compare large sets of tuples cheaply.
func (t Tuple) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, f := range t.fields {
		buf[0] = byte(f.kind)
		_, _ = h.Write(buf[:1])
		switch f.kind {
		case KindInt:
			v := uint64(f.i)
			for i := 0; i < 8; i++ {
				buf[i] = byte(v >> (8 * i))
			}
			_, _ = h.Write(buf[:8])
		case KindString:
			_, _ = h.Write([]byte(f.s))
		}
	}
	return h.Sum64()
}
