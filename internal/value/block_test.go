package value

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// blockTuples decodes a tuple stream (EncodeTuples' form) out of one Block.
func blockTuples(t *testing.T, b *Block, buf []byte) []Tuple {
	t.Helper()
	b.Reset(buf)
	count, rest, err := decodeArity(buf) // a tuple count, guarded as an arity is
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Tuple, count)
	for i := range out {
		if out[i], rest, err = b.Tuple(rest, count-i); err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	return out
}

// TestBlockSharesOneCopy: a payload's strings and fields come out of one
// copy and one item block, which never alias the payload, and every
// tuple's fields are capped at its arity.
func TestBlockSharesOneCopy(t *testing.T) {
	tuples := []Tuple{
		NewTuple(Int(1), Str("one")),
		NewTuple(Int(2), Str("two")),
		NewTuple(Str("three"), Int(3), Str("")),
		NewTuple(),
		NewTuple(Int(4)),
	}
	buf, err := EncodeTuples(tuples)
	if err != nil {
		t.Fatal(err)
	}
	var b Block
	var got []Tuple
	allocs := testing.AllocsPerRun(20, func() { got = blockTuples(t, &b, buf) })
	// The tuples slice, the copy, and one item block: sized from the
	// first tuple for five of arity 2, it holds all eight fields.
	if allocs != 3 {
		t.Errorf("decoding %d tuples = %.1f allocs, want 3", len(tuples), allocs)
	}
	for i := range buf {
		buf[i] = 0xAA
	}
	for i, tu := range got {
		if !tu.Equal(tuples[i]) {
			t.Errorf("tuple %d = %v after the payload was overwritten, want %v", i, tu, tuples[i])
		}
		if cap(tu.fields) != len(tu.fields) {
			t.Errorf("tuple %d: fields cap %d, len %d", i, cap(tu.fields), len(tu.fields))
		}
	}
}

// TestBlockCopiesOnlyForStrings: a payload with no non-empty string is
// never copied.
func TestBlockCopiesOnlyForStrings(t *testing.T) {
	buf := AppendString(nil, "")
	buf, _ = AppendItem(buf, Int(7))
	buf, _ = AppendItem(buf, Str(""))
	var b Block
	allocs := testing.AllocsPerRun(20, func() {
		b.Reset(buf)
		s, rest, err := b.String(buf)
		if err != nil || s != "" {
			t.Fatalf("string %q, %v", s, err)
		}
		for _, want := range []Item{Int(7), Str("")} {
			var it Item
			if it, rest, err = b.Item(rest); err != nil || !it.Equal(want) {
				t.Fatalf("item %v, %v: want %v", it, err, want)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("a payload without strings = %.1f allocs, want 0", allocs)
	}
}

// TestBlockMatchesPerTupleDecode: on any input a Block accepts exactly
// what DecodeTuple accepts, and decodes the same tuple.
func TestBlockMatchesPerTupleDecode(t *testing.T) {
	f := func(buf []byte, seed int64) bool {
		if seed%2 == 0 { // half the inputs valid, half arbitrary
			buf, _ = AppendTuple(nil, randomTuple(rand.New(rand.NewSource(seed))))
		}
		var b Block
		b.Reset(buf)
		got, grest, gerr := b.Tuple(buf, int(seed%5))
		want, wrest, werr := DecodeTuple(buf)
		if (gerr == nil) != (werr == nil) {
			t.Errorf("%x: block err %v, per-tuple err %v", buf, gerr, werr)
			return false
		}
		return gerr != nil || got.Equal(want) && len(grest) == len(wrest)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestBlockRefusesAForeignBuffer: a buffer that is not a suffix of the
// payload is a caller's bug, and panics rather than misplace a string.
func TestBlockRefusesAForeignBuffer(t *testing.T) {
	buf := AppendString(nil, "abc")
	var b Block
	b.Reset(buf)
	defer func() {
		if recover() == nil {
			t.Error("a foreign buffer decoded")
		}
	}()
	_, _, _ = b.String(append([]byte(nil), buf...))
}
