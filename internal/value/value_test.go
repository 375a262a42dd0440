package value

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestItemConstructorsAndAccessors(t *testing.T) {
	tests := []struct {
		name     string
		item     Item
		kind     Kind
		asInt    int64
		asStr    string
		rendered string
	}{
		{"positive int", Int(42), KindInt, 42, "", "42"},
		{"negative int", Int(-7), KindInt, -7, "", "-7"},
		{"zero int", Int(0), KindInt, 0, "", "0"},
		{"plain string", Str("abc"), KindString, 0, "abc", `"abc"`},
		{"empty string", Str(""), KindString, 0, "", `""`},
		{"string needing quoting", Str(`a"b`), KindString, 0, `a"b`, `"a\"b"`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.item.Kind(); got != tc.kind {
				t.Errorf("Kind() = %v, want %v", got, tc.kind)
			}
			if got := tc.item.AsInt(); got != tc.asInt {
				t.Errorf("AsInt() = %d, want %d", got, tc.asInt)
			}
			if got := tc.item.AsString(); got != tc.asStr {
				t.Errorf("AsString() = %q, want %q", got, tc.asStr)
			}
			if got := tc.item.String(); got != tc.rendered {
				t.Errorf("String() = %q, want %q", got, tc.rendered)
			}
			if !tc.item.IsValid() {
				t.Error("IsValid() = false, want true")
			}
		})
	}
}

func TestZeroItemIsInvalid(t *testing.T) {
	var it Item
	if it.IsValid() {
		t.Error("zero Item reported valid")
	}
	if got := it.String(); got != "<invalid item>" {
		t.Errorf("zero Item String() = %q", got)
	}
}

func TestItemCompare(t *testing.T) {
	tests := []struct {
		name string
		a, b Item
		want int
	}{
		{"int less", Int(1), Int(2), -1},
		{"int greater", Int(5), Int(2), 1},
		{"int equal", Int(3), Int(3), 0},
		{"string less", Str("a"), Str("b"), -1},
		{"string greater", Str("b"), Str("a"), 1},
		{"string equal", Str("x"), Str("x"), 0},
		{"int before string", Int(999), Str(""), -1},
		{"string after int", Str(""), Int(999), 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.Compare(tc.b); got != tc.want {
				t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
			}
			if got, want := tc.a.Equal(tc.b), tc.want == 0; got != want {
				t.Errorf("Equal(%v, %v) = %v, want %v", tc.a, tc.b, got, want)
			}
		})
	}
}

func TestItemCompareIsAntisymmetric(t *testing.T) {
	items := []Item{Int(-1), Int(0), Int(1), Str(""), Str("a"), Str("z")}
	for _, a := range items {
		for _, b := range items {
			if a.Compare(b) != -b.Compare(a) {
				t.Errorf("Compare(%v,%v) and Compare(%v,%v) not antisymmetric", a, b, b, a)
			}
		}
	}
}

func TestTupleBasics(t *testing.T) {
	tu := NewTuple(Int(7), Str("widget"), Int(3))
	if got := tu.Arity(); got != 3 {
		t.Fatalf("Arity() = %d, want 3", got)
	}
	if got := tu.Key(); !got.Equal(Int(7)) {
		t.Errorf("Key() = %v, want 7", got)
	}
	if got := tu.Field(1); !got.Equal(Str("widget")) {
		t.Errorf("Field(1) = %v", got)
	}
	if got := tu.String(); got != `(7, "widget", 3)` {
		t.Errorf("String() = %q", got)
	}
	if tu.IsZero() {
		t.Error("IsZero() = true for non-empty tuple")
	}
	var zero Tuple
	if !zero.IsZero() {
		t.Error("IsZero() = false for zero tuple")
	}
	if zero.Key().IsValid() {
		t.Error("zero tuple Key() should be invalid")
	}
}

func TestNewTupleCopiesInput(t *testing.T) {
	items := []Item{Int(1), Int(2)}
	tu := NewTuple(items...)
	items[0] = Int(99)
	if !tu.Field(0).Equal(Int(1)) {
		t.Error("NewTuple did not copy its input slice")
	}
	fields := tu.Fields()
	fields[1] = Int(100)
	if !tu.Field(1).Equal(Int(2)) {
		t.Error("Fields() did not return a copy")
	}
}

func TestWithField(t *testing.T) {
	orig := NewTuple(Int(1), Str("a"))
	mod := orig.WithField(1, Str("b"))
	if !orig.Field(1).Equal(Str("a")) {
		t.Error("WithField mutated the original tuple")
	}
	if !mod.Field(1).Equal(Str("b")) {
		t.Error("WithField did not set the new field")
	}
	if !mod.Field(0).Equal(Int(1)) {
		t.Error("WithField clobbered an unrelated field")
	}
}

func TestWithFieldPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WithField out of range did not panic")
		}
	}()
	NewTuple(Int(1)).WithField(5, Int(2))
}

func TestTupleCompare(t *testing.T) {
	tests := []struct {
		name string
		a, b Tuple
		want int
	}{
		{"equal", NewTuple(Int(1), Int(2)), NewTuple(Int(1), Int(2)), 0},
		{"first field decides", NewTuple(Int(1), Int(9)), NewTuple(Int(2), Int(0)), -1},
		{"second field decides", NewTuple(Int(1), Int(2)), NewTuple(Int(1), Int(3)), -1},
		{"prefix sorts first", NewTuple(Int(1)), NewTuple(Int(1), Int(0)), -1},
		{"longer sorts after", NewTuple(Int(1), Int(0)), NewTuple(Int(1)), 1},
		{"empty vs empty", NewTuple(), NewTuple(), 0},
		{"empty vs non-empty", NewTuple(), NewTuple(Int(0)), -1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.Compare(tc.b); got != tc.want {
				t.Errorf("Compare = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestTupleHashDistinguishes(t *testing.T) {
	a := NewTuple(Int(1), Str("x"))
	b := NewTuple(Int(1), Str("y"))
	c := NewTuple(Int(1), Str("x"))
	if a.Hash() == b.Hash() {
		t.Error("different tuples hashed equal (possible but wildly unlikely)")
	}
	if a.Hash() != c.Hash() {
		t.Error("equal tuples hashed differently")
	}
	// Kind must participate: Int(0x61) vs Str("a") encode differently.
	if NewTuple(Int(0x61)).Hash() == NewTuple(Str("a")).Hash() {
		t.Error("kind not mixed into hash")
	}
}

// randomItem produces an arbitrary Item for property tests.
func randomItem(r *rand.Rand) Item {
	if r.Intn(2) == 0 {
		return Int(int64(r.Intn(2000) - 1000))
	}
	letters := []byte("abcdefgh")
	n := r.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return Str(string(b))
}

func randomTuple(r *rand.Rand) Tuple {
	n := 1 + r.Intn(4)
	items := make([]Item, n)
	for i := range items {
		items[i] = randomItem(r)
	}
	return NewTuple(items...)
}

func TestPropertyCompareTotalOrder(t *testing.T) {
	// Compare must be a total order: antisymmetric and transitive.
	cfg := &quick.Config{MaxCount: 300}
	anti := func(seed1, seed2 int64) bool {
		a := randomTuple(rand.New(rand.NewSource(seed1)))
		b := randomTuple(rand.New(rand.NewSource(seed2)))
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(anti, cfg); err != nil {
		t.Errorf("antisymmetry violated: %v", err)
	}
	trans := func(s1, s2, s3 int64) bool {
		a := randomTuple(rand.New(rand.NewSource(s1)))
		b := randomTuple(rand.New(rand.NewSource(s2)))
		c := randomTuple(rand.New(rand.NewSource(s3)))
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 {
			return a.Compare(c) <= 0
		}
		return true
	}
	if err := quick.Check(trans, cfg); err != nil {
		t.Errorf("transitivity violated: %v", err)
	}
}

func TestPropertyHashConsistentWithEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomTuple(r)
		b := NewTuple(a.Fields()...)
		return a.Equal(b) && a.Hash() == b.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTupleOfNoAlloc: the owning constructor is the slice it is given —
// no copy, so a caller that built the fields for this tuple pays for them
// once — while NewTuple still isolates the tuple from its argument.
func TestTupleOfNoAlloc(t *testing.T) {
	fields := []Item{Int(1), Str("a")}
	var tu Tuple
	if allocs := testing.AllocsPerRun(100, func() { tu = TupleOf(fields) }); allocs != 0 {
		t.Errorf("TupleOf = %.1f allocs, want 0", allocs)
	}
	if !tu.Equal(NewTuple(Int(1), Str("a"))) {
		t.Errorf("TupleOf(%v) = %v", fields, tu)
	}
	copied := NewTuple(fields...)
	fields[0] = Int(2)
	if copied.Field(0).AsInt() != 1 {
		t.Error("NewTuple aliases its argument")
	}
}
