package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// naiveDiff is the oracle for Diff: both versions' tuples by key, compared
// key by key over the union of their keys, in key order.
func naiveDiff(old, next Relation) []string {
	a, b := map[int64]value.Tuple{}, map[int64]value.Tuple{}
	var keys []int64
	for _, tu := range old.Tuples() {
		a[tu.Key().AsInt()] = tu
		keys = append(keys, tu.Key().AsInt())
	}
	for _, tu := range next.Tuples() {
		b[tu.Key().AsInt()] = tu
		if _, ok := a[tu.Key().AsInt()]; !ok {
			keys = append(keys, tu.Key().AsInt())
		}
	}
	slices.Sort(keys)
	var out []string
	for _, k := range keys {
		ta, tb := a[k], b[k]
		if !ta.IsZero() && !tb.IsZero() && ta.Equal(tb) {
			continue
		}
		out = append(out, fmt.Sprintf("%v->%v", ta, tb))
	}
	return out
}

// diffOf renders what Diff reports, checking that it comes in key order.
func diffOf(t *testing.T, old, next Relation) []string {
	t.Helper()
	var out []string
	var last value.Item
	Diff(old, next, func(a, b value.Tuple) {
		key := a
		if key.IsZero() {
			key = b
		}
		if last.IsValid() && key.Key().Compare(last) <= 0 {
			t.Fatalf("Diff visited key %v after %v", key.Key(), last)
		}
		last = key.Key()
		out = append(out, fmt.Sprintf("%v->%v", a, b))
	})
	return out
}

// TestPagedAndLegacyDiffAgreeWithNaiveDiff: on random histories of every
// representation — paged ones at small page capacities too, where splits,
// merges and new root levels come often — Diff between any two versions,
// in either direction, and between representations, reports exactly the
// keys a naive two-scan diff finds.
func TestPagedAndLegacyDiffAgreeWithNaiveDiff(t *testing.T) {
	type shape struct {
		name  string
		empty func() Relation
	}
	shapes := []shape{
		{"list", func() Relation { return New(RepList) }},
		{"avl", func() Relation { return New(RepAVL) }},
		{"2-3", func() Relation { return New(Rep23) }},
		{"paged", func() Relation { return New(RepPaged) }},
		{"paged/2", func() Relation { return NewPagedWithCap(2, nil) }},
		{"paged/3", func() Relation { return NewPagedWithCap(3, nil) }},
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, sh := range shapes {
			r := rand.New(rand.NewSource(seed))
			rel := sh.empty()
			history := []Relation{rel}
			for step := 0; step < 120; step++ {
				k := int64(r.Intn(90))
				switch op := r.Intn(10); {
				case op < 5:
					rel, _ = rel.Insert(nil, value.NewTuple(value.Int(k), value.Str(fmt.Sprint(r.Intn(3)))), trace.None)
				case op < 8:
					rel, _, _ = rel.Delete(nil, value.Int(k), trace.None)
				default:
					run := make([]value.Tuple, 1+r.Intn(40))
					for i := range run {
						run[i] = value.NewTuple(value.Int(int64(r.Intn(90))), value.Str(fmt.Sprint(r.Intn(3))))
					}
					rel = UpsertRun(nil, rel, run)
				}
				history = append(history, rel)
			}
			for range 200 {
				a, b := history[r.Intn(len(history))], history[r.Intn(len(history))]
				if r.Intn(8) == 0 {
					b = FromTuples(allReps()[r.Intn(4)], b.Tuples()) // another representation
				}
				got, want := diffOf(t, a, b), naiveDiff(a, b)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d %s: Diff reports\n%v\nnaive diff\n%v", seed, sh.name, got, want)
				}
			}
			if got := diffOf(t, rel, rel); len(got) != 0 {
				t.Fatalf("seed %d %s: a version differs from itself: %v", seed, sh.name, got)
			}
		}
	}
}
