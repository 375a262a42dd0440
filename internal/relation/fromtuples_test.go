package relation

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"funcdb/internal/eval"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// fromTuplesInput splits a FuzzFromTuples input: a little-endian uint16
// tuple count, that many 2-byte tuple keys, then 2-byte insert/delete ops.
// Keys are 11 bits and stored doubled, so every odd int is a gap a Find
// can probe. Tuple i's value is "t<i>" and op j's "o<j>", so the value a
// key holds says which write won.
func fromTuplesInput(data []byte) (tuples []value.Tuple, ops []byte) {
	if len(data) < 2 {
		return nil, nil
	}
	n := min(int(binary.LittleEndian.Uint16(data)), (len(data)-2)/2)
	data = data[2:]
	for i := 0; i < n; i++ {
		tuples = append(tuples, value.NewTuple(value.Int(fuzzKey(data[2*i:])), value.Str(fmt.Sprintf("t%d", i))))
	}
	return tuples, data[2*n:]
}

func fuzzKey(b []byte) int64 { return 2 * int64(binary.LittleEndian.Uint16(b)&0x7ff) }

// inKeyOrder is the oracle's view of a model: its tuples sorted by key.
func inKeyOrder(model map[int64]value.Tuple) []value.Tuple {
	out := make([]value.Tuple, 0, len(model))
	for _, tu := range model {
		out = append(out, tu)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key().AsInt() < out[j].Key().AsInt() })
	return out
}

func holds(rel Relation, want []value.Tuple) error {
	got := rel.Tuples()
	if len(got) != len(want) || rel.Len() != len(want) {
		return fmt.Errorf("holds %d tuples (Len %d), want %d", len(got), rel.Len(), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("tuple %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// findCosts returns, for the 2n+1 in-order positions of a relation of even
// keys — the gap below each key, the key, and the gap above the last — how
// many nodes, pages or cells a Find for that position visits. That is the
// tree's shape as search sees it: a key's depth, and a gap's leaf.
func findCosts(rel Relation) []int {
	stats := &eval.Stats{}
	ctx := &eval.Ctx{Stats: stats}
	probe := func(k int64) int {
		before := stats.Visited.Load()
		rel.Find(ctx, value.Int(k), trace.None)
		return int(stats.Visited.Load() - before)
	}
	var out []int
	last := int64(-1)
	for _, tu := range rel.Tuples() {
		last = tu.Key().AsInt()
		out = append(out, probe(last-1), probe(last))
	}
	return append(out, probe(last+1))
}

// avlHeight rebuilds the subtree over in-order positions lo..hi (gaps at
// both ends) from its Find costs: its root is the one key there at depth d.
// It checks the AVL balance rule at every node and returns the height.
func avlHeight(costs []int, lo, hi, d int) (int, error) {
	if lo == hi {
		if costs[lo] != d-1 {
			return 0, fmt.Errorf("gap %d ends a search of %d nodes under a node at depth %d", lo, costs[lo], d-1)
		}
		return 0, nil
	}
	for r := lo + 1; r < hi; r += 2 {
		if costs[r] != d {
			continue
		}
		hl, err := avlHeight(costs, lo, r-1, d+1)
		if err != nil {
			return 0, err
		}
		hr, err := avlHeight(costs, r+1, hi, d+1)
		if err != nil {
			return 0, err
		}
		if hl-hr > 1 || hr-hl > 1 {
			return 0, fmt.Errorf("node at position %d has subtrees of heights %d and %d", r, hl, hr)
		}
		return max(hl, hr) + 1, nil
	}
	return 0, fmt.Errorf("no node at depth %d over positions %d..%d", d, lo, hi)
}

// checkShape checks a relation's structure through what its exported
// operations observe: list order; AVL balance at every node and the height
// the tree reports; every 2-3 leaf at the tree's height; every paged search
// one page per level, and the page count the root carries equal to the
// pages a full scan visits.
func checkShape(rel Relation) error {
	tuples := rel.Tuples()
	for i := 1; i < len(tuples); i++ {
		if tuples[i-1].Key().Compare(tuples[i].Key()) >= 0 {
			return fmt.Errorf("%v out of key order at %d", tuples[i], i)
		}
	}
	switch r := rel.(type) {
	case avlRelation:
		costs := findCosts(rel)
		h, err := avlHeight(costs, 0, len(costs)-1, 1)
		if err != nil {
			return err
		}
		if h != r.t.Height() {
			return fmt.Errorf("AVL reports height %d, its searches show %d", r.t.Height(), h)
		}
	case tree23Relation:
		for i, c := range findCosts(rel) {
			if i%2 == 0 && c != r.t.Height() || c > r.t.Height() {
				return fmt.Errorf("2-3 position %d is %d nodes deep in a tree of height %d", i, c, r.t.Height())
			}
		}
	case pagedRelation:
		for i, c := range findCosts(rel) {
			if c != r.t.Height() {
				return fmt.Errorf("paged position %d is %d pages deep in a tree of height %d", i, c, r.t.Height())
			}
		}
		stats := &eval.Stats{}
		rel.Range(&eval.Ctx{Stats: stats}, value.MinKey(), value.MaxKey(), trace.None, func(value.Tuple) {})
		if v := int(stats.Visited.Load()); v != r.t.PageCount() {
			return fmt.Errorf("paged tree carries %d pages, a scan visits %d", r.t.PageCount(), v)
		}
	}
	return nil
}

// checkFromTuples builds rep from tuples and checks it against a model
// that takes them one by one, the last of equal keys winning, and checks its
// shape. It then applies ops to it and to the model, and in the end checks
// every version against what the model held when that version was made, and
// the last version's shape.
func checkFromTuples(rep Rep, tuples []value.Tuple, ops []byte) error {
	input := slices.Clone(tuples)
	rel := FromTuples(rep, tuples)
	if !slices.EqualFunc(input, tuples, value.Tuple.Equal) {
		return fmt.Errorf("build reordered its input")
	}
	model := map[int64]value.Tuple{}
	for _, tu := range tuples {
		model[tu.Key().AsInt()] = tu
	}
	if err := checkShape(rel); err != nil {
		return fmt.Errorf("as built: %w", err)
	}
	type version struct {
		rel  Relation
		want []value.Tuple
	}
	versions := []version{{rel, inKeyOrder(model)}}
	for step := 0; len(ops) >= 2; step, ops = step+1, ops[2:] {
		k := fuzzKey(ops)
		if ops[1]&0x80 == 0 {
			tu := value.NewTuple(value.Int(k), value.Str(fmt.Sprintf("o%d", step)))
			rel, _ = rel.Insert(nil, tu, trace.None)
			model[k] = tu
		} else {
			_, had := model[k]
			var found bool
			if rel, found, _ = rel.Delete(nil, value.Int(k), trace.None); found != had {
				return fmt.Errorf("step %d: Delete(%d) found %v, model %v", step, k, found, had)
			}
			delete(model, k)
		}
		versions = append(versions, version{rel, inKeyOrder(model)})
	}
	for i, v := range versions {
		if err := holds(v.rel, v.want); err != nil {
			return fmt.Errorf("version %d of %d: %w", i, len(versions), err)
		}
	}
	if err := checkShape(rel); err != nil {
		return fmt.Errorf("after %d updates: %w", len(versions)-1, err)
	}
	return nil
}

// FuzzFromTuples: every representation built from any tuples — any order,
// any duplicates — holds what inserting them one by one would, in a valid
// shape, and takes inserts and deletes like any other version without
// disturbing the ones before. testdata/fuzz/FuzzFromTuples holds the
// directed seeds: empty, one tuple, two equal keys, descending input, and
// each side of 2^h and 3^h tuples, where the trees grow a level.
func FuzzFromTuples(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tuples, ops := fromTuplesInput(data)
		if len(tuples) > 768 || len(ops) > 128 {
			return
		}
		for _, rep := range allReps() {
			if err := checkFromTuples(rep, tuples, ops); err != nil {
				t.Fatalf("%v: %v", rep, err)
			}
		}
	})
}

func sortedRows(n int) []value.Tuple {
	tuples := make([]value.Tuple, n)
	for i := range tuples {
		tuples[i] = tup(int64(i))
	}
	return tuples
}

// TestFromTuplesAllocGate: building a relation of n sorted rows allocates
// its nodes and nothing per row beyond them — no path copy per tuple, no
// sort, no copy of the input. A list takes its cells in chunks.
func TestFromTuplesAllocGate(t *testing.T) {
	const n = 2000
	tuples := sortedRows(n)
	pages, _ := Paged(FromTuples(RepPaged, tuples))
	for _, gate := range []struct {
		rep   Rep
		limit float64
	}{
		{RepAVL, n + 2},
		{Rep23, n},
		{RepList, n/32 + 8},
		{RepPaged, 2 * float64(pages.PageCount())},
	} {
		if allocs := testing.AllocsPerRun(5, func() { FromTuples(gate.rep, tuples) }); allocs > gate.limit {
			t.Errorf("%v: FromTuples of %d sorted rows = %.0f allocs, want <= %.0f", gate.rep, n, allocs, gate.limit)
		}
	}
}

func BenchmarkFromTuples(b *testing.B) {
	for _, rep := range allReps() {
		for _, order := range []string{"sorted", "shuffled"} {
			for _, n := range []int{2000, 25000} {
				tuples := sortedRows(n)
				if order == "shuffled" {
					rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
				}
				b.Run(fmt.Sprintf("%v/%s/%d", rep, order, n), func(b *testing.B) {
					b.ReportAllocs()
					for b.Loop() {
						FromTuples(rep, tuples)
					}
				})
			}
		}
	}
}
