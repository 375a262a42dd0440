package ptree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"funcdb/internal/eval"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// pagedCaps are the capacities the oracle tests run at: the small ones the
// Figure 2-2 sweep uses, the inline size every production page has, and one
// past it, where pages fall back to heap slices.
var pagedCaps = []int{2, 3, 4, DefaultPageCap, DefaultPageCap + 1}

// pagedEntry is one tuple of the oracle: a sorted slice is the model.
type pagedEntry struct {
	key int64
	val string
}

// pagedVersion is one version of the tree beside a digest of what it held
// when it was current.
type pagedVersion struct {
	tr     Paged
	n      int
	digest uint64
}

// digest folds keys and values in order (FNV-1a).
func digest(n int, at func(i int) (int64, string)) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	for i := 0; i < n; i++ {
		k, v := at(i)
		for s := 0; s < 64; s += 8 {
			mix(byte(k >> s))
		}
		for j := 0; j < len(v); j++ {
			mix(v[j])
		}
		mix(0xff)
	}
	return h
}

func checkVersion(v pagedVersion) error {
	got := v.tr.Tuples()
	if len(got) != v.n || v.tr.Len() != v.n {
		return fmt.Errorf("holds %d tuples (Len %d), held %d when current", len(got), v.tr.Len(), v.n)
	}
	if d := digest(len(got), func(i int) (int64, string) { return got[i].Key().AsInt(), got[i].Field(1).AsString() }); d != v.digest {
		return fmt.Errorf("its %d tuples are not the ones it held when current", v.n)
	}
	return nil
}

// upsert puts key with val into a sorted-slice model.
func upsert(model []pagedEntry, key int64, val string) []pagedEntry {
	at := sort.Search(len(model), func(i int) bool { return model[i].key >= key })
	if at == len(model) || model[at].key != key {
		model = append(model, pagedEntry{})
		copy(model[at+1:], model[at:])
	}
	model[at] = pagedEntry{key, val}
	return model
}

// opUpsertRun is the kind byte of a run op, which takes six bytes: kind,
// an 11-bit start key and a 5-bit stride, then a shuffle seed, an 11-bit
// length and a 5-bit duplicate period. The run's keys are start, start +
// stride, ... (all one key at stride 0; past the 11-bit space, and so past
// the tree's right edge, when the sum runs over). A non-zero seed shuffles
// them and, with a non-zero period, overwrites every period-th key with an
// earlier one of the run, so the run carries duplicates whose last must win.
const opUpsertRun = 5

// pagedRun builds the run a six-byte run op describes, valued by step and
// position so the model can tell which duplicate won.
func pagedRun(op []byte, step int) []value.Tuple {
	start, stride := int64(op[1])|int64(op[2]&7)<<8, int64(op[2]>>3)
	n, period := int(op[4])|int(op[5]&7)<<8, int(op[5]>>3)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = start + int64(i)*stride
	}
	if op[3] != 0 {
		r := rand.New(rand.NewSource(int64(op[3])))
		r.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for i := period; period > 0 && i < n; i += period {
			keys[i] = keys[r.Intn(i)]
		}
	}
	run := make([]value.Tuple, n)
	for i, k := range keys {
		run[i] = value.NewTuple(value.Int(k), value.Str(fmt.Sprintf("r%d.%d", step, i)))
	}
	return run
}

// runPagedOps interprets ops — three bytes each: kind, then an 11-bit key
// and a 5-bit range width; six for a run (opUpsertRun) — against a tree of
// the given capacity and a sorted-slice model. After every step the tree's
// shape is checked (checkInvariants recounts every subtree, so the page and
// tuple counts the pages carry are checked against a walk), the answer is
// compared with the model's, and three versions — the new one, the previous
// one and a rotating older one — are read back: a page whose slots alias
// another page's would change under them. All versions are read back at the
// end.
func runPagedOps(pageCap int, ops []byte) error {
	tr := NewPaged(pageCap)
	var model []pagedEntry
	var versions []pagedVersion
	for step := 0; len(ops) >= 3; step++ {
		width := 3
		if ops[0]%6 == opUpsertRun {
			width = 6
		}
		if len(ops) < width {
			break
		}
		op := ops[:width]
		ops = ops[width:]
		key := int64(op[1]) | int64(op[2]&7)<<8
		at := sort.Search(len(model), func(i int) bool { return model[i].key >= key })
		had := at < len(model) && model[at].key == key
		switch op[0] % 6 {
		case 0, 1:
			val := fmt.Sprintf("v%d", step)
			tr, _ = tr.Insert(nil, value.NewTuple(value.Int(key), value.Str(val)), trace.None)
			model = upsert(model, key, val)
		case opUpsertRun:
			run := pagedRun(op, step)
			tr = tr.UpsertRun(nil, run)
			for _, tu := range run {
				model = upsert(model, tu.Key().AsInt(), tu.Field(1).AsString())
			}
		case 2:
			var found bool
			tr, found, _ = tr.Delete(nil, value.Int(key), trace.None)
			if had != found {
				return fmt.Errorf("step %d: Delete(%d) found %v, model %v", step, key, found, had)
			}
			if had {
				model = append(model[:at], model[at+1:]...)
			}
		case 3:
			tu, ok, _ := tr.Find(nil, value.Int(key), trace.None)
			if ok != had || (ok && tu.Field(1).AsString() != model[at].val) {
				return fmt.Errorf("step %d: Find(%d) = %v, %v; model has it: %v", step, key, tu, ok, had)
			}
		case 4:
			hi := key + int64(op[2]>>3)
			var got []int64
			tr.Range(nil, value.Int(key), value.Int(hi), trace.None, func(tu value.Tuple) {
				got = append(got, tu.Key().AsInt())
			})
			var want []int64
			for i := at; i < len(model) && model[i].key <= hi; i++ {
				want = append(want, model[i].key)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				return fmt.Errorf("step %d: Range(%d, %d) = %v, model %v", step, key, hi, got, want)
			}
		}
		if err := tr.checkInvariants(); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		versions = append(versions, pagedVersion{tr: tr, n: len(model),
			digest: digest(len(model), func(i int) (int64, string) { return model[i].key, model[i].val })})
		for _, i := range []int{step, step - 1, (step * 7) % len(versions)} {
			if i < 0 {
				continue
			}
			if err := checkVersion(versions[i]); err != nil {
				return fmt.Errorf("after step %d, version %d: %w", step, i, err)
			}
		}
	}
	for i, v := range versions {
		if err := checkVersion(v); err != nil {
			return fmt.Errorf("at the end, version %d: %w", i, err)
		}
	}
	return nil
}

// randomPagedOps draws operations over a key space sized to take a tree of
// the given capacity three levels deep: the first half is mostly inserts,
// so pages split up to the root; the second half is mostly deletes, so
// they merge, unlink and collapse. One op in 32 is a run of up to four
// pages' worth of keys — shuffled or ascending, with or without duplicates,
// and often running past the tree's right edge.
func randomPagedOps(r *rand.Rand, pageCap int) []byte {
	space := min(64*pageCap, 2048)
	n := 2 * space
	ops := make([]byte, 0, 3*n)
	for i := 0; i < n; i++ {
		key := r.Intn(space)
		if r.Intn(32) == 0 {
			length := 1 + r.Intn(4*pageCap)
			ops = append(ops, opUpsertRun, byte(key), byte(key>>8)|byte(r.Intn(5))<<3,
				byte(r.Intn(4)), byte(length), byte(length>>8)|byte(r.Intn(8))<<3)
			continue
		}
		kind := byte(r.Intn(5))
		if grow := i < n/2; r.Intn(2) == 0 {
			if grow {
				kind = 0
			} else {
				kind = 2
			}
		}
		ops = append(ops, kind, byte(key), byte(key>>8)|byte(r.Intn(32))<<3)
	}
	return ops
}

func TestPagedMatchesOracle(t *testing.T) {
	for _, pageCap := range pagedCaps {
		t.Run(fmt.Sprintf("cap=%d", pageCap), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				ops := randomPagedOps(rand.New(rand.NewSource(seed)), pageCap)
				if err := runPagedOps(pageCap, ops); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// FuzzPagedOps: the first byte picks the capacity, the rest are runPagedOps
// operations. testdata/fuzz/FuzzPagedOps holds the directed seeds (ascending
// and descending loads, thin-outs, split cascades); the ones added here are
// random.
func FuzzPagedOps(f *testing.F) {
	for i, pageCap := range pagedCaps {
		ops := randomPagedOps(rand.New(rand.NewSource(int64(i))), pageCap)
		f.Add(append([]byte{byte(i)}, ops[:min(len(ops), 900)]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if err := runPagedOps(pagedCaps[int(data[0])%len(pagedCaps)], data[1:]); err != nil {
			t.Fatal(err)
		}
	})
}

// leafFill is tuples over data-page slots.
func leafFill(t Paged) float64 {
	leaves := 0
	var walk func(p *page)
	walk = func(p *page) {
		if p.leaf {
			leaves++
		}
		for _, k := range p.kids {
			walk(k)
		}
	}
	walk(t.root)
	return float64(t.Len()) / float64(leaves*t.PageCap())
}

// TestPagedAscendingLoadFillsPages: keys arriving in ascending order — an
// autoincrement relation, a preload — split at the end, so the pages they
// leave behind are full, not half empty.
func TestPagedAscendingLoadFillsPages(t *testing.T) {
	for _, pageCap := range []int{4, DefaultPageCap, 2 * DefaultPageCap} {
		tr := NewPaged(pageCap)
		for i := int64(0); i < 10000; i++ {
			tr, _ = tr.Insert(nil, tup(i), trace.None)
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		if fill := leafFill(tr); fill < 0.9 {
			t.Errorf("cap %d: ascending load of 10 000 keys left data pages %.2f full, want >= 0.9", pageCap, fill)
		}
	}
}

// TestPagedBulkLoad: sorted input is laid out bottom-up in full pages at
// every capacity. (Unsorted input and duplicate keys, and the allocation
// bound, are checked for every representation in internal/relation:
// FuzzFromTuples, TestFromTuplesAllocGate.)
func TestPagedBulkLoad(t *testing.T) {
	for _, pageCap := range pagedCaps {
		for _, n := range []int{0, 1, pageCap, pageCap + 1, pageCap*pageCap + 1, 2000} {
			sorted := make([]value.Tuple, n)
			for i := range sorted {
				sorted[i] = tup(int64(i * 3))
			}
			tr := PagedFromTuples(pageCap, sorted)
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("cap %d n %d: %v", pageCap, n, err)
			}
			if got := keys(tr.Tuples()); len(got) != n || (n > 0 && (got[0] != 0 || got[n-1] != int64(3*(n-1)))) {
				t.Fatalf("cap %d n %d: holds %d tuples", pageCap, n, len(got))
			}
			if n >= pageCap {
				if fill := leafFill(tr); fill < float64(n)/float64(n+pageCap) {
					t.Errorf("cap %d n %d: bulk load left data pages %.2f full", pageCap, n, fill)
				}
			}
			for i := range sorted {
				if _, ok, _ := tr.Find(nil, sorted[i].Key(), trace.None); !ok {
					t.Fatalf("cap %d n %d: key %d lost", pageCap, n, i*3)
				}
			}
		}
	}
}

// TestPagedUpsertRunBuildsEachPageOnce: a run rebuilds each page it touches
// once and builds nothing it throws away — every page it creates is in the
// new version, every other page of the new version is the old version's —
// and leaves the old version as it was. An ascending run past the right
// edge leaves full pages behind it, and a run can grow the tree more than
// one level at once.
func TestPagedUpsertRunBuildsEachPageOnce(t *testing.T) {
	rows := func(keys ...int64) []value.Tuple {
		out := make([]value.Tuple, len(keys))
		for i, k := range keys {
			out[i] = tup(k)
		}
		return out
	}
	span := func(from, n, stride int64) []value.Tuple {
		out := make([]value.Tuple, n)
		for i := range out {
			out[i] = tup(from + int64(i)*stride)
		}
		return out
	}
	shuffled := span(0, 500, 7)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	repeated := make([]value.Tuple, 40)
	for i := range repeated {
		repeated[i] = value.NewTuple(value.Int(7), value.Str(fmt.Sprint(i)))
	}
	for _, c := range []struct {
		name       string
		pageCap    int
		base, run  []value.Tuple
		grow       int     // levels the run must add
		appendFill float64 // least data-page fill after the run, or 0
	}{
		{"append 500 onto 2000", DefaultPageCap, span(0, 2000, 1), span(2000, 500, 1), 0, 0.95},
		{"500 shuffled into 2000", DefaultPageCap, span(0, 2000, 2), shuffled, 0, 0},
		{"grow the root twice", 4, rows(10, 20, 30), span(0, 60, 1), 2, 0},
		{"one key repeated", 4, span(0, 40, 1), repeated, 0, 0},
	} {
		old := PagedFromTuples(c.pageCap, c.base)
		before := keys(old.Tuples())
		stats := &eval.Stats{}
		tr := old.UpsertRun(&eval.Ctx{Stats: stats}, c.run)
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if fmt.Sprint(keys(old.Tuples())) != fmt.Sprint(before) {
			t.Fatalf("%s: the run changed the old version", c.name)
		}
		if fresh := int64(tr.PageCount() - tr.SharedPagesWith(old)); stats.Created.Load() != fresh {
			t.Errorf("%s: built %d pages, the new version has %d it does not share", c.name, stats.Created.Load(), fresh)
		}
		if shared := stats.Shared.Load(); shared != int64(tr.SharedPagesWith(old)) {
			t.Errorf("%s: counted %d shared pages, shares %d", c.name, shared, tr.SharedPagesWith(old))
		}
		if grew := tr.Height() - old.Height(); grew < c.grow {
			t.Errorf("%s: height %d -> %d, want %d more levels", c.name, old.Height(), tr.Height(), c.grow)
		}
		if fill := leafFill(tr); fill < c.appendFill {
			t.Errorf("%s: data pages %.2f full after the run, want >= %.2f", c.name, fill, c.appendFill)
		}
		want := upsertOneByOne(old, c.run)
		if got := tr.Tuples(); !slicesEqual(got, want) {
			t.Errorf("%s: the run left %d tuples, inserting it one by one %d", c.name, len(got), len(want))
		}
	}
}

// upsertOneByOne is the definition UpsertRun is held to.
func upsertOneByOne(t Paged, run []value.Tuple) []value.Tuple {
	for _, tu := range run {
		t, _ = t.Insert(nil, tu, trace.None)
	}
	return t.Tuples()
}

func slicesEqual(a, b []value.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestPagedDeleteMergesLeaves: a relation that shrinks gives its pages
// back — a data page under a quarter full joins a neighbour it fits in.
func TestPagedDeleteMergesLeaves(t *testing.T) {
	for _, pageCap := range []int{4, DefaultPageCap, 2 * DefaultPageCap} {
		const n = 4096
		sorted := make([]value.Tuple, n)
		for i := range sorted {
			sorted[i] = tup(int64(i))
		}
		tr := PagedFromTuples(pageCap, sorted)
		full := tr.PageCount()
		for i := int64(0); i < n; i++ {
			if i%8 != 0 {
				tr, _, _ = tr.Delete(nil, value.Int(i), trace.None)
			}
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n/8 {
			t.Fatalf("cap %d: Len %d", pageCap, tr.Len())
		}
		if fill := leafFill(tr); fill < 0.25 {
			t.Errorf("cap %d: after deleting 7 of 8 keys data pages are %.2f full in %d pages (%d when full): under-filled pages were not merged",
				pageCap, fill, tr.PageCount(), full)
		}
	}
}

// TestPagedInsertAllocGate: a page is one allocation, so replacing a tuple
// allocates the pages of its path and at most one object more — not a
// header and a slot array per page, and no walk of the tree to count pages.
func TestPagedInsertAllocGate(t *testing.T) {
	for _, rows := range []int{2000, 25000} {
		tuples := make([]value.Tuple, rows)
		for i := range tuples {
			tuples[i] = tup(int64(i))
		}
		// Loaded by ascending inserts, as a cluster relation is.
		tree := NewPaged(0)
		for _, tu := range tuples {
			tree, _ = tree.Insert(nil, tu, trace.None)
		}
		stats := &eval.Stats{}
		key := 0
		for _, ctx := range []*eval.Ctx{nil, {Stats: stats}} {
			allocs := testing.AllocsPerRun(500, func() {
				key = (key + 617) % rows
				tree.Insert(ctx, tuples[key], trace.None)
			})
			if height := float64(tree.Height()); allocs > height+1 {
				t.Errorf("%d rows: Paged.Insert = %.1f allocs on a path of %.0f pages, want <= height+1", rows, allocs, height)
			}
		}
		if created := float64(stats.Created.Load()) / 501; created != float64(tree.Height()) {
			t.Errorf("%d rows: an upsert created %.2f pages, want the path's %d", rows, created, tree.Height())
		}
	}
}

// BenchmarkUpsert and BenchmarkFind compare the two tree shapes a cluster
// has held its relations in, at the repository benchmark's relation sizes:
// one replaced tuple (the path copy) and one lookup in a tree loaded by
// ascending inserts.
func benchTrees(b *testing.B, run func(b *testing.B, tuples []value.Tuple, t tree, insert func(value.Tuple))) {
	for _, rows := range []int{2000, 25000} {
		tuples := make([]value.Tuple, rows)
		for i := range tuples {
			tuples[i] = tup(int64(i))
		}
		avl, paged := AVL{}, NewPaged(0)
		for _, tu := range tuples {
			avl, _ = avl.Insert(nil, tu, trace.None)
			paged, _ = paged.Insert(nil, tu, trace.None)
		}
		b.Run(fmt.Sprintf("avl/rows=%d", rows), func(b *testing.B) {
			run(b, tuples, avl, func(tu value.Tuple) { avl.Insert(nil, tu, trace.None) })
		})
		b.Run(fmt.Sprintf("paged/rows=%d", rows), func(b *testing.B) {
			run(b, tuples, paged, func(tu value.Tuple) { paged.Insert(nil, tu, trace.None) })
		})
	}
}

func BenchmarkUpsert(b *testing.B) {
	benchTrees(b, func(b *testing.B, tuples []value.Tuple, _ tree, insert func(value.Tuple)) {
		b.ReportAllocs()
		for i, key := 0, 0; i < b.N; i++ {
			key = (key + 617) % len(tuples)
			insert(tuples[key])
		}
	})
}

func BenchmarkFind(b *testing.B) {
	benchTrees(b, func(b *testing.B, tuples []value.Tuple, t tree, _ func(value.Tuple)) {
		for i, key := 0, 0; i < b.N; i++ {
			key = (key + 617) % len(tuples)
			if _, ok, _ := t.Find(nil, tuples[key].Key(), trace.None); !ok {
				b.Fatal("key lost")
			}
		}
	})
}
