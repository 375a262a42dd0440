package ptree

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"funcdb/internal/eval"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

func tup(k int64) value.Tuple { return value.NewTuple(value.Int(k), value.Str("v")) }

// tree is the common interface the three structures share, letting the
// model-based tests run over all of them.
type tree interface {
	Len() int
	Find(ctx *eval.Ctx, key value.Item, after trace.TaskID) (value.Tuple, bool, trace.TaskID)
	Tuples() []value.Tuple
}

func keys(ts []value.Tuple) []int64 {
	out := make([]int64, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.Key().AsInt())
	}
	return out
}

func sortedEqual(got []int64, want map[int64]bool) bool {
	wantKeys := make([]int64, 0, len(want))
	for k := range want {
		wantKeys = append(wantKeys, k)
	}
	sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i] < wantKeys[j] })
	if len(got) != len(wantKeys) {
		return false
	}
	for i := range got {
		if got[i] != wantKeys[i] {
			return false
		}
	}
	return true
}

// --- AVL ---

func TestAVLBasics(t *testing.T) {
	var tr AVL
	if tr.Len() != 0 || tr.Height() != 0 || tr.HeadTask() != trace.None {
		t.Error("zero AVL not empty")
	}
	for _, k := range []int64{5, 2, 8, 1, 3, 7, 9, 6, 4} {
		tr, _ = tr.Insert(nil, tup(k), trace.None)
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("after insert %d: %v", k, err)
		}
	}
	if tr.Len() != 9 {
		t.Errorf("Len = %d", tr.Len())
	}
	got := keys(tr.Tuples())
	for i := int64(1); i <= 9; i++ {
		if got[i-1] != i {
			t.Fatalf("Tuples = %v", got)
		}
	}
	for i := int64(1); i <= 9; i++ {
		if _, ok, _ := tr.Find(nil, value.Int(i), trace.None); !ok {
			t.Errorf("Find(%d) failed", i)
		}
	}
	if _, ok, _ := tr.Find(nil, value.Int(99), trace.None); ok {
		t.Error("Find(99) succeeded")
	}
}

func TestAVLHeightLogarithmic(t *testing.T) {
	var tr AVL
	for i := int64(0); i < 1024; i++ {
		tr, _ = tr.Insert(nil, tup(i), trace.None) // worst case: sorted input
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// AVL height <= 1.44 log2(n+2); for n=1024 that is ~15.
	if h := tr.Height(); h > 15 {
		t.Errorf("height %d too large for 1024 sorted inserts", h)
	}
}

func TestAVLUpsertReplaces(t *testing.T) {
	var tr AVL
	tr, _ = tr.Insert(nil, value.NewTuple(value.Int(1), value.Str("a")), trace.None)
	tr, _ = tr.Insert(nil, value.NewTuple(value.Int(1), value.Str("b")), trace.None)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got, _, _ := tr.Find(nil, value.Int(1), trace.None)
	if got.Field(1).AsString() != "b" {
		t.Errorf("tuple = %v", got)
	}
}

func TestAVLDelete(t *testing.T) {
	var tr AVL
	for i := int64(0); i < 64; i++ {
		tr, _ = tr.Insert(nil, tup(i), trace.None)
	}
	for _, k := range []int64{31, 0, 63, 32, 16, 48} {
		var found bool
		tr, found, _ = tr.Delete(nil, value.Int(k), trace.None)
		if !found {
			t.Fatalf("Delete(%d) not found", k)
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("after delete %d: %v", k, err)
		}
		if _, ok, _ := tr.Find(nil, value.Int(k), trace.None); ok {
			t.Errorf("key %d still present", k)
		}
	}
	if tr.Len() != 58 {
		t.Errorf("Len = %d", tr.Len())
	}
	_, found, _ := tr.Delete(nil, value.Int(1000), trace.None)
	if found {
		t.Error("Delete(1000) claimed found")
	}
}

func TestAVLPersistence(t *testing.T) {
	var v0 AVL
	for i := int64(0); i < 20; i++ {
		v0, _ = v0.Insert(nil, tup(i), trace.None)
	}
	v1, _ := v0.Insert(nil, tup(100), trace.None)
	v2, _, _ := v1.Delete(nil, value.Int(0), trace.None)
	if v0.Len() != 20 || v1.Len() != 21 || v2.Len() != 20 {
		t.Fatalf("lens = %d,%d,%d", v0.Len(), v1.Len(), v2.Len())
	}
	if _, ok, _ := v0.Find(nil, value.Int(100), trace.None); ok {
		t.Error("v0 sees v1's insert")
	}
	if _, ok, _ := v2.Find(nil, value.Int(0), trace.None); ok {
		t.Error("v2 still has deleted key")
	}
	if _, ok, _ := v1.Find(nil, value.Int(0), trace.None); !ok {
		t.Error("v1 lost key 0")
	}
}

func TestAVLLogarithmicSharing(t *testing.T) {
	// The paper's claim: "all but a proportion (log n)/n of a relation can
	// be shared during updating."
	var tr AVL
	const n = 512
	for i := int64(0); i < n; i++ {
		tr, _ = tr.Insert(nil, tup(i*2), trace.None)
	}
	stats := &eval.Stats{}
	ctx := &eval.Ctx{Stats: stats}
	next, _ := tr.Insert(ctx, tup(101), trace.None)
	created := stats.Created.Load()
	// Path copying: created nodes <= ~1.5 * height + rotations.
	if maxCreated := int64(2*tr.Height() + 3); created > maxCreated {
		t.Errorf("created %d nodes, want <= %d (log n path)", created, maxCreated)
	}
	if shared := next.SharedNodesWith(tr); shared < n-int(created) {
		t.Errorf("shared %d nodes, want >= %d", shared, n-int(created))
	}
}

func TestAVLTracedOpHandles(t *testing.T) {
	g := trace.New()
	ctx := &eval.Ctx{Graph: g}
	var tr AVL
	tr, op := tr.Insert(ctx, tup(1), trace.None)
	if op.Ready == trace.None || op.Done == trace.None {
		t.Error("traced insert returned empty op handles")
	}
	if op.Ready != tr.HeadTask() {
		t.Error("Ready is not the new root's constructor")
	}
	_, found, dop := tr.Delete(ctx, value.Int(1), trace.None)
	if !found || dop.Done == trace.None {
		t.Error("traced delete lost its op handle")
	}
}

func TestAVLRange(t *testing.T) {
	var tr AVL
	for i := int64(0); i < 50; i++ {
		tr, _ = tr.Insert(nil, tup(i), trace.None)
	}
	var got []int64
	tr.Range(nil, value.Int(10), value.Int(15), trace.None, func(tu value.Tuple) {
		got = append(got, tu.Key().AsInt())
	})
	want := []int64{10, 11, 12, 13, 14, 15}
	if len(got) != len(want) {
		t.Fatalf("Range = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Range = %v", got)
		}
	}
	// Range prunes: visited nodes must be far fewer than n.
	stats := &eval.Stats{}
	tr.Range(&eval.Ctx{Stats: stats}, value.Int(10), value.Int(15), trace.None, func(value.Tuple) {})
	if v := stats.Visited.Load(); v > 20 {
		t.Errorf("Range visited %d nodes of 50", v)
	}
}

// --- 2-3 tree ---

func countNodes(n *t23) int {
	if n == nil {
		return 0
	}
	c := 1
	for _, k := range n.kids {
		c += countNodes(k)
	}
	return c
}

// checkTree23 is checkInvariants plus the node count the tree carries,
// which no update may get from a walk.
func checkTree23(tr Tree23) error {
	if err := tr.checkInvariants(); err != nil {
		return err
	}
	if n := countNodes(tr.root); n != tr.nodes {
		return fmt.Errorf("ptree: tree carries %d nodes, a walk counts %d", tr.nodes, n)
	}
	return nil
}

// TestTree23CarriedNodeCount: over random inserts and deletes, the node
// count a tree carries equals a full recount after every step, and the
// sharing an update reports is what a recount gives: the new tree's nodes
// less the ones the update built (clamped at zero for a delete, whose holes
// and pre-repair copies are built but not kept).
func TestTree23CarriedNodeCount(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := Tree23FromTuples(nil)
		if seed%2 == 0 {
			var initial []value.Tuple
			for i := r.Intn(200); i > 0; i-- {
				initial = append(initial, tup(int64(r.Intn(300))))
			}
			tr = Tree23FromTuples(initial)
		}
		for step := 0; step < 400; step++ {
			stats := &eval.Stats{}
			ctx := &eval.Ctx{Stats: stats}
			k := int64(r.Intn(300))
			var want int64
			if r.Intn(2) == 0 {
				tr, _ = tr.Insert(ctx, tup(k), trace.None)
				want = int64(countNodes(tr.root)) - stats.Created.Load()
			} else {
				var found bool
				tr, found, _ = tr.Delete(ctx, value.Int(k), trace.None)
				if found && tr.root != nil {
					want = max(0, int64(countNodes(tr.root))-stats.Created.Load())
				}
			}
			if err := checkTree23(tr); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if got := stats.Shared.Load(); got != want {
				t.Fatalf("seed %d step %d: update reported %d nodes shared, a recount gives %d", seed, step, got, want)
			}
		}
	}
}

func TestTree23Basics(t *testing.T) {
	var tr Tree23
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Error("zero Tree23 not empty")
	}
	for _, k := range []int64{5, 2, 8, 1, 3, 7, 9, 6, 4, 0} {
		tr, _ = tr.Insert(nil, tup(k), trace.None)
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("after insert %d: %v", k, err)
		}
	}
	if tr.Len() != 10 {
		t.Errorf("Len = %d", tr.Len())
	}
	for i := int64(0); i <= 9; i++ {
		if _, ok, _ := tr.Find(nil, value.Int(i), trace.None); !ok {
			t.Errorf("Find(%d) failed", i)
		}
	}
}

func TestTree23UpsertReplaces(t *testing.T) {
	var tr Tree23
	// Exercise replacement in 2-nodes and 3-nodes at several positions.
	for _, k := range []int64{1, 2, 3, 4, 5} {
		tr, _ = tr.Insert(nil, value.NewTuple(value.Int(k), value.Str("old")), trace.None)
	}
	for _, k := range []int64{1, 2, 3, 4, 5} {
		tr, _ = tr.Insert(nil, value.NewTuple(value.Int(k), value.Str("new")), trace.None)
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("after upsert %d: %v", k, err)
		}
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for _, k := range []int64{1, 2, 3, 4, 5} {
		got, ok, _ := tr.Find(nil, value.Int(k), trace.None)
		if !ok || got.Field(1).AsString() != "new" {
			t.Errorf("Find(%d) = %v, %v", k, got, ok)
		}
	}
}

func TestTree23HeightLogarithmic(t *testing.T) {
	var tr Tree23
	for i := int64(0); i < 1024; i++ {
		tr, _ = tr.Insert(nil, tup(i), trace.None)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// 2-3 tree height <= log2(n+1); for n=1024 that is 10 (and >= log3 n ~ 7).
	if h := tr.Height(); h < 7 || h > 10 {
		t.Errorf("height %d out of [7,10] for 1024 keys", h)
	}
}

func TestTree23DeleteExhaustiveSmall(t *testing.T) {
	// For every size n <= 24 and every deletion target, delete from the
	// tree of 0..n-1 and verify shape + contents. This sweeps all
	// borrow/merge cases deterministically.
	for n := 1; n <= 24; n++ {
		for target := 0; target < n; target++ {
			var tr Tree23
			for i := int64(0); i < int64(n); i++ {
				tr, _ = tr.Insert(nil, tup(i), trace.None)
			}
			nt, found, _ := tr.Delete(nil, value.Int(int64(target)), trace.None)
			if !found {
				t.Fatalf("n=%d delete %d not found", n, target)
			}
			if err := nt.checkInvariants(); err != nil {
				t.Fatalf("n=%d delete %d: %v", n, target, err)
			}
			if nt.Len() != n-1 {
				t.Fatalf("n=%d delete %d: len %d", n, target, nt.Len())
			}
			if _, ok, _ := nt.Find(nil, value.Int(int64(target)), trace.None); ok {
				t.Fatalf("n=%d delete %d: key still present", n, target)
			}
			// Old version untouched.
			if tr.Len() != n {
				t.Fatalf("n=%d delete %d disturbed the old version", n, target)
			}
		}
	}
}

func TestTree23DeleteMissing(t *testing.T) {
	var tr Tree23
	for i := int64(0); i < 10; i++ {
		tr, _ = tr.Insert(nil, tup(i*2), trace.None)
	}
	for _, k := range []int64{-1, 1, 5, 19} {
		nt, found, _ := tr.Delete(nil, value.Int(k), trace.None)
		if found {
			t.Errorf("Delete(%d) claimed found", k)
		}
		if nt.Len() != 10 {
			t.Errorf("Delete(%d) changed size", k)
		}
	}
	var empty Tree23
	if _, found, _ := empty.Delete(nil, value.Int(0), trace.None); found {
		t.Error("delete from empty tree found something")
	}
}

func TestTree23Range(t *testing.T) {
	var tr Tree23
	for i := int64(0); i < 40; i++ {
		tr, _ = tr.Insert(nil, tup(i), trace.None)
	}
	var got []int64
	tr.Range(nil, value.Int(7), value.Int(13), trace.None, func(tu value.Tuple) {
		got = append(got, tu.Key().AsInt())
	})
	want := []int64{7, 8, 9, 10, 11, 12, 13}
	if len(got) != len(want) {
		t.Fatalf("Range = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Range = %v", got)
		}
	}
}

// --- Paged B-tree ---

func TestPagedBasics(t *testing.T) {
	tr := NewPaged(4)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("empty paged tree: len %d height %d", tr.Len(), tr.Height())
	}
	for i := int64(0); i < 64; i++ {
		tr, _ = tr.Insert(nil, tup(i), trace.None)
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("after insert %d: %v", i, err)
		}
	}
	if tr.Len() != 64 {
		t.Errorf("Len = %d", tr.Len())
	}
	for i := int64(0); i < 64; i++ {
		if _, ok, _ := tr.Find(nil, value.Int(i), trace.None); !ok {
			t.Errorf("Find(%d) failed", i)
		}
	}
	if _, ok, _ := tr.Find(nil, value.Int(-1), trace.None); ok {
		t.Error("Find(-1) succeeded")
	}
	got := keys(tr.Tuples())
	for i := int64(0); i < 64; i++ {
		if got[i] != i {
			t.Fatalf("Tuples out of order: %v", got[:10])
		}
	}
}

func TestPagedDefaultCap(t *testing.T) {
	if got := NewPaged(0).PageCap(); got != DefaultPageCap {
		t.Errorf("default cap = %d", got)
	}
	if got := NewPaged(1).PageCap(); got != 2 {
		t.Errorf("minimum cap = %d", got)
	}
}

func TestPagedUpsertReplaces(t *testing.T) {
	tr := NewPaged(4)
	for i := int64(0); i < 20; i++ {
		tr, _ = tr.Insert(nil, value.NewTuple(value.Int(i), value.Str("old")), trace.None)
	}
	tr, _ = tr.Insert(nil, value.NewTuple(value.Int(7), value.Str("new")), trace.None)
	if tr.Len() != 20 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got, _, _ := tr.Find(nil, value.Int(7), trace.None)
	if got.Field(1).AsString() != "new" {
		t.Errorf("tuple = %v", got)
	}
}

func TestPagedFigure22Sharing(t *testing.T) {
	// Figure 2-2: an update copies only the root-to-leaf path; all other
	// pages are shared between old and new directories.
	tr := PagedFromTuples(4, nil)
	for i := int64(0); i < 256; i++ {
		tr, _ = tr.Insert(nil, tup(i*2), trace.None)
	}
	total, height := tr.PageCount(), tr.Height()
	// Replacing a tuple copies exactly the path.
	next, _ := tr.Insert(nil, tup(100), trace.None)
	if shared := next.SharedPagesWith(tr); next.PageCount() != total || total-shared != height {
		t.Errorf("upsert copied %d of %d pages (now %d), want the path's %d", total-shared, total, next.PageCount(), height)
	}
	// A new key can split every page of its path — the ascending load left
	// them all full — and grow a root, never more.
	next, _ = tr.Insert(nil, tup(101), trace.None)
	shared := next.SharedPagesWith(tr)
	if copied := next.PageCount() - shared; copied > 2*height+1 {
		t.Errorf("insert copied %d pages, want <= 2*height+1 = %d", copied, 2*height+1)
	}
	if shared != total-height {
		t.Errorf("insert shares %d of the old version's %d pages, want all but the path's %d", shared, total, height)
	}
	if err := next.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPagedDelete(t *testing.T) {
	tr := NewPaged(4)
	const n = 100
	for i := int64(0); i < n; i++ {
		tr, _ = tr.Insert(nil, tup(i), trace.None)
	}
	r := rand.New(rand.NewSource(2))
	perm := r.Perm(n)
	for idx, k := range perm {
		var found bool
		tr, found, _ = tr.Delete(nil, value.Int(int64(k)), trace.None)
		if !found {
			t.Fatalf("Delete(%d) not found", k)
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("after %d deletes: %v", idx+1, err)
		}
		if _, ok, _ := tr.Find(nil, value.Int(int64(k)), trace.None); ok {
			t.Fatalf("key %d still present", k)
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d after deleting all", tr.Len())
	}
	// Deleting from empty tree.
	if _, found, _ := tr.Delete(nil, value.Int(0), trace.None); found {
		t.Error("delete from empty tree found something")
	}
}

func TestPagedRange(t *testing.T) {
	tr := NewPaged(4)
	for i := int64(0); i < 60; i++ {
		tr, _ = tr.Insert(nil, tup(i), trace.None)
	}
	var got []int64
	tr.Range(nil, value.Int(25), value.Int(31), trace.None, func(tu value.Tuple) {
		got = append(got, tu.Key().AsInt())
	})
	want := []int64{25, 26, 27, 28, 29, 30, 31}
	if len(got) != len(want) {
		t.Fatalf("Range = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Range = %v", got)
		}
	}
	// Pruning: visits far fewer pages than the whole tree.
	stats := &eval.Stats{}
	tr.Range(&eval.Ctx{Stats: stats}, value.Int(25), value.Int(31), trace.None, func(value.Tuple) {})
	if v := stats.Visited.Load(); v > int64(tr.PageCount()/2) {
		t.Errorf("Range visited %d of %d pages", v, tr.PageCount())
	}
}

func TestPagedPersistence(t *testing.T) {
	v0 := PagedFromTuples(4, nil)
	for i := int64(0); i < 50; i++ {
		v0, _ = v0.Insert(nil, tup(i), trace.None)
	}
	v1, _ := v0.Insert(nil, tup(500), trace.None)
	v2, _, _ := v1.Delete(nil, value.Int(10), trace.None)
	if v0.Len() != 50 || v1.Len() != 51 || v2.Len() != 50 {
		t.Fatalf("lens = %d,%d,%d", v0.Len(), v1.Len(), v2.Len())
	}
	if _, ok, _ := v0.Find(nil, value.Int(500), trace.None); ok {
		t.Error("v0 sees v1's insert")
	}
	if _, ok, _ := v1.Find(nil, value.Int(10), trace.None); !ok {
		t.Error("v1 lost key 10")
	}
}

// --- bulk construction ---

// bulkSizes are the sizes the builders are checked at: every size up to
// 300, then each side of the sizes where a balanced binary tree or a 2-3
// tree needs one level more.
func bulkSizes() []int {
	var ns []int
	for n := 0; n <= 300; n++ {
		ns = append(ns, n)
	}
	for p := 512; p <= 1<<13; p *= 2 {
		ns = append(ns, p-1, p)
	}
	for p := 729; p <= 6561; p *= 3 {
		ns = append(ns, p-1, p)
	}
	return ns
}

// TestFromTuplesShapes: a bulk-built AVL tree is a valid AVL tree with
// exact heights and the least height n nodes allow; a bulk-built 2-3 tree
// has every leaf at the least height h whose 3^h − 1 tuples hold n, and
// carries its node count. Both hold the tuples in order.
func TestFromTuplesShapes(t *testing.T) {
	for _, n := range bulkSizes() {
		sorted := make([]value.Tuple, n)
		want := map[int64]bool{}
		for i := range sorted {
			sorted[i] = tup(int64(i))
			want[int64(i)] = true
		}
		avl := AVLFromTuples(sorted)
		if err := avl.checkInvariants(); err != nil {
			t.Fatalf("avl n=%d: %v", n, err)
		}
		if avl.Len() != n || avl.Height() != bits.Len(uint(n)) || !sortedEqual(keys(avl.Tuples()), want) {
			t.Fatalf("avl n=%d: Len %d, height %d (want %d)", n, avl.Len(), avl.Height(), bits.Len(uint(n)))
		}
		h, most := 0, 0
		for most < n {
			h, most = h+1, 3*most+2
		}
		t23 := Tree23FromTuples(sorted)
		if err := checkTree23(t23); err != nil {
			t.Fatalf("2-3 n=%d: %v", n, err)
		}
		if t23.Len() != n || t23.Height() != h || !sortedEqual(keys(t23.Tuples()), want) {
			t.Fatalf("2-3 n=%d: Len %d, height %d (want %d)", n, t23.Len(), t23.Height(), h)
		}
	}
}

// --- model-based property tests over all three trees ---

type treeOps struct {
	name   string
	insert func(tree, value.Tuple) tree
	delete func(tree, value.Item) (tree, bool)
	check  func(tree) error
}

func allTreeOps() []treeOps {
	return []treeOps{
		{
			name: "avl",
			insert: func(t tree, tu value.Tuple) tree {
				nt, _ := t.(AVL).Insert(nil, tu, trace.None)
				return nt
			},
			delete: func(t tree, k value.Item) (tree, bool) {
				nt, found, _ := t.(AVL).Delete(nil, k, trace.None)
				return nt, found
			},
			check: func(t tree) error { return t.(AVL).checkInvariants() },
		},
		{
			name: "2-3",
			insert: func(t tree, tu value.Tuple) tree {
				nt, _ := t.(Tree23).Insert(nil, tu, trace.None)
				return nt
			},
			delete: func(t tree, k value.Item) (tree, bool) {
				nt, found, _ := t.(Tree23).Delete(nil, k, trace.None)
				return nt, found
			},
			check: func(t tree) error { return checkTree23(t.(Tree23)) },
		},
		{
			name: "paged",
			insert: func(t tree, tu value.Tuple) tree {
				nt, _ := t.(Paged).Insert(nil, tu, trace.None)
				return nt
			},
			delete: func(t tree, k value.Item) (tree, bool) {
				nt, found, _ := t.(Paged).Delete(nil, k, trace.None)
				return nt, found
			},
			check: func(t tree) error { return t.(Paged).checkInvariants() },
		},
	}
}

func emptyTreeFor(name string) tree {
	switch name {
	case "avl":
		return AVL{}
	case "2-3":
		return Tree23{}
	case "paged":
		return NewPaged(3)
	}
	panic("unknown tree " + name)
}

func TestPropertyTreesMatchModel(t *testing.T) {
	for _, ops := range allTreeOps() {
		ops := ops
		t.Run(ops.name, func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				tr := emptyTreeFor(ops.name)
				model := map[int64]bool{}
				for i := 0; i < 150; i++ {
					k := int64(r.Intn(40))
					switch r.Intn(3) {
					case 0:
						tr = ops.insert(tr, tup(k))
						model[k] = true
					case 1:
						var found bool
						tr, found = ops.delete(tr, value.Int(k))
						if model[k] != found {
							return false
						}
						delete(model, k)
					case 2:
						_, ok, _ := tr.Find(nil, value.Int(k), trace.None)
						if model[k] != ok {
							return false
						}
					}
					if tr.Len() != len(model) {
						return false
					}
					if err := ops.check(tr); err != nil {
						t.Logf("invariant: %v", err)
						return false
					}
				}
				return sortedEqual(keys(tr.Tuples()), model)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestPropertyTreePersistenceUnderRandomOps(t *testing.T) {
	// Snapshot every version; after all operations, every snapshot must
	// still enumerate exactly what it enumerated when taken.
	for _, ops := range allTreeOps() {
		ops := ops
		t.Run(ops.name, func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				tr := emptyTreeFor(ops.name)
				type snap struct {
					tr   tree
					want []int64
				}
				var snaps []snap
				for i := 0; i < 60; i++ {
					k := int64(r.Intn(25))
					if r.Intn(2) == 0 {
						tr = ops.insert(tr, tup(k))
					} else {
						tr, _ = ops.delete(tr, value.Int(k))
					}
					snaps = append(snaps, snap{tr: tr, want: keys(tr.Tuples())})
				}
				for _, s := range snaps {
					got := keys(s.tr.Tuples())
					if len(got) != len(s.want) {
						return false
					}
					for i := range got {
						if got[i] != s.want[i] {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestAVLInsertAllocGate: an untraced insert allocates the nodes it
// path-copies (plus at most the update's own bookkeeping), not a
// trace-dependency slice per node for a tracer that is not there.
func TestAVLInsertAllocGate(t *testing.T) {
	tuples := make([]value.Tuple, 2000)
	for i := range tuples {
		tuples[i] = tup(int64(i))
	}
	tree := AVLFromTuples(tuples)
	stats := &eval.Stats{}
	counting := &eval.Ctx{Stats: stats}
	key := 0
	for _, ctx := range []*eval.Ctx{nil, counting} {
		const runs = 500
		before := stats.Created.Load()
		allocs := testing.AllocsPerRun(runs, func() {
			key = (key + 617) % len(tuples)
			tree.Insert(ctx, tuples[key], trace.None)
		})
		nodes := float64(stats.Created.Load()-before) / (runs + 1) // + AllocsPerRun's warm-up call
		if ctx == nil {
			nodes = float64(tree.Height()) // an upsert copies at most the search path
		}
		if allocs > nodes+1 {
			t.Errorf("AVL.Insert = %.1f allocs for %.1f nodes created, want <= nodes+1", allocs, nodes)
		}
	}
}
