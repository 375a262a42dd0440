package relation

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"funcdb/internal/eval"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

func tup(k int64) value.Tuple { return value.NewTuple(value.Int(k), value.Str("v")) }

func allReps() []Rep { return []Rep{RepList, RepAVL, Rep23, RepPaged} }

func TestRepString(t *testing.T) {
	for _, r := range allReps() {
		if s := r.String(); s == "" || s[0] == 'R' {
			t.Errorf("Rep %d string %q", r, s)
		}
	}
	if Rep(99).String() != "Rep(99)" {
		t.Error("unknown rep string")
	}
}

func TestUnknownRepPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown rep did not panic")
		}
	}()
	New(Rep(42))
}

func TestAllRepsBehaveIdentically(t *testing.T) {
	// Every representation must produce the same answers for the same
	// operation sequence: the representation is an implementation detail
	// behind the functional interface.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rels := make([]Relation, 0, len(allReps()))
		for _, rep := range allReps() {
			rels = append(rels, New(rep))
		}
		for i := 0; i < 80; i++ {
			k := int64(r.Intn(30))
			switch r.Intn(3) {
			case 0:
				for j := range rels {
					rels[j], _ = rels[j].Insert(nil, tup(k), trace.None)
				}
			case 1:
				var ref bool
				for j := range rels {
					var found bool
					rels[j], found, _ = rels[j].Delete(nil, value.Int(k), trace.None)
					if j == 0 {
						ref = found
					} else if found != ref {
						return false
					}
				}
			case 2:
				var ref bool
				for j := range rels {
					_, found, _ := rels[j].Find(nil, value.Int(k), trace.None)
					if j == 0 {
						ref = found
					} else if found != ref {
						return false
					}
				}
			}
			n := rels[0].Len()
			for _, rel := range rels[1:] {
				if rel.Len() != n {
					return false
				}
			}
		}
		// Final contents identical and sorted.
		ref := rels[0].Tuples()
		for _, rel := range rels[1:] {
			got := rel.Tuples()
			if len(got) != len(ref) {
				return false
			}
			for i := range got {
				if !got[i].Equal(ref[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFromTuplesAllReps(t *testing.T) {
	tuples := []value.Tuple{tup(3), tup(1), tup(2)}
	for _, rep := range allReps() {
		rel := FromTuples(rep, tuples)
		if rel.Rep() != rep {
			t.Errorf("%v: Rep = %v", rep, rel.Rep())
		}
		if rel.Len() != 3 {
			t.Errorf("%v: Len = %d", rep, rel.Len())
		}
		got := rel.Tuples()
		for i, want := range []int64{1, 2, 3} {
			if got[i].Key().AsInt() != want {
				t.Errorf("%v: Tuples = %v", rep, got)
			}
		}
	}
}

func TestRangeAllReps(t *testing.T) {
	var tuples []value.Tuple
	for i := int64(0); i < 30; i++ {
		tuples = append(tuples, tup(i))
	}
	for _, rep := range allReps() {
		rel := FromTuples(rep, tuples)
		var got []int64
		rel.Range(nil, value.Int(5), value.Int(8), trace.None, func(tu value.Tuple) {
			got = append(got, tu.Key().AsInt())
		})
		want := []int64{5, 6, 7, 8}
		if len(got) != len(want) {
			t.Errorf("%v: Range = %v", rep, got)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%v: Range = %v", rep, got)
			}
		}
	}
}

func TestTreesCostLessPerUpdateThanList(t *testing.T) {
	// Section 2.2's argument quantified: per-insert allocation on a large
	// relation is O(n) for the sorted list but O(log n) for trees.
	const n = 400
	var tuples []value.Tuple
	for i := int64(0); i < n; i++ {
		tuples = append(tuples, tup(i*2))
	}
	cost := func(rep Rep) int64 {
		rel := FromTuples(rep, tuples)
		stats := &eval.Stats{}
		ctx := &eval.Ctx{Stats: stats}
		rel.Insert(ctx, tup(n), trace.None) // middle of the key space
		return stats.Created.Load()
	}
	listCost := cost(RepList)
	for _, rep := range []Rep{RepAVL, Rep23, RepPaged} {
		if c := cost(rep); c*5 >= listCost {
			t.Errorf("%v created %d nodes vs list %d — not logarithmic", rep, c, listCost)
		}
	}
}

func TestPagedUnwrap(t *testing.T) {
	rel := FromTuples(RepPaged, []value.Tuple{tup(1)})
	if _, ok := Paged(rel); !ok {
		t.Error("Paged() failed on paged relation")
	}
	if _, ok := Paged(FromTuples(RepList, nil)); ok {
		t.Error("Paged() succeeded on list relation")
	}
	if rel2 := NewPagedWithCap(4, []value.Tuple{tup(1), tup(2)}); rel2.Len() != 2 {
		t.Error("NewPagedWithCap lost tuples")
	}
}

// TestPagedVersionsReadWhileWritten: versions share pages, and a cluster
// reads a mirror's old versions while its apply loop builds new ones. One
// writer upserts and deletes; readers take each version as it is published
// and must find exactly that version's values in it, however far the writer
// has moved on. Run under -race: a page written after it was shared shows.
func TestPagedVersionsReadWhileWritten(t *testing.T) {
	const rows, writes, readers = 600, 400, 4
	tuples := make([]value.Tuple, rows)
	for i := range tuples {
		tuples[i] = value.NewTuple(value.Int(int64(i)), value.Int(0))
	}
	type version struct {
		rel  Relation
		step int64 // the write that made it: key (step*7)%rows holds step
	}
	published := make([]chan version, readers)
	done := make(chan error, readers)
	for r := range published {
		published[r] = make(chan version, writes) // the writer never waits for a reader
		go func(in <-chan version) {
			var err error
			for v := range in {
				if err != nil {
					continue
				}
				key := (v.step * 7) % rows
				tu, ok, _ := v.rel.Find(nil, value.Int(key), trace.None)
				want := int64(0)
				for s := v.step; s > 0; s-- { // the last step <= v.step that wrote key
					if (s*7)%rows == key {
						want = s
						break
					}
				}
				if !ok || tu.Field(1).AsInt() != want {
					err = fmt.Errorf("version %d: key %d holds %v (found %v), want %d", v.step, key, tu, ok, want)
				}
				n := 0
				v.rel.Range(nil, value.Int(0), value.Int(rows), trace.None, func(value.Tuple) { n++ })
				if n != rows && err == nil {
					err = fmt.Errorf("version %d: range saw %d tuples, want %d", v.step, n, rows)
				}
			}
			done <- err
		}(published[r])
	}
	rel := FromTuples(RepPaged, tuples)
	for step := int64(1); step <= writes; step++ {
		key := (step * 7) % rows
		if step%5 == 0 { // out and back in: pages shrink, merge and split again
			rel, _, _ = rel.Delete(nil, value.Int(key), trace.None)
		}
		rel, _ = rel.Insert(nil, value.NewTuple(value.Int(key), value.Int(step)), trace.None)
		for _, ch := range published {
			ch <- version{rel, step}
		}
	}
	for _, ch := range published {
		close(ch)
	}
	for range published {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

func TestHeadTaskPropagates(t *testing.T) {
	for _, rep := range allReps() {
		g := trace.New()
		ctx := &eval.Ctx{Graph: g}
		rel := New(rep)
		rel2, op := rel.Insert(ctx, tup(1), trace.None)
		if op.Ready == trace.None {
			t.Errorf("%v: no Ready task", rep)
		}
		if rel2.HeadTask() != op.Ready {
			t.Errorf("%v: HeadTask %d != Ready %d", rep, rel2.HeadTask(), op.Ready)
		}
	}
}
