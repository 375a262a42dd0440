package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"funcdb/internal/database"
	"funcdb/internal/eval"
	"funcdb/internal/lenient"
	"funcdb/internal/relation"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// respEqual compares the observable parts of two responses (everything a
// client can see, including error text).
func respEqual(a, b Response) bool {
	if a.Origin != b.Origin || a.Seq != b.Seq || a.Kind != b.Kind ||
		a.Found != b.Found || a.Count != b.Count || !a.Tuple.Equal(b.Tuple) {
		return false
	}
	if (a.Err == nil) != (b.Err == nil) {
		return false
	}
	if a.Err != nil && a.Err.Error() != b.Err.Error() {
		return false
	}
	if len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		if !a.Tuples[i].Equal(b.Tuples[i]) {
			return false
		}
	}
	return true
}

// transferBody is a deterministic custom transaction: move the tuple at
// key k from one relation to another.
func transferBody(from, to string, k int64) Transaction {
	body := func(ctx *eval.Ctx, db *database.Database, after trace.TaskID) (Response, *database.Database, trace.Op) {
		tu, found, _, err := db.Find(ctx, from, value.Int(k), after)
		if err != nil || !found {
			return Response{Found: false}, db, trace.Op{}
		}
		next, _, _, err := db.Delete(ctx, from, value.Int(k), after)
		if err != nil {
			return Response{Err: err}, db, trace.Op{}
		}
		next, _, err = next.Insert(ctx, to, tu, after)
		if err != nil {
			return Response{Err: err}, db, trace.Op{}
		}
		return Response{Found: true, Tuple: tu}, next, trace.Op{}
	}
	return Custom(body, []string{from, to}, []string{from, to})
}

// randomWorkload builds a mixed stream over a growing directory: built-in
// reads and writes, creates, and custom read/write bodies.
func randomWorkload(r *rand.Rand, n int) []Transaction {
	names := []string{"R", "S", "T"}
	txns := make([]Transaction, 0, n)
	created := 0
	for i := 0; i < n; i++ {
		rel := names[r.Intn(len(names))]
		k := int64(r.Intn(12))
		var tx Transaction
		switch r.Intn(10) {
		case 0:
			tx = Insert(rel, tup(k, "v"))
		case 1:
			tx = Delete(rel, value.Int(k))
		case 2:
			tx = Find(rel, value.Int(k))
		case 3:
			tx = Count(rel)
		case 4:
			tx = Scan(rel)
		case 5:
			tx = Range(rel, value.Int(2), value.Int(9))
		case 6:
			// Sometimes a duplicate create (an error response), sometimes
			// a genuinely new relation that later transactions then use.
			if r.Intn(2) == 0 && created < 3 {
				name := fmt.Sprintf("N%d", created)
				created++
				tx = Create(name, relation.RepList)
				names = append(names, name)
			} else {
				tx = Create(names[r.Intn(len(names))], relation.RepList)
			}
		case 7:
			other := names[r.Intn(len(names))]
			tx = transferBody(rel, other, k)
		case 8:
			// Custom read-only over declared sets.
			rel := rel
			tx = Custom(func(ctx *eval.Ctx, db *database.Database, after trace.TaskID) (Response, *database.Database, trace.Op) {
				n, _, err := db.Count(ctx, rel, after)
				return Response{Count: n, Err: err}, db, trace.Op{}
			}, []string{rel}, nil)
		default:
			tx = Find("NOPE", value.Int(k)) // unknown relation: error response
		}
		tx.Origin, tx.Seq = "w", i
		txns = append(txns, tx)
	}
	return txns
}

// TestPropertyBatchEquivalentToSubmit is the admission-equivalence
// property: SubmitBatch (one merge arbitration), one-at-a-time Submit
// (with the lock-free read fast path), and Submit with serialized reads
// must produce identical responses and identical final databases on random
// mixed workloads. Run in CI under -race.
func TestPropertyBatchEquivalentToSubmit(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		txns := randomWorkload(r, 40+r.Intn(40))
		init := database.New(relation.RepList, "R", "S", "T")

		run := func(submit func(e *Engine) []Response, opts ...EngineOption) ([]Response, *database.Database) {
			e := NewEngine(init, opts...)
			resps := submit(e)
			e.Barrier()
			return resps, e.Current()
		}
		force := forceAll

		batchResp, batchFinal := run(func(e *Engine) []Response {
			futs := make([]*lenient.Cell[Response], len(txns))
			e.SubmitBatch(txns, futs)
			return force(futs)
		})
		oneResp, oneFinal := run(func(e *Engine) []Response {
			futs := make([]*lenient.Cell[Response], len(txns))
			for i, tx := range txns {
				futs[i] = e.Submit(tx)
			}
			return force(futs)
		})
		serResp, serFinal := run(func(e *Engine) []Response {
			futs := make([]*lenient.Cell[Response], len(txns))
			for i, tx := range txns {
				futs[i] = e.Submit(tx)
			}
			return force(futs)
		}, WithSerializedReads())
		lanedResp, lanedFinal := run(func(e *Engine) []Response {
			futs := make([]*lenient.Cell[Response], len(txns))
			e.SubmitBatch(txns, futs)
			return force(futs)
		}, WithLanes(4))

		if !batchFinal.Equal(oneFinal) || !batchFinal.Equal(serFinal) || !batchFinal.Equal(lanedFinal) {
			return false
		}
		for i := range batchResp {
			if !respEqual(batchResp[i], oneResp[i]) || !respEqual(batchResp[i], serResp[i]) ||
				!respEqual(batchResp[i], lanedResp[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// forceAll forces a slice of response futures in order.
func forceAll(futs []*lenient.Cell[Response]) []Response {
	out := make([]Response, len(futs))
	for i, f := range futs {
		out[i] = f.Force()
	}
	return out
}

// readSweep issues a Find for every key a workload can touch, in every
// relation the final database holds: the per-key read responses the
// equivalence harness compares across lane counts.
func readSweep(e *Engine, db *database.Database, maxKey int64) []Response {
	var out []Response
	for _, rel := range db.RelationNames() {
		for k := int64(0); k <= maxKey; k++ {
			out = append(out, e.Submit(Find(rel, value.Int(k))).Force())
		}
	}
	return out
}

// TestLaneEquivalenceDeterministic is the admission-equivalence harness
// for sharded lanes: the same seeded mixed workload, submitted in program
// order, must produce identical responses, identical per-key read
// responses, and an identical final database under 1, 2, 4, and 8 lanes,
// and under serialized reads. Lane count may change which lock a commit
// takes, never what it commits. Runs under -race in CI.
func TestLaneEquivalenceDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			txns := randomWorkload(r, 80+r.Intn(60))
			init := database.New(relation.RepList, "R", "S", "T")

			type result struct {
				name  string
				resps []Response
				sweep []Response
				final *database.Database
			}
			variants := []struct {
				name string
				opts []EngineOption
			}{
				{"lanes=1", []EngineOption{WithLanes(1)}},
				{"lanes=2", []EngineOption{WithLanes(2)}},
				{"lanes=4", []EngineOption{WithLanes(4)}},
				{"lanes=8", []EngineOption{WithLanes(8)}},
				{"lanes=4/serialized-reads", []EngineOption{WithLanes(4), WithSerializedReads()}},
			}
			var results []result
			for _, v := range variants {
				e := NewEngine(init, v.opts...)
				futs := make([]*lenient.Cell[Response], len(txns))
				for i, tx := range txns {
					futs[i] = e.Submit(tx)
				}
				resps := forceAll(futs)
				e.Barrier()
				final := e.Current()
				sweep := readSweep(e, final, 12)
				results = append(results, result{name: v.name, resps: resps, sweep: sweep, final: final})
			}

			base := results[0]
			for _, got := range results[1:] {
				if !got.final.Equal(base.final) {
					t.Errorf("%s: final database differs from %s", got.name, base.name)
				}
				if got.final.Version() != base.final.Version() {
					t.Errorf("%s: final version %d, %s has %d",
						got.name, got.final.Version(), base.name, base.final.Version())
				}
				for i := range base.resps {
					if !respEqual(base.resps[i], got.resps[i]) {
						t.Errorf("%s: response %d (%s) differs from %s",
							got.name, i, txns[i].Kind, base.name)
						break
					}
				}
				if len(got.sweep) != len(base.sweep) {
					t.Fatalf("%s: read sweep has %d responses, %s has %d",
						got.name, len(got.sweep), base.name, len(base.sweep))
				}
				for i := range base.sweep {
					if !respEqual(base.sweep[i], got.sweep[i]) {
						t.Errorf("%s: per-key read %d differs from %s", got.name, i, base.name)
						break
					}
				}
			}
		})
	}
}

// namesOnDistinctLanes generates n relation names that hash to n distinct
// lanes, so a test can construct a workload that is disjoint by
// construction. Requires n <= lanes.
func namesOnDistinctLanes(t testing.TB, n, lanes int) []string {
	t.Helper()
	if n > lanes {
		t.Fatalf("cannot place %d names on %d distinct lanes", n, lanes)
	}
	used := make(map[int]bool, n)
	var out []string
	for i := 0; len(out) < n; i++ {
		name := fmt.Sprintf("D%d", i)
		if l := LaneOf(name, lanes); !used[l] {
			used[l] = true
			out = append(out, name)
		}
		if i > 10000 {
			t.Fatal("lane hash never covered enough lanes")
		}
	}
	return out
}

// TestLaneDisjointConcurrentWriters: writers on relations that hash to
// distinct lanes commit concurrently, and the result is identical to what
// one lane produces — disjoint transactions commute, so any publication
// interleaving yields the same final contents, a dense version sequence,
// and a consistent directory epoch. Runs under -race in CI.
func TestLaneDisjointConcurrentWriters(t *testing.T) {
	const writers, ops = 4, 100
	for _, lanes := range []int{1, 4, 8} {
		lanes := lanes
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			names := namesOnDistinctLanes(t, min(writers, lanes), max(lanes, 1))
			for len(names) < writers {
				names = append(names, names[len(names)%max(lanes, 1)])
			}
			e := NewEngine(database.New(relation.RepAVL, names...), WithLanes(lanes))
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						e.Submit(Insert(names[w], tup(int64(w*ops+i), "v")))
					}
				}(w)
			}
			wg.Wait()
			e.Barrier()
			final := e.Current()
			if got := final.TotalTuples(); got != writers*ops {
				t.Fatalf("final tuples = %d, want %d", got, writers*ops)
			}
			if got := final.Version(); got != int64(writers*ops) {
				t.Fatalf("final version = %d, want %d (publication must stay dense)", got, writers*ops)
			}
		})
	}
}

// TestLaneCrossingTransfers: cross-lane custom transactions take their
// lane locks in sorted order, so concurrent transfers in both directions
// between two lanes cannot deadlock and conserve tuples. Runs under -race
// in CI.
func TestLaneCrossingTransfers(t *testing.T) {
	const lanes = 4
	names := namesOnDistinctLanes(t, 2, lanes)
	a, b := names[0], names[1]
	init := database.FromData(relation.RepAVL, names, map[string][]value.Tuple{
		a: {tup(1, "x"), tup(2, "x"), tup(3, "x")},
		b: {tup(4, "x"), tup(5, "x"), tup(6, "x")},
	})
	e := NewEngine(init, WithLanes(lanes))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := int64(1 + (g*50+i)%6)
				if g%2 == 0 {
					e.Submit(transferBody(a, b, k))
				} else {
					e.Submit(transferBody(b, a, k))
				}
			}
		}(g)
	}
	wg.Wait()
	e.Barrier()
	if got := e.Current().TotalTuples(); got != 6 {
		t.Fatalf("transfers lost or duplicated tuples: %d, want 6", got)
	}
}

// TestLaneSnapshotConsistency: lock-free readers loading the published
// snapshot must always see a consistent directory — the epoch stamp and
// the version advance monotonically even while creates in several lanes
// grow the directory concurrently. Runs under -race in CI.
func TestLaneSnapshotConsistency(t *testing.T) {
	e := NewEngine(database.New(relation.RepList, "R"), WithLanes(8))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.Submit(Create(fmt.Sprintf("C%d", i), relation.RepList))
			e.Submit(Insert("R", tup(int64(i), "v")))
		}
	}()
	lastVersion, lastEpoch := int64(-1), int64(-1)
	for i := 0; i < 2000; i++ {
		s := e.snap.Load()
		if len(s.cells) != s.dir.Len() {
			t.Fatalf("torn snapshot: %d cells for %d directory entries", len(s.cells), s.dir.Len())
		}
		if s.version < lastVersion {
			t.Fatalf("published version went backwards: %d after %d", s.version, lastVersion)
		}
		if ep := s.dir.Epoch(); ep < lastEpoch {
			t.Fatalf("directory epoch went backwards: %d after %d", ep, lastEpoch)
		} else {
			lastEpoch = ep
		}
		lastVersion = s.version
	}
	close(stop)
	wg.Wait()
	e.Barrier()
}

// TestReadFastPathSeesOwnWrites: a client that submits a write and then a
// read (in program order) must observe the write — the write's snapshot is
// published before its Submit returns.
func TestReadFastPathSeesOwnWrites(t *testing.T) {
	e := NewEngine(seedDB())
	e.Submit(Insert("R", tup(42, "new")))
	resp := e.Submit(Find("R", value.Int(42))).Force()
	if !resp.Found {
		t.Fatal("fast-path read missed the client's own preceding write")
	}
	e.Submit(Delete("R", value.Int(42)))
	resp = e.Submit(Find("R", value.Int(42))).Force()
	if resp.Found {
		t.Fatal("fast-path read observed a deleted tuple")
	}
}

// TestReadFastPathErrors: unknown relations and invalid transactions keep
// producing error responses on the lock-free path.
func TestReadFastPathErrors(t *testing.T) {
	e := NewEngine(seedDB())
	if resp := e.Submit(Find("NOPE", value.Int(1))).Force(); !errors.Is(resp.Err, database.ErrNoRelation) {
		t.Errorf("unknown relation err = %v", resp.Err)
	}
	if resp := e.Submit(Transaction{Kind: KindFind, Rel: "R"}).Force(); resp.Err == nil {
		t.Error("invalid read-only transaction produced no error")
	}
}

// TestConcurrentReadersAndWriters hammers the fast path under -race:
// writers advance the snapshot while readers load it lock-free, asserting
// only invariants that hold under any interleaving (monotonic counts, no
// torn versions).
func TestConcurrentReadersAndWriters(t *testing.T) {
	e := NewEngine(database.New(relation.RepAVL, "R", "S"))
	const writers, readers, ops = 4, 4, 200

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				e.Submit(Insert("R", tup(int64(w*ops+i), "v")))
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for i := 0; i < ops; i++ {
				resp := e.Submit(Count("R")).Force()
				if resp.Err != nil {
					t.Errorf("read error: %v", resp.Err)
					return
				}
				if resp.Count < last {
					t.Errorf("non-monotonic count: %d after %d", resp.Count, last)
					return
				}
				last = resp.Count
			}
		}()
	}
	wg.Wait()
	e.Barrier()
	if got := e.Current().TotalTuples(); got != writers*ops {
		t.Fatalf("final tuples = %d, want %d", got, writers*ops)
	}
}

// TestBatchReadTakesNoLane: a read that starts a batch is the lone read's
// lock-free read — planned against the published snapshot, it locks
// nothing — so it answers while its relation's lane is held.
func TestBatchReadTakesNoLane(t *testing.T) {
	e := NewEngine(seedDB())
	lane := &e.lanes[LaneOf("R", e.Lanes())]
	lane.Lock()
	defer lane.Unlock()
	out := make([]*lenient.Cell[Response], 2)
	done := make(chan struct{})
	go func() {
		e.SubmitBatch([]Transaction{Find("R", value.Int(2)), Count("R")}, out)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a batch of reads of R blocked on R's lane")
	}
	if r := out[0].Force(); !r.Found || r.Tuple.Field(1).AsString() != "b" {
		t.Errorf("find in a batch = %+v, want (2, \"b\")", r)
	}
	if r := out[1].Force(); r.Count != 2 {
		t.Errorf("count in a batch = %+v, want 2", r)
	}
}

// TestSubmitBatchCreateThenUse: a batch may create a relation and use it
// later in the same batch — directory membership is strict at merge time.
func TestSubmitBatchCreateThenUse(t *testing.T) {
	e := NewEngine(database.New(relation.RepList))
	futs := make([]*lenient.Cell[Response], 4)
	e.SubmitBatch([]Transaction{
		Create("X", relation.RepAVL),
		Insert("X", tup(1, "a")),
		Find("X", value.Int(1)),
		Count("X"),
	}, futs)
	if resp := futs[2].Force(); !resp.Found {
		t.Error("find in batch-created relation missed")
	}
	if resp := futs[3].Force(); resp.Count != 1 {
		t.Errorf("count = %d, want 1", resp.Count)
	}
}

// TestPlanAccessSets exercises the planning stage on its own.
func TestPlanAccessSets(t *testing.T) {
	e := NewEngine(seedDB())

	p := e.Plan(Find("R", value.Int(1)))
	if p.Err() != nil || !p.ReadOnly() {
		t.Fatalf("find plan: err=%v readonly=%v", p.Err(), p.ReadOnly())
	}
	if got := p.Touched(); len(got) != 1 || got[0] != "R" {
		t.Errorf("find touched = %v", got)
	}

	p = e.Plan(Insert("S", tup(1)))
	if p.ReadOnly() {
		t.Error("insert plan claims read-only")
	}

	p = e.Plan(transferBody("R", "S", 1))
	if got := p.Touched(); len(got) != 2 || got[0] != "R" || got[1] != "S" {
		t.Errorf("custom touched = %v", got)
	}

	// Empty declaration: the full barrier touches the whole (sorted)
	// directory.
	p = e.Plan(Transaction{Kind: KindCustom, Custom: func(*eval.Ctx, *database.Database, trace.TaskID) (Response, *database.Database, trace.Op) {
		return Response{}, nil, trace.Op{}
	}, Writes: []string{"R"}, Reads: nil})
	if p.Err() == nil {
		// Writes={R}, Reads=nil: union is {R}, not a full barrier.
		if got := p.Touched(); len(got) != 1 {
			t.Errorf("declared-set touched = %v", got)
		}
	}

	p = e.Plan(Find("NOPE", value.Int(1)))
	if !errors.Is(p.Err(), database.ErrNoRelation) {
		t.Errorf("plan err = %v", p.Err())
	}
	if p.Version() != e.Current().Version() {
		t.Errorf("plan version = %d, engine at %d", p.Version(), e.Current().Version())
	}
}
