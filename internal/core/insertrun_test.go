package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"funcdb/internal/database"
	"funcdb/internal/eval"
	"funcdb/internal/lenient"
	"funcdb/internal/relation"
	"funcdb/internal/reqtrace"
	"funcdb/internal/value"
)

// runDB holds a paged relation P and an AVL relation A, 100 rows each at
// the even keys 0..198.
func runDB() *database.Database {
	rows := make([]value.Tuple, 100)
	for i := range rows {
		rows[i] = tup(int64(2*i), "old")
	}
	db := database.FromData(relation.RepPaged, []string{"P"}, map[string][]value.Tuple{"P": rows})
	db, _, err := db.CreateRelation(nil, "A", relation.RepAVL, 0)
	if err != nil {
		panic(err)
	}
	for _, tu := range rows {
		if db, _, err = db.Insert(nil, "A", tu, 0); err != nil {
			panic(err)
		}
	}
	return db
}

// inserts returns n inserts into rel: new keys and overwrites, out of
// order, some keys twice.
func inserts(rel string, n, salt int) []Transaction {
	txs := make([]Transaction, n)
	for i := range txs {
		k := int64((i*37 + salt) % 230)
		txs[i] = Insert(rel, tup(k, fmt.Sprintf("s%d.%d", salt, i)))
	}
	return txs
}

// TestInsertRunMatchesSequential: SubmitBatch admits a stretch of at least
// a page's worth of inserts into a paged relation as one run — one commit
// covering the stretch's versions, each still suspended — and nothing
// anyone can observe tells: every version a commit answers for, and every
// response, is the one ApplySequential gives for that prefix of the batch.
// A delete splits the stretch; each half is still long enough to be a run.
// Inserts into an AVL relation, and a stretch interrupted by a traced
// insert, take the one-at-a-time path.
func TestInsertRunMatchesSequential(t *testing.T) {
	traced := Insert("P", tup(1, "traced"))
	traced.Trace = reqtrace.New("t", reqtrace.Config{SampleEvery: 1, SlowThreshold: -1}).Start()
	var batch []Transaction
	batch = append(batch, inserts("P", 20, 1)...)
	batch = append(batch, Delete("P", value.Int(38)))
	batch = append(batch, inserts("P", 20, 2)...)
	batch = append(batch, inserts("A", 20, 3)...)
	batch = append(batch, inserts("P", 10, 4)...)
	batch = append(batch, traced)
	batch = append(batch, inserts("P", 10, 5)...)
	for i := range batch {
		batch[i].Origin, batch[i].Seq = "b", i
	}

	initial := runDB()
	var commits []Commit
	e := NewEngine(initial, WithLanes(1), WithCommitObserver(func(c Commit) { commits = append(commits, c) }))
	futs := make([]*lenient.Cell[Response], len(batch))
	e.SubmitBatch(batch, futs)
	e.Barrier()
	// The two paged stretches of 20 are one commit each; everything else
	// commits on its own.
	if want := len(batch) - 2*19; len(commits) != want {
		t.Fatalf("%d commits for %d writes, want %d", len(commits), len(batch), want)
	}
	base := initial.Version()
	next := base + 1
	for n, c := range commits {
		if c.First() != next {
			t.Fatalf("commit %d covers %d..%d, want it to start at %d", n, c.First(), c.Seq, next)
		}
		run := c.Run != nil
		if run != (n == 0 || n == 2) || (run && len(c.Run.Tuples) != 20) {
			t.Fatalf("commit %d (versions %d..%d): run %v", n, c.First(), c.Seq, run)
		}
		for j := range c.steps {
			if _, forced := c.steps[j].cell.Poll(); forced {
				t.Errorf("commit %d: version %d built before anyone asked", n, c.First()+int64(j))
			}
		}
		for v := c.First(); v <= c.Seq; v++ {
			i := int(v - base - 1)
			if _, ready := futs[i].Poll(); !ready {
				t.Errorf("write %d: response not ready at admission", i)
			}
			wantResps, want := ApplySequential(initial, batch[:i+1])
			if got := c.VersionAt(v); !got.Equal(want) || got.Version() != want.Version() {
				t.Fatalf("version %d of commit %d holds %d tuples at version %d, the sequential prefix %d at %d",
					v, n, got.TotalTuples(), got.Version(), want.TotalTuples(), want.Version())
			}
			if got := futs[i].Force(); !respEqual(got, wantResps[i]) {
				t.Fatalf("response %d = %+v, sequential %+v", i, got, wantResps[i])
			}
			if run {
				if tx := c.Run.Txn(int(v - c.First())); tx.Origin != "b" || tx.Seq != i || !tx.Tuple.Equal(batch[i].Tuple) {
					t.Fatalf("run version %d carries %+v, want the batch's write %d", v, tx, i)
				}
			}
		}
		if last := int(c.Seq - base - 1); c.Tx.Origin != "b" || c.Tx.Seq != last || c.Tx.Kind != batch[last].Kind {
			t.Fatalf("commit %d carries %v tagged %s, its last write is %v tagged b#%d", n, c.Tx.Kind, c.Tx.Tag(), batch[last].Kind, last)
		}
		next = c.Seq + 1
	}
	if _, want := ApplySequential(initial, batch); !e.Current().Equal(want) {
		t.Fatal("final database differs from the sequential one")
	}
}

// TestInsertRunForcedByReader: asking a run's commit for a version in the
// middle of the run forces just that version, which holds what the
// sequential prefix holds.
func TestInsertRunForcedByReader(t *testing.T) {
	initial := runDB()
	batch := inserts("P", 40, 7)
	var commits []Commit
	e := NewEngine(initial, WithCommitObserver(func(c Commit) { commits = append(commits, c) }))
	e.SubmitBatch(batch, make([]*lenient.Cell[Response], len(batch)))
	e.Barrier()
	base := initial.Version()
	if len(commits) != 1 || commits[0].First() != base+1 || commits[0].Seq != base+40 {
		t.Fatalf("%d commits, want one covering the batch's 40 versions", len(commits))
	}
	run := commits[0]
	got, _ := run.VersionAt(base + 18).RelationFast("P")
	_, want := ApplySequential(initial, batch[:18])
	wantP, _ := want.RelationFast("P")
	if !slices.EqualFunc(got.Tuples(), wantP.Tuples(), value.Tuple.Equal) {
		t.Fatalf("version 18 of the run holds %d tuples, the sequential prefix %d", got.Len(), wantP.Len())
	}
	if _, ok := run.steps[18].cell.Poll(); ok {
		t.Error("forcing version 18 built version 19 too")
	}
}

// TestInsertRunConcurrentReaders: lock-free readers load versions while
// runs are admitted; every count they read is the database before or after
// a whole run — never inside one — and never goes back. The -race target
// for runs.
func TestInsertRunConcurrentReaders(t *testing.T) {
	const batches, per = 20, 40
	e := NewEngine(database.New(relation.RepPaged, "P"))
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				n := e.Submit(Count("P")).Force().Count
				if n < last || n > batches*per || n%per != 0 {
					t.Errorf("read a count of %d after %d", n, last)
					return
				}
				last = n
			}
		}()
	}
	for b := 0; b < batches; b++ {
		txs := make([]Transaction, per)
		for i := range txs {
			txs[i] = Insert("P", tup(int64(b*per+i), "v"))
		}
		e.SubmitBatch(txs, make([]*lenient.Cell[Response], len(txs)))
	}
	close(done)
	wg.Wait()
	if n := e.Submit(Count("P")).Force().Count; n != batches*per {
		t.Fatalf("%d tuples after %d inserts", n, batches*per)
	}
}

// TestSubmitBatchInsertAllocGate: looking for a run costs a one-insert
// batch nothing — Submit is a batch of one, so it allocates exactly what
// Submit does — and inside a run an insert costs its ready response and nothing
// else: the run's tuples, tags and suspended versions are one slab each, and
// its versions are published in one snapshot, with the pages of the one
// page build shared out among the run.
func TestSubmitBatchInsertAllocGate(t *testing.T) {
	stats := &eval.Stats{}
	rows := make([]value.Tuple, 2000)
	for i := range rows {
		rows[i] = tup(int64(i), "v")
	}
	db := database.FromData(relation.RepPaged, []string{"P"}, map[string][]value.Tuple{"P": rows})
	e := NewEngine(db, WithStats(stats), WithCommitObserver(func(Commit) {}))
	key := int64(0)
	next := func() Transaction {
		key = (key + 617) % 2000
		return Insert("P", tup(key, "w"))
	}
	one := []Transaction{next()}
	out := make([]*lenient.Cell[Response], 1)
	e.SubmitBatch(one, out) // warm up
	out[0].Force()
	e.Barrier()
	const runs = 500
	submit := testing.AllocsPerRun(runs, func() {
		e.Submit(one[0]).Force()
	})
	batch := testing.AllocsPerRun(runs, func() {
		e.SubmitBatch(one, out)
		out[0].Force()
	})
	e.Barrier()
	t.Logf("Submit %.2f, one-insert SubmitBatch %.2f", submit, batch)
	if batch != submit {
		t.Errorf("one-insert SubmitBatch = %.1f allocs, Submit = %.1f: want the same", batch, submit)
	}

	long := make([]Transaction, 500)
	for i := range long {
		long[i] = next()
	}
	before := stats.Created.Load()
	futs := make([]*lenient.Cell[Response], len(long))
	perRun := testing.AllocsPerRun(20, func() {
		e.SubmitBatch(long, futs)
		futs[len(futs)-1].Force()
	})
	e.Barrier()
	pages := float64(stats.Created.Load()-before) / 21
	perInsert := (perRun - pages) / float64(len(long))
	t.Logf("500-insert run: %.0f allocs, %.0f pages, %.2f allocs per insert beyond pages", perRun, pages, perInsert)
	if perInsert > 1.1 {
		t.Errorf("an insert inside a run = %.2f allocs beyond the run's pages, want <= 1 (its response)", perInsert)
	}
}
