package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcdb/internal/database"
	"funcdb/internal/eval"
	"funcdb/internal/lenient"
	"funcdb/internal/ptree"
	"funcdb/internal/relation"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// TestObserverSeesCommitsInOrder hammers the engine from concurrent
// submitters and checks that the observer receives exactly the committed
// writes, in engine sequence order, with no gaps.
func TestObserverSeesCommitsInOrder(t *testing.T) {
	var mu sync.Mutex
	var seqs []int64
	e := NewEngine(database.New(relation.RepList, "R", "S", "T"),
		WithCommitObserver(func(c Commit) {
			mu.Lock()
			seqs = append(seqs, c.Seq)
			mu.Unlock()
		}))

	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rels := []string{"R", "S", "T"}
			for i := 0; i < per; i++ {
				e.Submit(Insert(rels[(w+i)%3], value.NewTuple(value.Int(int64(w*1000+i)))))
				if i%5 == 0 {
					e.Submit(Find(rels[i%3], value.Int(int64(i)))) // reads never notify
				}
			}
		}(w)
	}
	wg.Wait()
	e.Barrier()

	if len(seqs) != workers*per {
		t.Fatalf("observed %d commits, want %d", len(seqs), workers*per)
	}
	for i, s := range seqs {
		if s != int64(i+1) {
			t.Fatalf("commit %d has seq %d (out of order or gapped)", i, s)
		}
	}
}

// TestWaitNotifiedAcrossWaiters: concurrent writers each force their own
// response cell while the notifier drains batches behind them. The
// observer sees one dense version order, the flush runs after every batch
// it saw, and a write's cell resolves only once the flush has covered the
// version the write produced.
func TestWaitNotifiedAcrossWaiters(t *testing.T) {
	var mu sync.Mutex
	var seen, flushed int64
	versionOf := map[Tag]int64{}
	var bad []string
	e := NewEngine(database.New(relation.RepList, "R", "S", "T", "U"), WithLanes(4),
		WithCommitObserver(func(c Commit) {
			mu.Lock()
			if c.Seq != seen+1 {
				bad = append(bad, fmt.Sprintf("observed %d after %d", c.Seq, seen))
			}
			seen = c.Seq
			versionOf[Tag{c.Tx.Origin, c.Tx.Seq}] = c.Seq
			mu.Unlock()
		}),
		WithCommitFlush(func() error {
			mu.Lock()
			at := seen
			mu.Unlock()
			time.Sleep(10 * time.Microsecond) // a write takes time: waiters must not overtake it
			mu.Lock()
			flushed = at
			mu.Unlock()
			return nil
		}))

	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rel := []string{"R", "S", "T", "U"}[w%4]
			origin := fmt.Sprint("w", w)
			for i := 0; i < per; i++ {
				tx := Insert(rel, value.NewTuple(value.Int(int64(w*per+i))))
				tx.Origin, tx.Seq = origin, i
				if r := e.Submit(tx).Force(); r.Err != nil {
					t.Error(r.Err)
					return
				}
				mu.Lock()
				if v, ok := versionOf[Tag{origin, i}]; !ok || flushed < v {
					bad = append(bad, fmt.Sprintf("the response of version %d (observed %v) resolved with the flush at %d", v, ok, flushed))
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	e.Barrier()
	if len(bad) > 0 {
		t.Fatal(bad[0])
	}
	if seen != workers*per || flushed != seen {
		t.Fatalf("observed %d versions, flushed through %d, want %d", seen, flushed, workers*per)
	}
}

// TestObserverReserializesLaneCommits is TestObserverSeesCommitsInOrder
// with the merge point sharded: writers commit concurrently on distinct
// lanes, publication order is decided by CAS races, and the notifier must
// still hand observers one dense, gap-free total version order. This is
// the property the archive's group commit and the store's history rely on.
func TestObserverReserializesLaneCommits(t *testing.T) {
	for _, lanes := range []int{2, 4, 8} {
		lanes := lanes
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			var mu sync.Mutex
			var seqs []int64
			names := namesOnDistinctLanes(t, min(4, lanes), lanes)
			e := NewEngine(database.New(relation.RepAVL, names...),
				WithLanes(lanes),
				WithCommitObserver(func(c Commit) {
					mu.Lock()
					seqs = append(seqs, c.Seq)
					mu.Unlock()
				}))

			const per = 50
			var wg sync.WaitGroup
			for w := range names {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						e.Submit(Insert(names[w], value.NewTuple(value.Int(int64(w*1000+i)))))
					}
				}(w)
			}
			wg.Wait()
			e.Barrier()

			if len(seqs) != len(names)*per {
				t.Fatalf("observed %d commits, want %d", len(seqs), len(names)*per)
			}
			for i, s := range seqs {
				if s != int64(i+1) {
					t.Fatalf("commit %d has seq %d (lane commits not re-serialized)", i, s)
				}
			}
		})
	}
}

// TestObserverVersionIsExact checks that Commit.Version materializes the
// version the commit produced, even when later transactions were already
// merged behind it before the observer ran.
func TestObserverVersionIsExact(t *testing.T) {
	type seen struct {
		seq    int64
		tuples int
	}
	var mu sync.Mutex
	var got []seen
	e := NewEngine(database.New(relation.RepList, "R"),
		WithCommitObserver(func(c Commit) {
			db := c.Version()
			mu.Lock()
			got = append(got, seen{c.Seq, db.TotalTuples()})
			mu.Unlock()
		}))
	const n = 40
	for i := 0; i < n; i++ {
		e.Submit(Insert("R", value.NewTuple(value.Int(int64(i)))))
	}
	e.Barrier()
	if len(got) != n {
		t.Fatalf("observed %d commits", len(got))
	}
	for i, s := range got {
		if s.seq != int64(i+1) || s.tuples != i+1 {
			t.Fatalf("commit %d: seq %d with %d tuples (version not pinned)", i, s.seq, s.tuples)
		}
	}
}

// TestObserverCoversAllWriteKinds checks create, insert and delete
// (including a miss) all notify, each with its transaction and the version
// it produced.
func TestObserverCoversAllWriteKinds(t *testing.T) {
	var commits []Commit
	var mu sync.Mutex
	e := NewEngine(database.New(relation.RepList, "R"),
		WithCommitObserver(func(c Commit) {
			mu.Lock()
			commits = append(commits, c)
			mu.Unlock()
		}))
	e.Submit(Create("S", relation.RepAVL))
	e.Submit(Insert("R", value.NewTuple(value.Int(1))))
	miss := e.Submit(Delete("R", value.Int(99))) // miss: still a commit
	e.Barrier()

	if len(commits) != 3 {
		t.Fatalf("observed %d commits", len(commits))
	}
	if commits[0].Tx.Kind != KindCreate || commits[1].Tx.Kind != KindInsert || commits[2].Tx.Kind != KindDelete {
		t.Fatalf("kinds: %v %v %v", commits[0].Tx.Kind, commits[1].Tx.Kind, commits[2].Tx.Kind)
	}
	if miss.Force().Found || commits[2].Tx.Key != value.Int(99) {
		t.Errorf("delete miss: Found %v, commit of key %v", miss.Force().Found, commits[2].Tx.Key)
	}
	if v := commits[2].Version(); v.Version() != 3 || v.TotalTuples() != 1 {
		t.Errorf("post-miss version %d with %d tuples", v.Version(), v.TotalTuples())
	}
}

// TestObserverDoesNotBlockPipeline submits from an observer-free path
// while a deliberately slow observer lags: Submit must keep returning
// without waiting for notifications, and Barrier must drain them.
func TestObserverDoesNotBlockPipeline(t *testing.T) {
	release := make(chan struct{})
	var notified atomic.Int64
	e := NewEngine(database.New(relation.RepList, "R"),
		WithCommitObserver(func(c Commit) {
			if c.Seq == 1 {
				<-release // first notification stalls the observer chain
			}
			notified.Add(1)
		}))

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			// Force the response: the transaction itself completes even
			// though its notification is stuck behind the stalled chain.
			e.Submit(Insert("R", value.NewTuple(value.Int(int64(i))))).Force()
		}
	}()
	<-done
	if n := notified.Load(); n != 0 {
		t.Fatalf("%d notifications ran while the chain was stalled", n)
	}
	close(release)
	e.Barrier()
	if n := notified.Load(); n != 10 {
		t.Fatalf("notified %d commits after barrier", n)
	}
}

// TestNoObserverNoOverhead: without observers the engine must not queue
// commits or start a notifier.
func TestNoObserverNoOverhead(t *testing.T) {
	e := NewEngine(database.New(relation.RepList, "R"))
	e.Submit(Insert("R", value.NewTuple(value.Int(1))))
	e.Barrier()
	if !notifierIdle(e) {
		t.Error("notification state grew without observers")
	}
}

// pairInsert is a custom write of tuple k into two relations.
func pairInsert(a, b string, k int64) Transaction {
	return Custom(func(ctx *eval.Ctx, db *database.Database, after trace.TaskID) (Response, *database.Database, trace.Op) {
		next, _, err := db.Insert(ctx, a, tup(k, "pair"), after)
		if err == nil {
			next, _, err = next.Insert(ctx, b, tup(k, "pair"), after)
		}
		if err != nil {
			return Response{Err: err}, db, trace.Op{}
		}
		return Response{}, next, trace.Op{}
	}, []string{a, b}, []string{a, b})
}

// TestObserverChainUnderLaneRaces: on eight lanes, writers race creates,
// deletes, single inserts, insert runs and customs writing two relations on
// distinct lanes. The observers see every version once, dense and
// ascending; each commit covers exactly the versions of the write — or the
// run — it carries, under the tags it was submitted with; and every version
// a commit answers for, VersionAt inside a run included, holds what the
// sequential replay of the commit order holds.
func TestObserverChainUnderLaneRaces(t *testing.T) {
	const lanes, workers, rounds = 8, 8, 6
	names := namesOnDistinctLanes(t, workers, lanes)
	initial := database.New(relation.RepPaged, names...)
	var commits []Commit // appended by the notifier alone, read after Barrier
	e := NewEngine(initial, WithLanes(lanes), WithCommitObserver(func(c Commit) { commits = append(commits, c) }))

	origins := make([]string, workers)
	submitted := make([]map[int]Transaction, workers) // per worker: tag seq → write
	var wg sync.WaitGroup
	for w := range workers {
		origins[w], submitted[w] = fmt.Sprint("w", w), map[int]Transaction{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine, next := names[w], names[(w+1)%workers]
			tag := func(tx Transaction) Transaction {
				tx.Origin, tx.Seq = origins[w], len(submitted[w])
				submitted[w][tx.Seq] = tx
				return tx
			}
			for r := range rounds {
				key := int64(w*1000 + r*100)
				run := make([]Transaction, ptree.DefaultPageCap+r)
				for i := range run {
					run[i] = tag(Insert(mine, tup(key+int64(i), "run")))
				}
				e.SubmitBatch(run, make([]*lenient.Cell[Response], len(run)))
				e.Submit(tag(Insert(mine, tup(key+99, "one"))))
				e.Submit(tag(Delete(mine, value.Int(key+int64(r))))) // a hit
				e.Submit(tag(Delete(mine, value.Int(-key-1))))       // a miss
				e.Submit(tag(Create(fmt.Sprintf("%s.%d", origins[w], r), relation.RepPaged)))
				e.Submit(tag(pairInsert(mine, next, key+50)))
			}
		}()
	}
	wg.Wait()
	e.Barrier()

	byOrigin := map[string]map[int]Transaction{}
	for w, o := range origins {
		byOrigin[o] = submitted[w]
	}
	next, runs := initial.Version()+1, 0
	var order []Transaction // the commits' writes in version order
	for n, c := range commits {
		if c.First() != next {
			t.Fatalf("commit %d covers versions %d..%d after version %d", n, c.First(), c.Seq, next-1)
		}
		next = c.Seq + 1
		txs := []Transaction{c.Tx}
		if c.Run != nil {
			runs++
			txs = txs[:0]
			for i := range c.Run.Tuples {
				txs = append(txs, c.Run.Txn(i))
			}
			if last := txs[len(txs)-1]; last.Tag() != c.Tx.Tag() {
				t.Fatalf("run commit %d carries %s, its last insert is %s", n, c.Tx.Tag(), last.Tag())
			}
		}
		for _, tx := range txs {
			want, ok := byOrigin[tx.Origin][tx.Seq]
			if !ok {
				t.Fatalf("commit %d carries %s, not submitted or delivered twice", n, tx.Tag())
			}
			delete(byOrigin[tx.Origin], tx.Seq)
			if tx.Kind != want.Kind || tx.Rel != want.Rel || !tx.Tuple.Equal(want.Tuple) || tx.Key != want.Key {
				t.Fatalf("commit %d carries %v %s %v under %s, submitted as %v %s %v", n, tx.Kind, tx.Rel, tx.Tuple, tx.Tag(), want.Kind, want.Rel, want.Tuple)
			}
			order = append(order, want) // the submitted custom carries its body
		}
	}
	if next-1 != e.Version() {
		t.Fatalf("observed versions through %d, the engine published %d", next-1, e.Version())
	}
	for o, left := range byOrigin {
		if len(left) > 0 {
			t.Fatalf("%d writes of %s never observed", len(left), o)
		}
	}
	if runs == 0 {
		t.Fatal("no insert run was admitted")
	}

	db, i := initial, 0
	for n, c := range commits {
		for v := c.First(); v <= c.Seq; v++ {
			_, db = ApplySequential(db, order[i:i+1])
			i++
			if got := c.VersionAt(v); !got.Equal(db) || got.Version() != v {
				t.Fatalf("version %d of commit %d holds %d tuples at version %d, the sequential replay %d",
					v, n, got.TotalTuples(), got.Version(), db.TotalTuples())
			}
		}
	}
}
