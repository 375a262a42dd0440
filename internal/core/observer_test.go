package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcdb/internal/database"
	"funcdb/internal/relation"
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
// lanes, publication order is decided by CAS races, and the sequencer must
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

// TestObserverCoversAllWriteKinds checks create, delete (including a
// miss), and custom writes all notify with correct responses.
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
	e.Submit(Delete("R", value.Int(99))) // miss: still a commit
	e.Barrier()

	if len(commits) != 3 {
		t.Fatalf("observed %d commits", len(commits))
	}
	if commits[0].Tx.Kind != KindCreate || commits[1].Tx.Kind != KindInsert || commits[2].Tx.Kind != KindDelete {
		t.Fatalf("kinds: %v %v %v", commits[0].Tx.Kind, commits[1].Tx.Kind, commits[2].Tx.Kind)
	}
	if commits[2].Resp.Found {
		t.Error("delete miss reported Found")
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
