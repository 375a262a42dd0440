package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcdb/internal/database"
	"funcdb/internal/eval"
	"funcdb/internal/relation"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// avlEngine builds an engine over one AVL relation "R" preloaded with
// rows keys 0..rows-1.
func avlEngine(rows int, opts ...EngineOption) *Engine {
	tuples := make([]value.Tuple, rows)
	for i := range tuples {
		tuples[i] = value.NewTuple(value.Int(int64(i)), value.Str("v"))
	}
	db := database.FromData(relation.RepAVL, []string{"R"}, map[string][]value.Tuple{"R": tuples})
	return NewEngine(db, opts...)
}

// stall returns a custom write on rel whose body blocks until release is
// closed and then leaves the database as it found it: everything submitted
// on rel behind it queues on an unresolved cell.
func stall(rel string, release <-chan struct{}) Transaction {
	return Custom(func(_ *eval.Ctx, db *database.Database, _ trace.TaskID) (Response, *database.Database, trace.Op) {
		<-release
		return Response{}, db, trace.Op{}
	}, []string{rel}, []string{rel})
}

// notifierIdle reports whether the engine runs no notifier goroutine and
// holds no commit for one: every published version has been notified (an
// engine without observers notifies none), and the head snapshot links to
// no delivered predecessor and carries no delivered commit. A notifier
// that has just marked its last batch notified exits a moment later, so
// notifierIdle gives it a second to do so.
func notifierIdle(e *Engine) bool {
	for deadline := time.Now().Add(time.Second); e.notifying.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	notified, head := e.notified.Load(), e.snap.Load()
	if len(e.observers) == 0 {
		return head.link == nil
	}
	return notified == head.version && (head.link == nil || reflect.ValueOf(*head.link).IsZero())
}

// TestSubmitInsertAllocGate: an untraced write whose input is resolved pays
// for its path-copied nodes plus a fixed handful — the relation and
// response cells, the successor snapshot — and nothing per goroutine or per
// future, observer included.
func TestSubmitInsertAllocGate(t *testing.T) {
	stats := &eval.Stats{}
	e := avlEngine(2000, WithStats(stats), WithCommitObserver(func(Commit) {}))
	tx := Insert("R", value.NewTuple(value.Int(0), value.Str("w")))
	key := int64(0)
	e.Submit(tx).Force() // warm up
	e.Barrier()
	const runs = 500
	before := stats.Created.Load()
	allocs := testing.AllocsPerRun(runs, func() {
		key = (key + 617) % 2000
		tx.Tuple = value.NewTuple(value.Int(key), value.Str("w"))
		e.Submit(tx).Force()
	})
	e.Barrier()
	// AllocsPerRun makes one warm-up call beyond runs; the tuple built in
	// the closure is the closure's own allocation.
	nodes := float64(stats.Created.Load()-before) / (runs + 1)
	t.Logf("allocs %.2f nodes %.2f", allocs, nodes)
	if allocs > nodes+8+1 {
		t.Errorf("Submit(Insert).Force() = %.1f allocs with %.1f nodes created, want <= nodes+8", allocs-1, nodes)
	}
}

// TestSubmitFindAllocGate: a read of a resolved relation allocates its
// response cell and nothing else.
func TestSubmitFindAllocGate(t *testing.T) {
	e := avlEngine(2000)
	tx := Find("R", value.Int(1234))
	allocs := testing.AllocsPerRun(1000, func() {
		if !e.Submit(tx).Force().Found {
			t.Fatal("key missing")
		}
	})
	if allocs > 1 {
		t.Errorf("resolved Submit(Find) = %.1f allocs, want <= 1", allocs)
	}
}

// TestResolvedReadsRunInline: every built-in read kind of a resolved
// relation comes back already computed, and agrees with Apply.
func TestResolvedReadsRunInline(t *testing.T) {
	e := avlEngine(50)
	db := e.Current()
	for _, tx := range []Transaction{
		Find("R", value.Int(7)),
		Scan("R"),
		Count("R"),
		Range("R", value.Int(10), value.Int(19)),
	} {
		cell := e.Submit(tx)
		got, ok := cell.Poll()
		if !ok {
			t.Errorf("%v of a resolved relation was not answered inline", tx.Kind)
			got = cell.Force()
		}
		want, _, _ := tx.Apply(nil, db, trace.None)
		if !respEqual(got, want) {
			t.Errorf("%v: inline %+v, Apply %+v", tx.Kind, got, want)
		}
	}
}

// TestObserverOrderInlineAndSpawned interleaves the two evaluation paths:
// writers hammer eight relations while one of them is periodically stalled
// behind a blocked custom, so commits evaluated on their submitter and
// commits evaluated by spawned futures reach the notifier mixed together.
// The one notifier must still deliver every version exactly once, dense
// and ascending.
func TestObserverOrderInlineAndSpawned(t *testing.T) {
	const workers, per, nrel = 4, 2000, 8
	names := make([]string, nrel)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	var seqs []int64 // appended by the notifier alone, read after Barrier
	e := NewEngine(database.New(relation.RepAVL, names...),
		WithCommitObserver(func(c Commit) { seqs = append(seqs, c.Seq) }))

	var stalls atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if w == 0 && i%250 == 0 {
					// Stall names[0]: the next writes to it, from any
					// worker, find an unresolved cell and spawn.
					release := make(chan struct{})
					e.Submit(stall(names[0], release))
					stalls.Add(1)
					for k := 0; k < 8; k++ {
						e.Submit(Insert(names[0], value.NewTuple(value.Int(int64(-1-k)))))
					}
					close(release)
				}
				e.Submit(Insert(names[(w+i)%nrel], value.NewTuple(value.Int(int64(w*per+i)))))
			}
		}(w)
	}
	wg.Wait()
	e.Barrier()

	want := workers*per + int(stalls.Load())*9
	if len(seqs) != want {
		t.Fatalf("observed %d commits, want %d", len(seqs), want)
	}
	for i, s := range seqs {
		if s != int64(i+1) {
			t.Fatalf("commit %d has seq %d (out of order, repeated or gapped)", i, s)
		}
	}
	if !notifierIdle(e) {
		t.Error("notifier still running or commits still queued after Barrier on an idle engine")
	}
}

// TestSubmitNeverWaitsOnUnresolvedInput: a write queued behind a blocked
// custom must take the spawned path — Submit returns at once, the response
// resolves only after the custom is released.
func TestSubmitNeverWaitsOnUnresolvedInput(t *testing.T) {
	e := avlEngine(100, WithCommitObserver(func(Commit) {}))
	release := make(chan struct{})
	e.Submit(stall("R", release))

	start := time.Now()
	write := e.Submit(Insert("R", value.NewTuple(value.Int(7), value.Str("late"))))
	read := e.Submit(Find("R", value.Int(7)))
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Submit behind a blocked custom took %v", d)
	}
	if _, ok := write.Poll(); ok {
		t.Fatal("write behind a blocked custom resolved before the custom was released")
	}
	if _, ok := read.Poll(); ok {
		t.Fatal("read behind a blocked custom resolved before the custom was released")
	}
	close(release)
	if resp := write.Force(); resp.Err != nil {
		t.Fatalf("write: %v", resp.Err)
	}
	if resp := read.Force(); !resp.Found || resp.Tuple.Field(1).AsString() != "late" {
		t.Fatalf("read behind the write saw %+v", resp)
	}
	e.Barrier()
}

// TestReadStampedForcesOnlyItsRelation: ReadStamped is a lone read: a
// find in R answers, stamped with the version it read, while a body on S
// is held, and a find in S behind that body resolves once it is released,
// stamped too.
func TestReadStampedForcesOnlyItsRelation(t *testing.T) {
	e := NewEngine(seedDB())
	release := make(chan struct{})
	e.Submit(stall("S", release))
	v := e.Version()

	done := make(chan Response, 1)
	go func() { done <- e.ReadStamped(Find("R", value.Int(1))).Force() }()
	select {
	case r := <-done:
		if !r.Found || r.Tuple.Field(1).AsString() != "a" || r.Version != v {
			t.Errorf("ReadStamped(find in R) = %+v, want (1, \"a\") at version %d", r, v)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("ReadStamped of R blocked behind a held body on S")
	}

	held := e.ReadStamped(Find("S", value.Int(10)))
	if _, ok := held.Poll(); ok {
		t.Fatal("ReadStamped of S resolved before the body it reads was released")
	}
	close(release)
	if r := held.Force(); !r.Found || r.Version != v {
		t.Errorf("ReadStamped(find in S) = %+v, want key 10 at version %d", r, v)
	}
	e.Barrier()
}

// TestBarrierConcurrentWithSubmit: Barrier on one goroutine while others
// submit must not panic (the sync.WaitGroup it used to wait on did, when
// Add raced Wait from zero), and a Barrier issued after a Submit returned
// has run that commit's observer.
func TestBarrierConcurrentWithSubmit(t *testing.T) {
	var mine atomic.Int64 // highest Seq tag of the "main" origin observed
	mine.Store(-1)
	e := NewEngine(database.New(relation.RepAVL, "a", "b", "c", "d"),
		WithCommitObserver(func(c Commit) {
			if c.Tx.Origin == "main" {
				mine.Store(int64(c.Tx.Seq))
			}
		}))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, rel := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(rel string) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e.Submit(Insert(rel, value.NewTuple(value.Int(int64(i)))))
				if i%64 == 0 {
					// A spawned body now and then, so Barrier's count of
					// running bodies moves too.
					release := make(chan struct{})
					e.Submit(stall(rel, release))
					close(release)
				}
			}
		}(rel)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Barrier()
			}
		}
	}()

	deadline := time.Now().Add(200 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		e.Submit(Insert("d", value.NewTuple(value.Int(int64(i)))).withTag("main", i))
		e.Barrier()
		if got := mine.Load(); got != int64(i) {
			t.Fatalf("Barrier after Submit #%d returned with the observer at #%d", i, got)
		}
	}
	close(stop)
	wg.Wait()
}
