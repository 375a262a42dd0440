package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"funcdb/internal/lenient"
	"funcdb/internal/ptree"
	"funcdb/internal/value"
)

// heldFlush is a commit flush a test can hold open, and make fail.
type heldFlush struct {
	hold    atomic.Bool
	entered chan struct{}
	release chan struct{}
	err     atomic.Pointer[error]
}

func newHeldFlush() *heldFlush {
	return &heldFlush{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (h *heldFlush) flush() error {
	if h.hold.Swap(false) {
		h.entered <- struct{}{}
		<-h.release
	}
	if err := h.err.Load(); err != nil {
		return *err
	}
	return nil
}

// forceAfterRelease forces every cell concurrently, checks that none
// resolves while the held flush is held, then releases it and returns the
// responses.
func (h *heldFlush) forceAfterRelease(t *testing.T, cells ...*lenient.Cell[Response]) []Response {
	t.Helper()
	done := make(chan int, len(cells))
	out := make([]Response, len(cells))
	for i, c := range cells {
		go func() { out[i] = c.Force(); done <- i }()
	}
	select {
	case i := <-done:
		t.Fatalf("response %d resolved while the flush of its version was held", i)
	case <-time.After(20 * time.Millisecond):
	}
	close(h.release)
	for range cells {
		<-done
	}
	return out
}

// TestResponseCellsWaitForTheFlush: on an engine with a commit flush, a
// write's cell resolves only once the flush covering the version it
// produced has returned, a read's only once the flush covering the version
// it read has, and so does each insert of a run. Forcing is the whole
// wait: no Barrier is called.
func TestResponseCellsWaitForTheFlush(t *testing.T) {
	h := newHeldFlush()
	e := NewEngine(runDB(), WithCommitObserver(func(Commit) {}), WithCommitFlush(h.flush))
	if r := e.Submit(Insert("A", tup(1, "a"))).Force(); r.Err != nil {
		t.Fatal(r.Err)
	}
	durable := e.Submit(Find("A", value.Int(1))) // reads a flushed version

	h.hold.Store(true)
	cells := []*lenient.Cell[Response]{e.Submit(Insert("A", tup(3, "b")))}
	<-h.entered
	cells = append(cells, e.Submit(Find("A", value.Int(3))))
	run := inserts("P", ptree.DefaultPageCap, 1)
	runCells := make([]*lenient.Cell[Response], len(run))
	e.SubmitBatch(run, runCells)
	cells = append(cells, runCells...)
	if r, ok := durable.Poll(); ok || r.Err != nil {
		// A gated cell is lazy: it has not been forced yet.
		t.Fatalf("the gated cell resolved before it was forced: %+v", r)
	}
	if r := durable.Force(); !r.Found || r.Err != nil {
		t.Fatalf("find of a flushed version = %+v, want found at once", r)
	}
	for i, r := range h.forceAfterRelease(t, cells...) {
		if r.Err != nil {
			t.Fatalf("response %d: %v", i, r.Err)
		}
	}
	if r := cells[1].Force(); !r.Found {
		t.Fatalf("the held read answered %+v, want the held write's row", r)
	}
}

// TestFailedFlushAnswersWithItsError: once the flush has failed, no version
// after the last one it made durable answers as an acknowledgement — a
// write's cell and a read's of such a version carry an error wrapping the
// flush's — while a version made durable before the failure still answers
// as usual. Barrier still returns.
func TestFailedFlushAnswersWithItsError(t *testing.T) {
	h := newHeldFlush()
	e := NewEngine(runDB(), WithCommitObserver(func(Commit) {}), WithCommitFlush(h.flush))
	before := e.Submit(Insert("A", tup(1, "a")))
	e.Barrier()

	errDisk := errors.New("disk gone")
	h.err.Store(&errDisk)
	write := e.Submit(Insert("A", tup(3, "b")))
	read := e.Submit(Find("A", value.Int(1)))
	run := make([]*lenient.Cell[Response], ptree.DefaultPageCap)
	e.SubmitBatch(inserts("P", ptree.DefaultPageCap, 1), run)
	e.Barrier()
	for name, c := range map[string]*lenient.Cell[Response]{"write": write, "read": read, "run insert": run[len(run)-1]} {
		if r := c.Force(); !errors.Is(r.Err, errDisk) {
			t.Errorf("%s after the failure answered %+v, want an error wrapping %v", name, r, errDisk)
		}
	}
	if r := before.Force(); r.Err != nil {
		t.Fatalf("a write flushed before the failure answered %v", r.Err)
	}
}

// TestGatedCellBytesAllocGate: a gated response holds its answer once, in its
// cell, so a find on an engine with a commit flush allocates no more bytes
// than one on an engine without — the ready cell it replaces, one size
// class.
func TestGatedCellBytesAllocGate(t *testing.T) {
	bytesPerFind := func(e *Engine) uint64 {
		find := Find("R", value.Int(7))
		e.Submit(find).Force()
		const n = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			e.Submit(find).Force()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	ready := bytesPerFind(avlEngine(100))
	gated := bytesPerFind(avlEngine(100, WithCommitObserver(func(Commit) {}), WithCommitFlush(func() error { return nil })))
	t.Logf("bytes per find: ready cell %d, gated cell %d", ready, gated)
	if gated > ready {
		t.Errorf("a gated find = %d bytes, want at most the ready cell's %d", gated, ready)
	}
}

// TestHeldCellPinsNoHistory: an unforced response cell keeps its own
// version's snapshot reachable, and nothing older — the notifier cuts each
// version's link to its predecessor once it has delivered it, so neither a
// held cell nor the head pins the versions behind them.
func TestHeldCellPinsNoHistory(t *testing.T) {
	e := NewEngine(runDB(), WithCommitObserver(func(Commit) {}), WithCommitFlush(func() error { return nil }))
	e.Submit(Insert("A", tup(1))).Force()
	first := weak.Make(e.snap.Load())
	for k := int64(2); k <= 10; k++ {
		e.Submit(Insert("A", tup(k))).Force()
	}
	held := e.Submit(Insert("A", tup(11)))
	e.Barrier()
	runtime.GC()
	if first.Value() != nil {
		t.Error("the first write's snapshot is still reachable ten versions later")
	}
	if r := held.Force(); r.Err != nil {
		t.Fatal(r.Err)
	}
}
