package archive

import (
	"strings"
	"sync"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/lenient"
	"funcdb/internal/metrics"
	"funcdb/internal/reqtrace"
	"funcdb/internal/value"
)

// TestGroupCommitRoundTrip: flushed appends survive Close and recover to
// the engine's current version.
func TestGroupCommitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"), Fsync(true))
	for i := 0; i < 50; i++ {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v"))))
	}
	e.Barrier()
	want := e.Current()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || got.Version() != want.Version() {
		t.Fatalf("group-commit recovery differs: version %d vs %d", got.Version(), want.Version())
	}
}

// TestGroupCommitFlushMakesDurable: Append only buffers — the records are
// in memory until Flush — and Flush makes them recoverable without Close.
func TestGroupCommitFlushMakesDurable(t *testing.T) {
	dir := t.TempDir()
	a, err := Create(dir, initialDB("R"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 1; i <= 10; i++ {
		tx := core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v")))
		if err := a.Append(core.NewCommit(int64(i), tx, nil)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Recover(dir) // reads the files as a crashed process would
	if err != nil || got.TotalTuples() != 0 {
		t.Fatalf("before Flush, recovery sees %d tuples (%v), want 0", got.TotalTuples(), err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err = Recover(dir); err != nil || got.TotalTuples() != 10 {
		t.Fatalf("after Flush, recovery sees %d tuples (%v), want 10", got.TotalTuples(), err)
	}
}

// TestCommitDurableBeforeReply: with the archive's flush on the engine's
// notifier, a write whose response cell has resolved is on disk — no Flush,
// Barrier or Close call, no wait beside the cell, and no timer.
func TestCommitDurableBeforeReply(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"))
	defer a.Close()
	for i := 1; i <= 20; i++ {
		if r := e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v")))).Force(); r.Err != nil {
			t.Fatal(r.Err)
		}
		got, err := Recover(dir)
		if err != nil || got.TotalTuples() != i {
			t.Fatalf("write %d replied with %d tuples on disk (%v)", i, got.TotalTuples(), err)
		}
	}
}

// TestFlushCoalescesCommitsQueuedDuringSlowFlush: commits that arrive
// while a flush runs form the notifier's next batch and land in one write.
// The first flush is held until 20 more commits from concurrent submitters
// are queued behind it; the second then carries all 20.
func TestFlushCoalescesCommitsQueuedDuringSlowFlush(t *testing.T) {
	m := new(metrics.Archive)
	initial := initialDB("R", "S", "T", "U")
	a, err := Create(t.TempDir(), initial, WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	flush := func() error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return a.Flush()
	}
	e := core.NewEngine(initial, core.WithLanes(4), core.WithCommitObserver(a.Observer()), core.WithCommitFlush(flush))
	e.Submit(core.Insert("R", value.NewTuple(value.Int(0), value.Str("v"))))
	<-entered // the first batch's flush is running, and held

	var wg sync.WaitGroup
	for w, rel := range []string{"R", "S", "T", "U"} {
		wg.Add(1)
		go func(w int, rel string) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				e.Submit(core.Insert(rel, value.NewTuple(value.Int(int64(10*w+i+1)), value.Str("v"))))
			}
		}(w, rel)
	}
	wg.Wait() // every commit is queued behind the held flush
	close(release)
	e.Barrier()

	s := m.Snapshot()
	if s.Appends != 21 || s.Flushes != 2 {
		t.Fatalf("%d versions in %d flushes, want 21 in 2 (the first alone, then everything queued behind it)", s.Appends, s.Flushes)
	}
	if mean := s.FlushRecords.Mean(); mean <= 1 {
		t.Fatalf("records per flush = %.1f, want > 1", mean)
	}
}

// TestTailSeesOnlyDurableRecords: a log-tail subscriber is handed a live
// record only by the flush that wrote it, and when it is, recovery from
// the files — what a crash would leave — already holds the record.
func TestTailSeesOnlyDurableRecords(t *testing.T) {
	dir := t.TempDir()
	a, err := Create(dir, initialDB("R"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var seen []int64
	var bad []string
	cancel, err := a.SubscribeTxns(0, func(_, last int64, _ reqtrace.Ctx, _ byte, _ []byte) {
		seen = append(seen, last)
		if got, err := Recover(dir); err != nil || got.Version() < last {
			bad = append(bad, "record handed out before the file held it")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	for i := 1; i <= 5; i++ {
		tx := core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v")))
		if err := a.Append(core.NewCommit(int64(i), tx, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 0 {
		t.Fatalf("tail saw %v before any flush", seen)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 || seen[4] != 5 || len(bad) > 0 {
		t.Fatalf("after Flush the tail saw %v; %v", seen, bad)
	}
}

// TestGroupCommitSnapshotRotation: snapshots (forced by snapshotEvery)
// flush the pending batch into the old segment before rotating, so no
// record is lost across the boundary.
func TestGroupCommitSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"), SnapshotEvery(7))
	for i := 0; i < 40; i++ {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v"))))
	}
	e.Barrier()
	want := e.Current()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || got.Version() != want.Version() {
		t.Fatalf("rotation under group commit lost records: version %d vs %d", got.Version(), want.Version())
	}
}

// TestGroupCommitVersionAtFlushes: on-disk time travel must observe
// buffered commits (VersionAt flushes first).
func TestGroupCommitVersionAtFlushes(t *testing.T) {
	dir := t.TempDir()
	a, err := Create(dir, initialDB("R"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 1; i <= 5; i++ {
		tx := core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v")))
		if err := a.Append(core.NewCommit(int64(i), tx, nil)); err != nil {
			t.Fatal(err)
		}
	}
	db, err := a.VersionAt(5)
	if err != nil {
		t.Fatal(err)
	}
	if db.TotalTuples() != 5 {
		t.Fatalf("VersionAt(5) sees %d tuples, want 5", db.TotalTuples())
	}
}

// TestAppendAllocGate: a log append frames its record straight into the
// batch buffer and the flush writes it from there, so once that buffer —
// and the index of records the tails are handed — has grown, neither an
// append nor a flush that ships its records to a log-tail subscriber
// allocates. Each Flush is one write.
func TestAppendAllocGate(t *testing.T) {
	tx := core.Insert("R", value.NewTuple(value.Int(1), value.Str(strings.Repeat("v", 64))))
	m := new(metrics.Archive)
	a, err := Create(t.TempDir(), initialDB("R"), Fsync(false), WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var tailed int
	cancel, err := a.SubscribeTxns(0, func(_, _ int64, _ reqtrace.Ctx, _ byte, payload []byte) { tailed += len(payload) })
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	seq := int64(0)
	appendOne := func() {
		seq++
		if err := a.Append(core.NewCommit(seq, tx, nil)); err != nil {
			t.Fatal(err)
		}
	}
	flush := func() {
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 1000
	for i := 0; i < 2*runs; i++ { // grow the buffer and the index past what one measured run needs
		appendOne()
	}
	flush()
	if allocs := testing.AllocsPerRun(runs, appendOne); allocs > 0 {
		t.Errorf("Append = %.1f allocs, want 0", allocs)
	}
	flush()
	appendFlush := func() { appendOne(); appendOne(); flush() }
	if allocs := testing.AllocsPerRun(runs, appendFlush); allocs > 0 {
		t.Errorf("Append+Append+Flush with a tail = %.1f allocs, want 0", allocs)
	}
	if tailed == 0 {
		t.Error("tail subscriber saw no payload bytes")
	}
	if s := m.Snapshot(); s.Appends != seq || s.Flushes != runs+3 {
		t.Errorf("%d appends in %d flushes, want %d in %d", s.Appends, s.Flushes, seq, runs+3)
	}
}

// TestReplyWaitAllocGate: the gated response cell's fast path — forcing
// the cell of a version already durable — is one atomic load: no lock, no
// allocation. The cell itself is the one allocation a ready cell would be.
func TestReplyWaitAllocGate(t *testing.T) {
	e, a := newEngineWithArchive(t, t.TempDir(), initialDB("R"))
	defer a.Close()
	e.Submit(core.Insert("R", value.NewTuple(value.Int(1), value.Str("v")))).Force()
	e.Barrier()
	const runs = 1000
	find := core.Find("R", value.Int(1))
	cells := make([]*lenient.Cell[core.Response], runs+1) // AllocsPerRun runs once more to warm up
	for i := range cells {
		cells[i] = e.Submit(find)
	}
	next := 0
	force := func() {
		if r := cells[next].Force(); !r.Found || r.Err != nil {
			t.Fatalf("find of a durable row = %+v", r)
		}
		next++
	}
	if allocs := testing.AllocsPerRun(runs, force); allocs > 0 {
		t.Errorf("forcing the gated cell of a durable version = %.1f allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(runs, func() { e.Submit(find) }); allocs > 1 {
		t.Errorf("a gated find = %.1f allocs, want <= 1", allocs)
	}
}

// TestAppendTracedCommitSpan: a traced commit carries exactly one
// group-commit-fsync span, recorded by the flush that writes it: none
// after Append, one after Flush.
func TestAppendTracedCommitSpan(t *testing.T) {
	t.Run("group commit", func(t *testing.T) {
		a, err := Create(t.TempDir(), initialDB("R"))
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		rec := reqtrace.New("n", reqtrace.Config{SampleEvery: 1})
		tx := core.Insert("R", value.NewTuple(value.Int(1), value.Str("v")))
		tx.Trace = rec.Start()
		rec.Finish(tx.Trace) // publishes the handle; later spans still attach
		if err := a.Append(core.NewCommit(1, tx, nil)); err != nil {
			t.Fatal(err)
		}
		if got := fsyncSpans(t, rec); got != 0 {
			t.Fatalf("after Append: %d group-commit-fsync spans, want 0", got)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := fsyncSpans(t, rec); got != 1 {
			t.Fatalf("after Flush: %d group-commit-fsync spans, want 1", got)
		}
	})
}

// fsyncSpans counts the group-commit-fsync spans of rec's one trace.
func fsyncSpans(t *testing.T, rec *reqtrace.Recorder) int {
	t.Helper()
	traces := rec.Traces()
	if len(traces) != 1 {
		t.Fatalf("recorder holds %d traces, want 1", len(traces))
	}
	n := 0
	for _, sp := range traces[0].Spans {
		if sp.Stage == reqtrace.StageGroupCommitFsync.String() {
			n++
		}
	}
	return n
}
