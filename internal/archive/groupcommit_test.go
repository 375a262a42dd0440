package archive

import (
	"strings"
	"testing"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/metrics"
	"funcdb/internal/reqtrace"
	"funcdb/internal/value"
)

// TestGroupCommitRoundTrip: buffered appends survive Close and recover to
// the same database as unbatched appends.
func TestGroupCommitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"),
		GroupCommit(time.Hour), Fsync(true)) // window never fires: Close must flush
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

// TestGroupCommitFlushMakesDurable: before Flush the batch is only in
// memory; after Flush the records are recoverable without Close.
func TestGroupCommitFlushMakesDurable(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"), GroupCommit(time.Hour))
	for i := 0; i < 10; i++ {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v"))))
	}
	e.Barrier() // all appends buffered, nothing guaranteed on disk yet

	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Recover(dir) // reads the files as a crashed process would
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalTuples() != 10 {
		t.Fatalf("after Flush, recovery sees %d tuples, want 10", got.TotalTuples())
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitWindowFlushes: with a short window, records land on disk
// without any explicit flush call.
func TestGroupCommitWindowFlushes(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"), GroupCommit(2*time.Millisecond))
	defer a.Close()
	for i := 0; i < 20; i++ {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v"))))
	}
	e.Barrier()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		got, err := Recover(dir)
		if err == nil && got.TotalTuples() == 20 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("window flusher never made the batch durable")
}

// TestGroupCommitSnapshotRotation: snapshots (forced by snapshotEvery)
// flush the pending batch into the old segment before rotating, so no
// record is lost across the boundary.
func TestGroupCommitSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"),
		GroupCommit(time.Hour), SnapshotEvery(7))
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

// TestGroupCommitAdaptiveBatchFlush: with ExpectBatch hinted, the batch
// is durable as soon as its last append lands — the window timer (an hour
// here) never fires, so only the adaptive flush can have written it.
func TestGroupCommitAdaptiveBatchFlush(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"), GroupCommit(time.Hour))
	defer a.Close()

	const n = 20
	a.ExpectBatch(n)
	txs := make([]core.Transaction, n)
	for i := range txs {
		txs[i] = core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v")))
	}
	e.SubmitBatch(txs)
	e.Barrier() // every observer append has run; the nth flushed the buffer

	got, err := Recover(dir) // reads the files as a crashed process would
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalTuples() != n {
		t.Fatalf("after a full hinted batch, recovery sees %d tuples, want %d", got.TotalTuples(), n)
	}
}

// TestGroupCommitAdaptivePartialBatchStaysBuffered: a hint larger than
// what actually lands must not flush — the adaptive window only fires on
// a complete batch (the remainder drains against later appends).
func TestGroupCommitAdaptivePartialBatchStaysBuffered(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"), GroupCommit(time.Hour))
	defer a.Close()

	a.ExpectBatch(10)
	for i := 0; i < 9; i++ {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v"))))
	}
	e.Barrier()
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalTuples() != 0 {
		t.Fatalf("partial batch flushed early: %d tuples on disk", got.TotalTuples())
	}
	// The 10th append completes the hinted batch and flushes.
	e.Submit(core.Insert("R", value.NewTuple(value.Int(9), value.Str("v"))))
	e.Barrier()
	if got, err = Recover(dir); err != nil || got.TotalTuples() != 10 {
		t.Fatalf("completed batch not durable: %d tuples, %v", got.TotalTuples(), err)
	}
}

// TestGroupCommitAdaptiveRecoversFromFailedHintedWrite: a hinted write
// that errors before committing (plan failure: unknown relation) never
// reaches Append — the hint must not wedge the adaptive flush for later
// batches. Regression test for the countdown formulation of the hint.
func TestGroupCommitAdaptiveRecoversFromFailedHintedWrite(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"), GroupCommit(time.Hour))
	defer a.Close()

	// Batch 1: hinted 5, but one write fails at planning and never
	// commits — only 4 records ever reach the buffer.
	a.ExpectBatch(5)
	batch1 := []core.Transaction{
		core.Insert("R", value.NewTuple(value.Int(0), value.Str("v"))),
		core.Insert("R", value.NewTuple(value.Int(1), value.Str("v"))),
		core.Insert("NOPE", value.NewTuple(value.Int(2), value.Str("v"))), // error response, no commit
		core.Insert("R", value.NewTuple(value.Int(3), value.Str("v"))),
		core.Insert("R", value.NewTuple(value.Int(4), value.Str("v"))),
	}
	e.SubmitBatch(batch1)
	e.Barrier()

	// Batch 2: fully successful and hinted — it must flush adaptively
	// even though batch 1's hint was never fully served.
	a.ExpectBatch(5)
	batch2 := make([]core.Transaction, 5)
	for i := range batch2 {
		batch2[i] = core.Insert("R", value.NewTuple(value.Int(int64(10+i)), value.Str("v")))
	}
	e.SubmitBatch(batch2)
	e.Barrier()

	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalTuples() != 9 { // 4 from batch 1 + 5 from batch 2
		t.Fatalf("adaptive flush wedged by failed hinted write: %d tuples durable, want 9", got.TotalTuples())
	}
}

// TestGroupCommitExpectBatchWithoutGroupCommit: without group commit every
// Append is a flush of its own, so the hint changes nothing — the hinted
// batch's one append is on disk when Append returns.
func TestGroupCommitExpectBatchWithoutGroupCommit(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"))
	defer a.Close()
	a.ExpectBatch(5)
	e.Submit(core.Insert("R", value.NewTuple(value.Int(1), value.Str("v"))))
	e.Barrier()
	got, err := Recover(dir)
	if err != nil || got.TotalTuples() != 1 {
		t.Fatalf("unbatched append: %v, %d tuples", err, got.TotalTuples())
	}
}

// TestGroupCommitVersionAtFlushes: on-disk time travel must observe
// buffered commits (VersionAt flushes first).
func TestGroupCommitVersionAtFlushes(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"), GroupCommit(time.Hour))
	defer a.Close()
	for i := 0; i < 5; i++ {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v"))))
	}
	e.Barrier()
	db, err := a.VersionAt(5)
	if err != nil {
		t.Fatal(err)
	}
	if db.TotalTuples() != 5 {
		t.Fatalf("VersionAt(5) sees %d tuples, want 5", db.TotalTuples())
	}
}

// TestAppendAllocGate: a log append frames its record straight into the
// batch buffer and the flush writes it from there, so once that buffer has
// grown an append allocates nothing — with group commit, and without it,
// where every Append is a flush of its own — with a log-tail subscriber
// reading the same bytes. The same commits cost both archives the same
// Appends and Bytes; without group commit each Append is one flush.
func TestAppendAllocGate(t *testing.T) {
	tx := core.Insert("R", value.NewTuple(value.Int(1), value.Str(strings.Repeat("v", 64))))
	var snaps []metrics.ArchiveSnapshot
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"group commit", []Option{GroupCommit(time.Hour)}},
		{"no group commit", nil},
	} {
		m := new(metrics.Archive)
		a, err := Create(t.TempDir(), initialDB("R"), append(tc.opts, Fsync(false), WithMetrics(m))...)
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
			if err := a.Append(core.NewCommit(seq, tx, core.Response{}, nil)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2*maxGroupVersions; i++ { // grow the buffer to its cap and flush it once
			appendOne()
		}
		if allocs := testing.AllocsPerRun(1000, appendOne); allocs > 0 {
			t.Errorf("%s: Append = %.1f allocs, want 0", tc.name, allocs)
		}
		if tailed == 0 {
			t.Errorf("%s: tail subscriber saw no payload bytes", tc.name)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, m.Snapshot())
		if tc.opts == nil && snaps[1].Flushes != seq {
			t.Errorf("%s: %d flushes for %d appends, want one each", tc.name, snaps[1].Flushes, seq)
		}
	}
	if g, n := snaps[0], snaps[1]; g.Appends != n.Appends || g.Bytes != n.Bytes {
		t.Errorf("same commits, different accounting: group commit appends=%d bytes=%d, without appends=%d bytes=%d",
			g.Appends, g.Bytes, n.Appends, n.Bytes)
	}
}

// TestAppendTracedCommitSpan: a traced commit carries exactly one
// group-commit-fsync span, recorded by the flush that writes it: Append's
// own without group commit, and with a window that never fires, none until
// Flush.
func TestAppendTracedCommitSpan(t *testing.T) {
	for _, tc := range []struct {
		name        string
		opts        []Option
		beforeFlush int
	}{
		{"no group commit", nil, 1},
		{"group commit", []Option{GroupCommit(time.Hour)}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Create(t.TempDir(), initialDB("R"), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			rec := reqtrace.New("n", reqtrace.Config{SampleEvery: 1})
			tx := core.Insert("R", value.NewTuple(value.Int(1), value.Str("v")))
			tx.Trace = rec.Start()
			rec.Finish(tx.Trace) // publishes the handle; later spans still attach
			if err := a.Append(core.NewCommit(1, tx, core.Response{}, nil)); err != nil {
				t.Fatal(err)
			}
			if got := fsyncSpans(t, rec); got != tc.beforeFlush {
				t.Fatalf("after Append: %d group-commit-fsync spans, want %d", got, tc.beforeFlush)
			}
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := fsyncSpans(t, rec); got != 1 {
				t.Fatalf("after Flush: %d group-commit-fsync spans, want 1", got)
			}
		})
	}
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
