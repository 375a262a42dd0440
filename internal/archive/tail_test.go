package archive

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/reqtrace"
	"funcdb/internal/trace"
	"funcdb/internal/value"
	"funcdb/internal/wire"
)

// tailCollector accumulates subscription records under a lock (TailFunc
// runs on the commit path; tests read from the test goroutine).
type tailCollector struct {
	mu   sync.Mutex
	seqs []int64
	txs  []core.Transaction
}

func (c *tailCollector) fn(first, last int64, _ reqtrace.Ctx, form byte, payload []byte) {
	r, err := DecodeRecord(form, payload)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil || r.First != first || r.Last() != last {
		// Record the corruption as an impossible seq; the test fails on it.
		c.seqs = append(c.seqs, -1)
		return
	}
	for v := first; v <= last; v++ {
		c.seqs = append(c.seqs, v)
		c.txs = append(c.txs, r.Txn(int(v-first)))
	}
}

func (c *tailCollector) snapshot() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.seqs...)
}

// TestSubscribeTxnsCatchUpAndLive: a subscription opened mid-stream
// replays the durable history behind it and then receives live appends,
// with contiguous sequences and no duplicate or missing record across
// the replay/live boundary.
func TestSubscribeTxnsCatchUpAndLive(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"))
	for i := 0; i < 20; i++ {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v"))))
	}
	e.Barrier() // 20 commits, all flushed

	var col tailCollector
	cancel, err := a.SubscribeTxns(0, col.fn)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	// Replay must have delivered 1..20 from the file.
	got := col.snapshot()
	if len(got) != 20 {
		t.Fatalf("catch-up delivered %d records, want 20", len(got))
	}
	for i, seq := range got {
		if seq != int64(i+1) {
			t.Fatalf("catch-up record %d has seq %d", i, seq)
		}
	}

	// Live appends continue the sequence with no gap.
	for i := 20; i < 35; i++ {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v"))))
	}
	e.Submit(core.Delete("R", value.Int(0)))
	e.Barrier()
	got = col.snapshot()
	if len(got) != 36 {
		t.Fatalf("after live appends: %d records, want 36", len(got))
	}
	for i, seq := range got {
		if seq != int64(i+1) {
			t.Fatalf("record %d has seq %d (gap or duplicate at the replay/live boundary)", i, seq)
		}
	}
	col.mu.Lock()
	last := col.txs[len(col.txs)-1]
	col.mu.Unlock()
	if last.Kind != core.KindDelete || last.Rel != "R" {
		t.Fatalf("last record decoded as %v %s", last.Kind, last.Rel)
	}

	// Cancel stops delivery.
	cancel()
	e.Submit(core.Insert("R", value.NewTuple(value.Int(99), value.Str("v"))))
	e.Barrier()
	if n := len(col.snapshot()); n != 36 {
		t.Fatalf("after cancel: %d records, want 36", n)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubscribeTxnsSpansRotation: catch-up must chain across snapshot
// rotations — every encodable transaction is logged in exactly one
// segment, so a subscription from 0 sees them all once each.
func TestSubscribeTxnsSpansRotation(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"), SnapshotEvery(7))
	for i := 0; i < 30; i++ {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v"))))
	}
	e.Barrier()

	var col tailCollector
	cancel, err := a.SubscribeTxns(10, col.fn)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	got := col.snapshot()
	if len(got) != 20 {
		t.Fatalf("subscription from 10 delivered %d records, want 20", len(got))
	}
	for i, seq := range got {
		if seq != int64(11+i) {
			t.Fatalf("record %d has seq %d", i, seq)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubscribeTxnsReplayRebuildsState: applying the subscribed records
// to the initial version reproduces the primary's database — the
// subscription really is a complete replication stream.
func TestSubscribeTxnsReplayRebuildsState(t *testing.T) {
	dir := t.TempDir()
	initial := initialDB("R", "S")
	e, a := newEngineWithArchive(t, dir, initial, SnapshotEvery(5))

	var col tailCollector
	cancel, err := a.SubscribeTxns(0, col.fn)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	for i := 0; i < 25; i++ {
		rel := "R"
		if i%3 == 0 {
			rel = "S"
		}
		e.Submit(core.Insert(rel, value.NewTuple(value.Int(int64(i)), value.Str("v"))))
	}
	e.Submit(core.Delete("R", value.Int(4)))
	e.Barrier()
	want := e.Current()

	col.mu.Lock()
	txs := append([]core.Transaction(nil), col.txs...)
	col.mu.Unlock()
	db := initial
	for _, tx := range txs {
		_, next, _ := tx.Apply(nil, db, trace.None)
		db = next
	}
	if !db.Equal(want) {
		t.Fatal("replaying the subscription stream diverged from the primary")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// compacted writes 20 inserts with a snapshot every 5 into dir, compacts
// it — leaving snap-20 and log-20 — and reopens it with one more insert
// behind the snapshot. It returns the reopened archive and its version.
func compacted(t *testing.T, dir string) (*Archive, *database.Database) {
	t.Helper()
	e, a := newEngineWithArchive(t, dir, initialDB("R"), SnapshotEvery(5))
	for i := 0; i < 20; i++ {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v"))))
	}
	e.Barrier()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Compact(dir); err != nil {
		t.Fatal(err)
	}
	a, db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	e = core.NewEngine(db, core.WithCommitObserver(a.Observer()))
	e.Submit(core.Insert("R", value.NewTuple(value.Int(20), value.Str("v"))))
	e.Barrier()
	return a, e.Current()
}

// TestSubscribeTxnsCatchesUpFromSnapshot: a subscription starting below
// the oldest retained segment is handed that segment's base snapshot — the
// snapshot file's payload, not re-encoded — and then the log after it, and
// the two rebuild the archive's current version.
func TestSubscribeTxnsCatchesUpFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	a, want := compacted(t, dir)
	got, mu, cancel := collect(t, a, 3)
	defer cancel()
	mu.Lock()
	defer mu.Unlock()
	snap, rec := got[20], got[21]
	if len(got) != 2 || snap.form != FormSnapshot || snap.last != 20 || rec.form != FormRun || rec.last != 21 {
		t.Fatalf("catch-up from 3 handed out %d records; want the snapshot at 20, then the record of 21", len(got))
	}
	if file, err := snapshotPayload(dir, 20); err != nil || !bytes.Equal(snap.payload, file) {
		t.Fatalf("the snapshot handed out is not snap-20's payload (%v)", err)
	}
	db, err := database.DecodeSnapshot(snap.payload)
	if err != nil {
		t.Fatal(err)
	}
	r, err := DecodeRecord(rec.form, rec.payload)
	if err != nil {
		t.Fatal(err)
	}
	if db, err = Replay(db, &r); err != nil || !db.Equal(want) || db.Version() != want.Version() {
		t.Fatalf("snapshot + log rebuilt version %d (%v), want %d", db.Version(), err, want.Version())
	}
}

// TestSubscribeTxnsRefusesCompactedHistory: a subscription starting
// before the oldest retained segment, whose base snapshot is gone, must
// fail loudly with ErrLogTrimmed, not stream a silently incomplete
// history; one at the segment's base still streams the log.
func TestSubscribeTxnsRefusesCompactedHistory(t *testing.T) {
	dir := t.TempDir()
	a, _ := compacted(t, dir)
	if err := os.Remove(filepath.Join(dir, snapName(20))); err != nil {
		t.Fatal(err)
	}
	var col tailCollector
	if cancel, err := a.SubscribeTxns(0, col.fn); !errors.Is(err, ErrLogTrimmed) {
		if err == nil {
			cancel()
		}
		t.Fatalf("subscription from 0 over compacted history without its snapshot: %v, want ErrLogTrimmed", err)
	}
	cancel, err := a.SubscribeTxns(20, col.fn)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if got := col.snapshot(); len(got) != 1 || got[0] != 21 {
		t.Fatalf("subscription from the base delivered %v, want [21]", got)
	}
}

// TestSubscribeTxnsRefusesAheadOfLog: a subscriber beyond the last
// durable version holds versions this archive never made durable — only a
// lost disk causes that once records ship from the flush. The subscription
// fails loudly with ErrAheadOfLog and registers nothing; one at the last
// version streams the live tail, and one from below the log floor gets the
// base snapshot, the subscriber's way back.
func TestSubscribeTxnsRefusesAheadOfLog(t *testing.T) {
	e, a := newEngineWithArchive(t, t.TempDir(), initialDB("R"))
	defer a.Close()
	insert := func(k int64) {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(k), value.Str("v"))))
		e.Barrier()
	}
	for k := int64(1); k <= 5; k++ {
		insert(k)
	}
	var col tailCollector
	if cancel, err := a.SubscribeTxns(6, col.fn); !errors.Is(err, ErrAheadOfLog) {
		if err == nil {
			cancel()
		}
		t.Fatalf("subscription from 6 on a log ending at 5: %v, want ErrAheadOfLog", err)
	}
	insert(6)
	if got := col.snapshot(); len(got) != 0 {
		t.Fatalf("a refused subscription was handed %v", got)
	}
	cancel, err := a.SubscribeTxns(6, col.fn)
	if err != nil {
		t.Fatal(err)
	}
	insert(7)
	cancel()
	if got := col.snapshot(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("subscription at the log's end delivered %v, want [7]", got)
	}
	var forms []byte
	cancel, err = a.SubscribeTxns(-1, func(_, _ int64, _ reqtrace.Ctx, form byte, _ []byte) { forms = append(forms, form) })
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if len(forms) != 8 || forms[0] != FormSnapshot {
		t.Fatalf("subscription from below the floor got forms %v, want the base snapshot and 7 records", forms)
	}
}

// TestSubscribeTxnsSendsSnapshotInPieces: a snapshot larger than the
// limit is handed out in pieces no larger than it — FormSnapshotPart ones,
// then a FormSnapshot one — that join to the snapshot file's payload, and
// the log after the base follows them.
func TestSubscribeTxnsSendsSnapshotInPieces(t *testing.T) {
	a, _ := compacted(t, t.TempDir())
	snap, err := snapshotPayload(a.Dir(), 20)
	if err != nil {
		t.Fatal(err)
	}
	limit := len(snap)/3 + 1 // three pieces
	var forms []byte
	var joined []byte
	var col tailCollector
	cancel, err := a.subscribe(0, limit, func(first, last int64, ctx reqtrace.Ctx, form byte, payload []byte) {
		if form == FormRun {
			col.fn(first, last, ctx, form, payload)
			return
		}
		if first != 20 || last != 20 || len(payload) > limit {
			t.Errorf("snapshot piece of versions %d..%d, %d bytes; want 20..20, at most %d", first, last, len(payload), limit)
		}
		forms = append(forms, form)
		joined = append(joined, payload...)
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if want := []byte{FormSnapshotPart, FormSnapshotPart, FormSnapshot}; !bytes.Equal(forms, want) || !bytes.Equal(joined, snap) {
		t.Fatalf("a %d-byte snapshot went out as forms %v joining to %d bytes; want forms %v joining to snap-20's payload", len(snap), forms, len(joined), want)
	}
	if got := col.snapshot(); len(got) != 1 || got[0] != 21 {
		t.Fatalf("after the snapshot: log versions %v, want [21]", got)
	}
}

// TestSubscribeTxnsRefusesOversizedCatchUp: a catch-up log record larger
// than the limit — the largest record one wire frame carries — fails the
// subscription with an error wrapping wire.ErrTooLarge, and registers
// nothing; within the limit the same catch-up streams.
func TestSubscribeTxnsRefusesOversizedCatchUp(t *testing.T) {
	a, _ := compacted(t, t.TempDir())
	got, mu, cancel := collect(t, a, 20)
	cancel()
	mu.Lock()
	size := len(got[21].payload)
	mu.Unlock()
	discard := func(int64, int64, reqtrace.Ctx, byte, []byte) {}
	for _, after := range []int64{0, 20} {
		if cancel, err := a.subscribe(after, size-1, discard); !errors.Is(err, wire.ErrTooLarge) || errors.Is(err, ErrLogTrimmed) {
			if err == nil {
				cancel()
			}
			t.Fatalf("catch-up from %d over a %d-byte record with a limit one byte short: %v, want wire.ErrTooLarge", after, size, err)
		}
	}
	a.mu.Lock()
	subs := len(a.tails)
	a.mu.Unlock()
	if subs != 0 {
		t.Fatalf("a refused subscription left %d registered", subs)
	}
	var col tailCollector
	cancel, err := a.subscribe(20, size, col.fn)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if got := col.snapshot(); len(got) != 1 || got[0] != 21 {
		t.Fatalf("catch-up within the limit delivered log versions %v, want [21]", got)
	}
}

// tailed is one record a subscription handed out, copied out of the call.
type tailed struct {
	last    int64
	ctx     reqtrace.Ctx
	form    byte
	payload []byte
}

// collect subscribes from after and returns the records by first version,
// with the cancel of the subscription.
func collect(t *testing.T, a *Archive, after int64) (map[int64]tailed, *sync.Mutex, func()) {
	t.Helper()
	var mu sync.Mutex
	got := map[int64]tailed{}
	cancel, err := a.SubscribeTxns(after, func(first, last int64, ctx reqtrace.Ctx, form byte, payload []byte) {
		mu.Lock()
		defer mu.Unlock()
		got[first] = tailed{last: last, ctx: ctx, form: form, payload: append([]byte(nil), payload...)}
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, &mu, cancel
}

// TestCatchUpHandsOutLiveBytes: a live subscriber receives each record
// with the trace context of the commit that wrote it, and a subscriber
// catching up later from the segments receives, for every sequence, the
// very bytes the live one did, with the zero context.
func TestCatchUpHandsOutLiveBytes(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"), SnapshotEvery(7))
	live, mu, cancel := collect(t, a, 0)

	rec := reqtrace.New("primary", reqtrace.Config{SampleEvery: 1})
	traced := map[int64]reqtrace.Ctx{} // tuple key → the context its commit carried
	for i := int64(0); i < 30; i++ {
		tx := core.Insert("R", value.NewTuple(value.Int(i), value.Str("v")))
		if i%3 == 0 {
			tx.Trace = rec.Start()
			traced[i] = tx.Trace.Ctx()
		}
		e.Submit(tx).Force()
	}
	e.Submit(core.Delete("R", value.Int(4))).Force()
	e.Barrier()
	cancel()

	mu.Lock()
	defer mu.Unlock()
	if len(live) != 31 {
		t.Fatalf("live subscriber saw %d records, want 31", len(live))
	}
	for seq, r := range live {
		rec, err := DecodeRecord(r.form, r.payload)
		if err != nil || rec.First != seq || rec.Last() != seq || r.last != seq {
			t.Fatalf("seq %d: a record of %d..%d (%v)", seq, rec.First, rec.Last(), err)
		}
		want := reqtrace.Ctx{}
		if rec.Kind == core.KindInsert {
			want = traced[rec.Tuples[0].Key().AsInt()]
		}
		if r.ctx != want {
			t.Fatalf("seq %d arrived with context %+v, its commit carried %+v", seq, r.ctx, want)
		}
	}

	caught, cmu, ccancel := collect(t, a, 0)
	ccancel()
	cmu.Lock()
	defer cmu.Unlock()
	if len(caught) != len(live) {
		t.Fatalf("catch-up delivered %d records, live %d", len(caught), len(live))
	}
	for seq, r := range caught {
		if r.ctx != (reqtrace.Ctx{}) {
			t.Fatalf("catch-up seq %d carries context %+v", seq, r.ctx)
		}
		if r.form != live[seq].form || !bytes.Equal(r.payload, live[seq].payload) {
			t.Fatalf("catch-up seq %d: %d bytes that differ from the %d the live subscriber got", seq, len(r.payload), len(live[seq].payload))
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCatchUpHandsOutFixtureBytes: catching up over the archive written at
// commit a872265 hands out every record exactly as the segments store it.
func TestCatchUpHandsOutFixtureBytes(t *testing.T) {
	dir := copyFixture(t, fixtureDir)
	stored := fixtureLegacyRecords(t)
	a, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	caught, mu, cancel := collect(t, a, 0)
	cancel()
	mu.Lock()
	defer mu.Unlock()
	if len(caught) != len(stored) {
		t.Fatalf("catch-up delivered %d records, the segments hold %d", len(caught), len(stored))
	}
	for i, want := range stored {
		seq := int64(i + 1)
		if got := caught[seq]; got.form != FormLegacy || got.last != seq || !bytes.Equal(got.payload, want) {
			t.Fatalf("catch-up seq %d is not the stored record", seq)
		}
	}
}
