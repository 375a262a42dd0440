package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"funcdb/internal/archive"
	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/relation"
	"funcdb/internal/reqtrace"
	"funcdb/internal/session"
	"funcdb/internal/value"
	"funcdb/internal/wire"
)

// cannedConn is a replication dial that reads a canned stream and records
// what is written to it. Each Read returns from one chunk only, so a chunk
// is what one socket read delivers: the records a subscriber finds already
// buffered together. Past the last chunk the stream ends with io.EOF.
type cannedConn struct {
	net.Conn // unused methods panic
	chunks   [][]byte
	wrote    bytes.Buffer
}

func (c *cannedConn) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

func (c *cannedConn) Write(p []byte) (int, error) { return c.wrote.Write(p) }
func (c *cannedConn) Close() error                { return nil }

// logChunk frames each record as one LogRecord, all in one chunk, and
// returns the chunk and each record's bytes. A record is a run of the
// given inserts at consecutive versions from its first.
func logChunk(t *testing.T, recs ...archive.Record) ([]byte, [][]byte) {
	t.Helper()
	var chunk []byte
	var raws [][]byte
	for _, r := range recs {
		raw, err := archive.AppendRun(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		if chunk, err = wire.AppendFrame(chunk, wire.FrameLogRecord, wire.AppendLogRecord(nil, 0, archive.FormRun, raw)); err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}
	return chunk, raws
}

// insertsAt is the record of txs's tuples at versions first, first+1, ….
func insertsAt(first int64, txs ...core.Transaction) archive.Record {
	r := archive.Record{First: first, Origin: "p", Seq: int(first), Kind: core.KindInsert, Rel: "R"}
	for _, tx := range txs {
		r.Tuples = append(r.Tuples, tx.Tuple)
	}
	return r
}

// applyTo applies record r to m.
func applyTo(m *mirror, r archive.Record) error { return m.apply(&r) }

// streamCanned runs one subscription of a mirror of peer 1's relation R
// over the canned chunks (a Welcome is prepended), and returns the mirror,
// the SubAck sequences the subscription wrote, and the error it ended with.
func streamCanned(t *testing.T, chunks ...[]byte) (*mirror, []int64, error) {
	m := newMirror(1, database.New(FreshRep, "R"))
	acks, err := streamInto(t, m, chunks...)
	return m, acks, err
}

// streamInto runs one subscription of mirror m of peer 1 over the canned
// chunks (a Welcome is prepended), and returns the SubAck sequences the
// subscription wrote and the error it ended with.
func streamInto(t *testing.T, m *mirror, chunks ...[]byte) ([]int64, error) {
	t.Helper()
	welcome, err := wire.AppendFrame(nil, wire.FrameWelcome, wire.AppendWelcome(nil, wire.Welcome{Lanes: 1}))
	if err != nil {
		t.Fatal(err)
	}
	conn := &cannedConn{chunks: append([][]byte{welcome}, chunks...)}
	n, err := New(Config{
		ID:     0,
		Addrs:  []string{"127.0.0.1:1", "127.0.0.1:2"},
		Store:  newFakeStore(),
		Dialer: func(string) (net.Conn, error) { return conn, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	serr := n.streamFrom(1, m)

	var acks []int64
	rd := wire.NewReader(bytes.NewReader(conn.wrote.Bytes()))
	for {
		typ, payload, err := rd.Next()
		if err != nil {
			break
		}
		if typ == wire.FrameSubAck {
			seq, err := wire.DecodeSubAck(payload)
			if err != nil {
				t.Fatal(err)
			}
			acks = append(acks, seq)
		}
	}
	return acks, serr
}

func put(k int64) core.Transaction {
	return core.Insert("R", value.NewTuple(value.Int(k), value.Str("v")))
}

// TestMirrorAppliesRuns: a mirror applies every record one socket read
// delivered and acks them once, with the last version they reach; a run
// record is one replay however many versions it covers.
func TestMirrorAppliesRuns(t *testing.T) {
	var txs []core.Transaction
	for i := 0; i < 24; i++ {
		txs = append(txs, put(int64((i*7)%20)))
	}
	first, _ := logChunk(t, insertsAt(1, txs[0]), insertsAt(2, txs[1]), insertsAt(3, txs[2]))
	second, _ := logChunk(t, insertsAt(4, txs[3:23]...), insertsAt(24, txs[23]))
	m, acks, err := streamCanned(t, first, second)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("stream ended with %v, want io.EOF", err)
	}
	if len(acks) != 2 || acks[0] != 3 || acks[1] != 24 {
		t.Fatalf("acks %v, want one per socket read: [3 24]", acks)
	}
	if got := m.version(); got != 24 {
		t.Fatalf("mirror at version %d, want 24", got)
	}
	if got := m.records.Load(); got != 5 {
		t.Fatalf("mirror applied %d records, want 5", got)
	}
	_, want := core.ApplySequential(database.New(FreshRep, "R"), txs)
	if got := m.db.Load(); !got.Equal(want) {
		t.Fatalf("mirror holds %d tuples, the records make %d", got.TotalTuples(), want.TotalTuples())
	}
	if r, _ := m.db.Load().RelationFast("R"); r.Rep() != relation.RepPaged {
		t.Fatalf("mirror relation is %v, want paged", r.Rep())
	}
}

// TestMirrorRunStopsAtGap: a stream with a version hole applies the
// records before the hole, acks them, and ends the subscription with
// errReplicationGap; nothing past the hole is applied.
func TestMirrorRunStopsAtGap(t *testing.T) {
	chunk, _ := logChunk(t, insertsAt(1, put(1)), insertsAt(2, put(2)), insertsAt(4, put(4)), insertsAt(5, put(5)))
	m, acks, err := streamCanned(t, chunk)
	if err != errReplicationGap {
		t.Fatalf("stream ended with %v, want errReplicationGap", err)
	}
	if got := m.version(); got != 2 {
		t.Fatalf("mirror at version %d, want 2", got)
	}
	if len(acks) != 1 || acks[0] != 2 {
		t.Fatalf("acks %v, want [2]", acks)
	}
	if got := m.db.Load().TotalTuples(); got != 2 {
		t.Fatalf("mirror holds %d tuples, want the 2 before the hole", got)
	}
}

// shipped is one record a subscription handed out: the versions it covers,
// its form and a copy of its bytes.
type shipped struct {
	first, last int64
	form        byte
	raw         []byte
}

// subscribed frames every record a subscription from after hands out as
// LogRecord frames in one chunk, and returns the chunk and each record's
// span, form and bytes.
func subscribed(t *testing.T, subscribe func(after int64, fn archive.TailFunc) (func(), error), after int64) ([]byte, []shipped) {
	t.Helper()
	var chunk []byte
	var recs []shipped
	var ferr error
	cancel, err := subscribe(after, func(first, last int64, _ reqtrace.Ctx, form byte, raw []byte) {
		if chunk, ferr = wire.AppendFrame(chunk, wire.FrameLogRecord, wire.AppendLogRecord(nil, 0, form, raw)); ferr != nil {
			return
		}
		recs = append(recs, shipped{first: first, last: last, form: form, raw: append([]byte(nil), raw...)})
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return chunk, recs
}

// TestLegacyRecordsShipToAMirror: the archive written at commit a872265,
// whose log holds FormLegacy records only, reopens, and a subscription from
// version 0 ships those records as the segments hold them — form and all —
// to a fresh mirror, which decodes them with the legacy decoder and applies
// them one by one: it converges on the recovered archive.
func TestLegacyRecordsShipToAMirror(t *testing.T) {
	dir := t.TempDir()
	const fixture = "../archive/testdata/archive-a872265"
	files, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(fixture, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, recovered, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	start, err := archive.VersionAt(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	chunk, recs := subscribed(t, a.SubscribeTxns, 0)
	if len(recs) != 100 {
		t.Fatalf("the fixture shipped %d records, want 100", len(recs))
	}
	for _, r := range recs {
		if r.form != archive.FormLegacy || r.first != r.last {
			t.Fatalf("shipped a record of %d..%d in form %d, want the legacy record of one version", r.first, r.last, r.form)
		}
	}
	m := newMirror(1, start)
	acks, err := streamInto(t, m, chunk)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("stream ended with %v, want io.EOF", err)
	}
	if m.version() != 100 || len(acks) != 1 || acks[0] != 100 {
		t.Fatalf("mirror at %d acked %v, want 100 acked once", m.version(), acks)
	}
	if !m.db.Load().Equal(recovered) {
		t.Fatalf("mirror holds %d tuples, the archive %d", m.db.Load().TotalTuples(), recovered.TotalTuples())
	}
}

// TestMirrorCatchesUpInsideARun: a subscriber whose position falls inside
// a run is handed the run's remaining versions from the archive's segments
// as a run of their own, and a mirror at that position converges with no
// gap.
func TestMirrorCatchesUpInsideARun(t *testing.T) {
	dir := t.TempDir()
	initial := database.New(FreshRep, "R")
	a, err := archive.Create(dir, initial)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	e := core.NewEngine(initial, core.WithCommitObserver(a.Observer()))
	batch := make([]core.Transaction, 500)
	for i := range batch {
		batch[i] = put(int64(i * 7 % 300))
		batch[i].Origin, batch[i].Seq = "c", i
	}
	e.SubmitBatch(batch, make([]*session.Future, len(batch)))
	for i := 0; i < 3; i++ {
		e.Submit(put(int64(1000 + i)))
	}
	e.Barrier()

	const after = 200
	chunk, recs := subscribed(t, a.SubscribeTxns, after)
	spans := [][2]int64{{201, 500}, {501, 501}, {502, 502}, {503, 503}}
	if len(recs) != len(spans) {
		t.Fatalf("catch-up from %d handed out %d records, want %d", after, len(recs), len(spans))
	}
	for i, r := range recs {
		if r.first != spans[i][0] || r.last != spans[i][1] || r.form != archive.FormRun {
			t.Fatalf("record %d covers %d..%d, want %v", i, r.first, r.last, spans[i])
		}
	}
	suffix, err := archive.DecodeRecord(recs[0].form, recs[0].raw)
	if err != nil || suffix.First != after+1 || suffix.Origin != "c" || suffix.Seq != after || !suffix.Tuples[0].Equal(batch[after].Tuple) {
		t.Fatalf("the run's suffix decodes to %+v, %v", suffix, err)
	}
	at, err := a.VersionAt(after)
	if err != nil {
		t.Fatal(err)
	}
	m := newMirror(1, at)
	acks, err := streamInto(t, m, chunk)
	if !errors.Is(err, io.EOF) || len(acks) != 1 || acks[0] != 503 {
		t.Fatalf("stream ended with %v after acks %v, want io.EOF after [503]", err, acks)
	}
	if !m.db.Load().Equal(e.Current()) || m.version() != e.Version() {
		t.Fatalf("mirror at %d with %d tuples, the primary at %d with %d", m.version(), m.db.Load().TotalTuples(), e.Version(), e.Current().TotalTuples())
	}

}

// BenchmarkMirrorApply is the replica-apply rung: a mirror of a 2 000-row
// relation decodes and applies one bench-shaped record (a 16-byte value, origin bench-w0) of 1,
// 64 or 500 versions per iteration, as the stream loop does. It reports the
// cost per version — per write replicated — so runs of every length, and a
// stream of single-version records, compare on one scale.
func BenchmarkMirrorApply(b *testing.B) {
	for _, n := range []int{1, 64, 500} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			m := benchMirror()
			raw := benchRecord(b, n)
			var dec archive.Decoder
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := dec.Decode(archive.FormRun, raw)
				if err != nil {
					b.Fatal(err)
				}
				r.First = m.version() + 1
				if err := m.apply(&r); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			versions := float64(b.N * n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/versions, "ns/version")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/versions, "allocs/version")
		})
	}
}

// archiveStore is a fakeStore whose commits reach an archive and whose log
// subscriptions read it, as a takeover store funcdb builds does.
type archiveStore struct {
	*fakeStore
	a *archive.Archive
}

func newArchiveStore(t *testing.T, db *database.Database) *archiveStore {
	t.Helper()
	a, err := archive.Create(t.TempDir(), db)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return &archiveStore{fakeStore: &fakeStore{eng: core.NewEngine(db, core.WithCommitObserver(a.Observer()))}, a: a}
}

func (s *archiveStore) SubscribeLog(after int64, fn func(first, last int64, ctx reqtrace.Ctx, form byte, record []byte)) (func(), error) {
	return s.a.SubscribeTxns(after, fn)
}

// TestPromotionServesBaseSnapshot: a promotion takes the mirror's version
// before it builds the takeover store, so a record the stream goroutine
// applies while the store is built (it passed its epoch check before the
// promotion took the slot table's lock) lands in neither the store's base
// snapshot nor its log. A subscriber from 0 is sent that snapshot, at the
// promotion base, then the takeover store's own log, and a fresh mirror
// fed that stream installs the snapshot and converges on the store.
func TestPromotionServesBaseSnapshot(t *testing.T) {
	const base = 5
	var n *Node
	var takeover *archiveStore
	n, err := New(Config{ // never started: no heartbeats, no replication dials
		ID:        0,
		Addrs:     []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
		Store:     newFakeStore(),
		Relations: []string{"R"}, // node 1's
		Failover:  &FailoverConfig{Lease: time.Hour},
		Promote: func(slot int, _ uint64, db *database.Database) (LocalStore, error) {
			m := n.mirrorRef(slot)
			if err := applyTo(m, insertsAt(m.version()+1, put(99))); err != nil {
				return nil, err
			}
			takeover = newArchiveStore(t, db)
			return takeover, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	m := n.mirrorRef(1)
	var txs []core.Transaction
	for v := int64(1); v <= base; v++ {
		txs = append(txs, put(v))
		if err := applyTo(m, insertsAt(v, put(v))); err != nil {
			t.Fatal(err)
		}
	}

	tab := n.slots
	tab.mu.Lock()
	tab.promoteLocked(1, m)
	promoted, floor := tab.owners[1] == n.id, tab.bases[1]
	tab.mu.Unlock()
	if !promoted || floor != base {
		t.Fatalf("promotion: owner is node 0 %v, base %d; want node 0 at base %d", promoted, floor, base)
	}
	if r := takeover.eng.Submit(put(7)).Force(); r.Err != nil {
		t.Fatal(r.Err)
	}
	takeover.Barrier()
	chunk, recs := subscribed(t, func(after int64, fn archive.TailFunc) (func(), error) {
		_, cancel, err := n.SubscribeSlotLog(1, 2, after, func(first, last int64, _ uint64, ctx reqtrace.Ctx, form byte, raw []byte) {
			fn(first, last, ctx, form, raw)
		})
		return cancel, err
	}, 0)
	if len(recs) != 2 || recs[0].form != archive.FormSnapshot || recs[0].first != base || recs[0].last != base ||
		recs[1].form != archive.FormRun || recs[1].first != base+1 || recs[1].last != base+1 {
		t.Fatalf("a subscriber from 0 was handed %d records; want the snapshot at %d, then the takeover's record of %d", len(recs), base, base+1)
	}
	snap, err := database.DecodeSnapshot(recs[0].raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, want := core.ApplySequential(database.New(FreshRep, "R"), txs); !snap.Equal(want) || snap.Version() != base {
		t.Fatalf("the base snapshot holds %d tuples at version %d, want the %d applied before the promotion", snap.TotalTuples(), snap.Version(), base)
	}
	if r, err := archive.DecodeRecord(recs[1].form, recs[1].raw); err != nil || !r.Tuples[0].Equal(put(7).Tuple) {
		t.Fatalf("the record after the base decodes to %+v, %v; want the takeover's own write", r, err)
	}

	fresh := newMirror(1, database.New(FreshRep, "R"))
	acks, err := streamInto(t, fresh, chunk)
	if !errors.Is(err, io.EOF) || len(acks) != 1 || acks[0] != base+1 {
		t.Fatalf("stream ended with %v after acks %v, want io.EOF after [%d]", err, acks, base+1)
	}
	if !fresh.db.Load().Equal(takeover.Current()) || fresh.version() != takeover.Version() {
		t.Fatalf("mirror at %d with %d tuples, the takeover store at %d with %d", fresh.version(), fresh.db.Load().TotalTuples(), takeover.Version(), takeover.Current().TotalTuples())
	}
}

// TestMirrorStopsOnUnservableCatchUp: a subscription refused because the
// owner has no snapshot to start the mirror from, or because the catch-up
// does not fit a frame, ends with errReplicationGap — the mirror stops
// instead of redialing forever — while any other refusal is retried.
func TestMirrorStopsOnUnservableCatchUp(t *testing.T) {
	for _, tc := range []struct {
		refusal error
		stop    bool
	}{
		{fmt.Errorf("%w: after 0, oldest segment base 40", archive.ErrLogTrimmed), true},
		{fmt.Errorf("archive: catch-up record of versions 40..40 is 70000000 bytes: %w", wire.ErrTooLarge), true},
		{errors.New("cluster: slot 1 has no serving store yet"), false},
	} {
		refusal, err := wire.AppendFrame(nil, wire.FrameError, wire.AppendErrorMsg(nil, 0, -1, tc.refusal.Error()))
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = streamCanned(t, refusal)
		if stop := err == errReplicationGap; stop != tc.stop || err == nil {
			t.Fatalf("refusal %q ended the stream with %v; want a stop: %v", tc.refusal, err, tc.stop)
		}
	}
}

// TestMirrorJoinsSnapshotPieces: a snapshot that reaches the mirror in
// pieces — FormSnapshotPart frames, then a FormSnapshot one, over several
// socket reads — is joined and installed whole, and the log after it
// applies on top. A stream that ends between the pieces leaves the mirror
// where it was, for the next subscription to start again.
func TestMirrorJoinsSnapshotPieces(t *testing.T) {
	_, db := core.ApplySequential(database.New(FreshRep, "R"), []core.Transaction{put(1), put(2), put(3)})
	snap, err := database.AppendSnapshot(nil, db)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(snap) / 3
	var pieces [][]byte
	for i, p := range [][]byte{snap[:cut], snap[cut : 2*cut], snap[2*cut:]} {
		form := archive.FormSnapshotPart
		if i == 2 {
			form = archive.FormSnapshot
		}
		frame, err := wire.AppendFrame(nil, wire.FrameLogRecord, wire.AppendLogRecord(nil, 0, form, p))
		if err != nil {
			t.Fatal(err)
		}
		pieces = append(pieces, frame)
	}
	next, _ := logChunk(t, insertsAt(4, put(4)))

	m, acks, err := streamCanned(t, append(append([]byte(nil), pieces[0]...), pieces[1]...), pieces[2], next)
	if !errors.Is(err, io.EOF) || fmt.Sprint(acks) != "[3 4]" {
		t.Fatalf("stream ended with %v after acks %v, want io.EOF after [3 4]", err, acks)
	}
	if _, want := core.ApplySequential(db, []core.Transaction{put(4)}); !m.db.Load().Equal(want) || m.version() != 4 {
		t.Fatalf("mirror at version %d with %d tuples, want version 4 with %d", m.version(), m.db.Load().TotalTuples(), want.TotalTuples())
	}

	m, acks, err = streamCanned(t, pieces[0], pieces[1])
	if !errors.Is(err, io.EOF) || len(acks) != 0 || m.version() != 0 {
		t.Fatalf("stream cut between the pieces ended with %v after acks %v, mirror at %d; want io.EOF, no ack, version 0", err, acks, m.version())
	}
}

// TestSnapshotInstallInvalidatesNewRelations: a mirror installs a snapshot
// past its version as its version, and drops the cached statements on any
// relation the snapshot brings that the mirror did not hold, as a create
// record does; a snapshot at or below the mirror's version is a gap.
func TestSnapshotInstallInvalidatesNewRelations(t *testing.T) {
	n, _ := threeNode(t)
	m := newMirror(1, database.New(FreshRep, "R"))
	for _, q := range []string{"count R", "count Q"} {
		if _, err := n.cache.Get(q); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := database.AppendSnapshot(nil, database.New(FreshRep, "R", "Q").AtVersion(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.installSnapshot(snap, m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.db.Load().RelationFast("Q"); !ok || m.version() != 3 {
		t.Fatalf("mirror at version %d without Q after installing the snapshot at 3", m.version())
	}
	if got := n.cache.Len(); got != 1 {
		t.Fatalf("%d statements cached after the install, want only the one on R", got)
	}
	if err := n.installSnapshot(snap, m); err != errReplicationGap {
		t.Fatalf("re-installing the snapshot at the mirror's version: %v, want errReplicationGap", err)
	}
}
