package cluster

import (
	"testing"
	"time"

	"funcdb/internal/archive"
	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/eval"
	"funcdb/internal/lenient"
	"funcdb/internal/relation"
	"funcdb/internal/reqtrace"
	"funcdb/internal/session"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// benchRecord encodes a record of n inserts shaped like the benchmark's:
// keys spread over a 2 000-row relation, a 16-byte value, origin bench-w0.
func benchRecord(t testing.TB, n int) []byte {
	t.Helper()
	r := archive.Record{First: 1, Origin: "bench-w0", Seq: 1, Kind: core.KindInsert, Rel: "R"}
	for i := 0; i < n; i++ {
		r.Tuples = append(r.Tuples, value.NewTuple(value.Int(int64(i*617%2000)), value.Str("v-0123456789abcd")))
	}
	raw, err := archive.AppendRun(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// benchMirror is a mirror of a 2 000-row relation R.
func benchMirror() *mirror {
	const rows = 2000
	tuples := make([]value.Tuple, rows)
	for i := range tuples {
		tuples[i] = value.NewTuple(value.Int(int64(i)), value.Str("v"))
	}
	return newMirror(1, database.FromData(FreshRep, []string{"R"}, map[string][]value.Tuple{"R": tuples}))
}

// pagesOf counts the pages replaying insert record r onto the mirror's
// version creates, through the relation calls archive.Replay makes, here
// with a stats context: one path copy for a record of one, one UpsertRun
// for a longer run. Nothing is published.
func pagesOf(m *mirror, r *archive.Record) float64 {
	stats := &eval.Stats{}
	ctx := &eval.Ctx{Stats: stats}
	rel, _ := m.db.Load().RelationFast(r.Rel)
	if r.Count() > 1 {
		relation.UpsertRun(ctx, rel, r.Tuples)
	} else {
		rel.Insert(ctx, r.Tuples[0], trace.None)
	}
	return float64(stats.Created.Load())
}

// TestMirrorApplyAllocGate: applying one shipped insert to a mirror pays
// for the pages its path copy creates plus a fixed handful per record (the
// database version it publishes), and keeps no copy of the record's bytes.
// Measured: 5 allocations for the 3 pages a 2 000-row relation is deep (17
// for 11 nodes when mirrors held AVL trees). A 500-version run record —
// decoded as the stream loop decodes it, and replayed as one run — pays
// its decoded tuples and little else:
// measured, 2.1 allocations per version beyond its pages, where applying
// the same versions one record each cost 8.2. Every apply upserts keys
// the relation holds, so each creates the same pages, counted once outside
// the measured call.
func TestMirrorApplyAllocGate(t *testing.T) {
	m := benchMirror()
	// One record, decoded once; every apply replays it under the next
	// version (an upsert of an existing key, so the relation stays at
	// 2 000 rows).
	raw := benchRecord(t, 1)
	r, err := archive.DecodeRecord(archive.FormRun, raw)
	if err != nil {
		t.Fatal(err)
	}
	apply := func() {
		r.First = m.version() + 1
		if err := m.apply(&r); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 500
	pages := pagesOf(m, &r)
	allocs := testing.AllocsPerRun(runs, apply)
	t.Logf("one insert: allocs %.2f pages %.2f", allocs, pages)
	if allocs > pages+8 {
		t.Errorf("mirror.apply = %.1f allocs with %.1f pages created, want <= pages+8", allocs, pages)
	}
	if m.version() != runs+1 {
		t.Fatalf("mirror at %d after %d applies", m.version(), runs+1)
	}

	m = benchMirror()
	const n = 500
	run := benchRecord(t, n)
	var dec archive.Decoder
	applyRun := func() {
		r, err := dec.Decode(archive.FormRun, run)
		if err != nil {
			t.Fatal(err)
		}
		r.First = m.version() + 1
		if err := m.apply(&r); err != nil {
			t.Fatal(err)
		}
	}
	applyRun()
	whole, err := archive.DecodeRecord(archive.FormRun, run)
	if err != nil {
		t.Fatal(err)
	}
	pages = pagesOf(m, &whole)
	allocs = testing.AllocsPerRun(20, applyRun)
	perVersion := (allocs - pages) / n
	t.Logf("%d-version run: %.0f allocs, %.0f pages, %.2f allocs per version beyond pages", n, allocs, pages, perVersion)
	if perVersion > 4 {
		t.Errorf("decoding and applying a %d-version run = %.2f allocs per version beyond its pages, want <= 4", n, perVersion)
	}
	if m.version() != 21*n+n {
		t.Fatalf("mirror at version %d after 22 runs of %d", m.version(), n)
	}
}

// ackGateNode returns a failover node over a fake store holding S, never
// started — no heartbeats, no replication dials — and inside its boot
// grace, so its silent peers count as alive: a node whose ack gate waits
// for one mirror.
func ackGateNode(t *testing.T) (*Node, *fakeStore) {
	t.Helper()
	fs := newFakeStore("S")
	n, err := New(Config{
		ID:       0,
		Addrs:    []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
		Store:    fs,
		Failover: &FailoverConfig{Lease: time.Hour},
		Promote: func(int, uint64, *database.Database) (LocalStore, error) {
			t.Error("promotion during an ack-gate test")
			return nil, ErrFenced
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	n.slots.mu.Lock()
	n.slots.started = time.Now()
	n.slots.mu.Unlock()
	return n, fs
}

// TestGatedAckedAllocGate: a write whose replicas have already acked pays
// the gate one object — the gate is its own future — and never
// materializes the store.
func TestGatedAckedAllocGate(t *testing.T) {
	n, fs := ackGateNode(t)
	tab := n.slots
	fs.eng.Submit(core.Insert("S", value.NewTuple(value.Int(1), value.Str("a")))).Force()
	ack, cancel, err := n.SubscribeSlotLog(0, 1, 0, func(int64, int64, uint64, reqtrace.Ctx, byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	ack(fs.Version())
	committed := lenient.Ready(core.Response{Kind: core.KindInsert})

	allocs := testing.AllocsPerRun(1000, func() {
		if r := tab.gated(0, fs.Version(), committed).Force(); r.Err != nil {
			t.Fatal(r.Err)
		}
	})
	if allocs > 1 {
		t.Errorf("forcing an already-acked gated write = %.1f allocs, want <= 1", allocs)
	}
	if c := fs.currents.Load(); c != 0 {
		t.Errorf("the ack gate materialized the store %d times; it needs only Version()", c)
	}
}

// TestGatedWriteWaitsForItsRunsVersion: the ack gate waits for the version
// of the write's own run, read when the run was admitted — not for the
// store's version when the response is forced, which under load is a later
// write's. A mirror acked at the run's version releases the write although
// the store has moved on.
func TestGatedWriteWaitsForItsRunsVersion(t *testing.T) {
	n, fs := ackGateNode(t)
	futs := make([]*session.Future, 1)
	n.localSubmit(0, fs, []core.Transaction{core.Insert("S", value.NewTuple(value.Int(1), value.Str("a")))}, futs)
	v := fs.Version()
	fs.eng.Submit(core.Insert("S", value.NewTuple(value.Int(2), value.Str("b")))).Force() // admitted after the run, never acked
	ack, cancel, err := n.SubscribeSlotLog(0, 1, 0, func(int64, int64, uint64, reqtrace.Ctx, byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	ack(v)

	done := make(chan core.Response, 1)
	go func() { done <- futs[0].Force() }()
	select {
	case r := <-done:
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("the write of version %d still waits with its mirror acked at %d and the store at %d", v, v, fs.Version())
	}
}

// TestReplicaReadAllocGate: a replica read is the read applied to one
// version of the mirror, answered at once: its future is ready when
// ReplicaRead returns, and it costs the ready future and no goroutine.
// Measured: 1 allocation for a find on node 0's mirror of a 2 000-row
// relation of node 1.
func TestReplicaReadAllocGate(t *testing.T) {
	n, err := New(Config{ // static, never started: no replication dials
		ID:        0,
		Addrs:     []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
		Store:     newFakeStore(),
		Relations: []string{"R"}, // node 1's
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	r := archive.Record{First: 1, Kind: core.KindInsert, Rel: "R"}
	for i := 0; i < 2000; i++ {
		r.Tuples = append(r.Tuples, value.NewTuple(value.Int(int64(i)), value.Str("v")))
	}
	if err := applyTo(n.mirrorRef(1), r); err != nil {
		t.Fatal(err)
	}
	tx := core.Find("R", value.Int(1234))
	allocs := testing.AllocsPerRun(1000, func() {
		fut, ok := n.ReplicaRead(tx)
		if !ok {
			t.Fatal("node 0 refused a replica read of its mirror of node 1")
		}
		resp, ready := fut.Poll()
		if !ready {
			t.Fatal("the replica read's future was not ready on return")
		}
		if resp.Err != nil || !resp.Found || resp.Version != 2000 {
			t.Fatalf("replica find answered %+v, want the row at version 2000", resp)
		}
	})
	t.Logf("replica find: %.2f allocs", allocs)
	if allocs > 2 {
		t.Errorf("a replica find = %.1f allocs, want <= 2", allocs)
	}
}
