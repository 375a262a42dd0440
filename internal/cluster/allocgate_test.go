package cluster

import (
	"testing"
	"time"

	"funcdb/internal/archive"
	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/eval"
	"funcdb/internal/lenient"
	"funcdb/internal/reqtrace"
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

// benchMirror is a mirror of a 2 000-row relation R, keeping its tail as on
// every failover cluster, with the page counter its engine feeds.
func benchMirror() (*mirror, *eval.Stats) {
	const rows = 2000
	tuples := make([]value.Tuple, rows)
	for i := range tuples {
		tuples[i] = value.NewTuple(value.Int(int64(i)), value.Str("v"))
	}
	db := database.FromData(FreshRep, []string{"R"}, map[string][]value.Tuple{"R": tuples})
	stats := &eval.Stats{}
	return &mirror{peer: 1, eng: core.NewEngine(db, core.WithStats(stats)), keepTail: true}, stats
}

// TestMirrorApplyAllocGate: applying one shipped insert to a mirror pays
// for the pages its path copy creates plus the engine's fixed handful per
// commit and one copy of the record's bytes for the retained tail, with
// keepTail on as on every failover cluster. Measured: 8 allocations for
// the 3 pages a 2 000-row relation is deep (17 for 11 nodes when mirrors
// held AVL trees). A 500-version run record — decoded as the stream loop
// decodes it, and applied as one run — pays its decoded tuples and little
// else: measured, 2.1 allocations per version beyond its pages, where
// applying the same versions one record each cost 8.2.
func TestMirrorApplyAllocGate(t *testing.T) {
	m, stats := benchMirror()
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
		if err := m.apply(&r, archive.FormRun, raw); err != nil {
			t.Fatal(err)
		}
	}
	apply() // the tail slice's first growth steps
	const runs = 500
	before := stats.Created.Load()
	allocs := testing.AllocsPerRun(runs, apply)
	pages := float64(stats.Created.Load()-before) / (runs + 1) // AllocsPerRun warms up once
	t.Logf("one insert: allocs %.2f pages %.2f", allocs, pages)
	if allocs > pages+8 {
		t.Errorf("mirror.apply = %.1f allocs with %.1f pages created, want <= pages+8", allocs, pages)
	}
	tail := m.freezeTail()
	m.keepTail = false
	if bare := testing.AllocsPerRun(runs, apply); allocs > bare+1 {
		t.Errorf("retaining the tail costs %.1f allocs per record (%.1f with, %.1f without), want <= 1", allocs-bare, allocs, bare)
	}
	if want := int64(runs + 2); m.version() != 2*runs+3 || tail.end() != want || string(tail.recs[len(tail.recs)-1].raw) != string(raw) {
		t.Fatalf("mirror at %d, retained tail ends at %d (want %d) or does not hold the record bytes", m.version(), tail.end(), want)
	}

	m, stats = benchMirror()
	const n = 500
	run := benchRecord(t, n)
	var dec archive.Decoder
	applyRun := func() {
		r, err := dec.Decode(archive.FormRun, run)
		if err != nil {
			t.Fatal(err)
		}
		r.First = m.version() + 1
		if err := m.apply(&r, archive.FormRun, run); err != nil {
			t.Fatal(err)
		}
	}
	applyRun()
	before = stats.Created.Load()
	allocs = testing.AllocsPerRun(20, applyRun)
	pages = float64(stats.Created.Load()-before) / 21
	perVersion := (allocs - pages) / n
	t.Logf("%d-version run: %.0f allocs, %.0f pages, %.2f allocs per version beyond pages", n, allocs, pages, perVersion)
	if perVersion > 4 {
		t.Errorf("decoding and applying a %d-version run = %.2f allocs per version beyond its pages, want <= 4", n, perVersion)
	}
	if m.version() != 21*n+n {
		t.Fatalf("mirror at version %d after 22 runs of %d", m.version(), n)
	}
}

// TestGatedAckedAllocGate: a write whose replicas have already acked pays
// the gate one object — the gate is its own future — and asks the store
// for a number, never for a database.
func TestGatedAckedAllocGate(t *testing.T) {
	fs := newFakeStore("S")
	n, err := New(Config{ // never started: no heartbeats, no replication dials
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
	tab := n.slots
	tab.mu.Lock()
	tab.started = time.Now() // inside the boot grace: the silent peers count as alive
	tab.mu.Unlock()

	fs.eng.Submit(core.Insert("S", value.NewTuple(value.Int(1), value.Str("a")))).Force()
	ack, cancel, err := n.SubscribeSlotLog(0, 1, 0, func(int64, int64, uint64, reqtrace.Ctx, byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	ack(fs.Version())
	committed := lenient.Ready(core.Response{Kind: core.KindInsert})

	allocs := testing.AllocsPerRun(1000, func() {
		if r := tab.gated(0, fs, committed).Force(); r.Err != nil {
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
