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

// TestMirrorApplyAllocGate: applying one shipped insert to a mirror pays
// for the pages its path copy creates plus the engine's fixed handful per
// commit and one copy of the record's bytes for the retained tail, with
// keepTail on as on every failover cluster. Measured: 8 allocations for
// the 3 pages a 2 000-row relation is deep (17 for 11 nodes when mirrors
// held AVL trees).
func TestMirrorApplyAllocGate(t *testing.T) {
	const rows = 2000
	tuples := make([]value.Tuple, rows)
	for i := range tuples {
		tuples[i] = value.NewTuple(value.Int(int64(i)), value.Str("v"))
	}
	db := database.FromData(FreshRep, []string{"R"}, map[string][]value.Tuple{"R": tuples})
	stats := &eval.Stats{}
	m := &mirror{peer: 1, eng: core.NewEngine(db, core.WithStats(stats)), keepTail: true}

	// One record, decoded once as applyStream would; every apply replays it
	// under the next sequence number (an upsert of an existing key, so the
	// relation stays at 2 000 rows).
	tx := core.Insert("R", value.NewTuple(value.Int(1234), value.Str("w")))
	tx.Query = `insert (1234, "w") into R`
	raw, err := archive.AppendTxnRecord(nil, 1, tx)
	if err != nil {
		t.Fatal(err)
	}
	_, decoded, err := archive.DecodeTxnRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	seq := int64(0)
	apply := func() {
		seq++
		if _, err := m.apply([]shipped{m.ship(seq, decoded, raw)}); err != nil {
			t.Fatal(err)
		}
	}
	apply() // the tail slice's first growth steps
	const runs = 500
	before := stats.Created.Load()
	allocs := testing.AllocsPerRun(runs, apply)
	pages := float64(stats.Created.Load()-before) / (runs + 1) // AllocsPerRun warms up once
	t.Logf("allocs %.2f pages %.2f", allocs, pages)
	if allocs > pages+8 {
		t.Errorf("mirror.apply = %.1f allocs with %.1f pages created, want <= pages+8", allocs, pages)
	}
	tail := m.freezeTail()
	m.keepTail = false
	if bare := testing.AllocsPerRun(runs, apply); allocs > bare+1 {
		t.Errorf("retaining the tail costs %.1f allocs per record (%.1f with, %.1f without), want <= 1", allocs-bare, allocs, bare)
	}
	if got := m.version(); got != seq {
		t.Fatalf("mirror at version %d after %d records", got, seq)
	}
	if want := int64(runs + 2); tail.end() != want || string(tail.recs[len(tail.recs)-1]) != string(raw) {
		t.Fatalf("retained tail ends at %d (want %d) or does not hold the record bytes", tail.end(), want)
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
	ack, cancel, err := n.SubscribeSlotLog(0, 1, 0, func(int64, uint64, reqtrace.Ctx, []byte) {})
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
