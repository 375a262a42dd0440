package cluster

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/metrics"
	"funcdb/internal/reqtrace"
	"funcdb/internal/session"
	"funcdb/internal/value"
	"funcdb/internal/wire"
)

// fakeStore is a minimal LocalStore: a bare engine, recording batches and
// counting materializations, with an empty log whose subscriptions never
// deliver a record.
type fakeStore struct {
	eng      *core.Engine
	batches  [][]core.Transaction
	currents atomic.Int64 // Current() calls
}

// newFakeStore holds its relations as a fresh node's store does (FreshRep,
// paged), so the unit tests run on what production runs on.
func newFakeStore(rels ...string) *fakeStore {
	return &fakeStore{eng: core.NewEngine(database.New(FreshRep, rels...))}
}

func (f *fakeStore) SubmitTagged(txs []core.Transaction, futs []*session.Future) {
	cp := make([]core.Transaction, len(txs))
	copy(cp, txs)
	f.batches = append(f.batches, cp)
	f.eng.SubmitBatch(txs, futs)
}

func (f *fakeStore) Lanes() int           { return 1 }
func (f *fakeStore) Durable() bool        { return false }
func (f *fakeStore) Barrier()             { f.eng.Barrier() }
func (f *fakeStore) DurabilityErr() error { return nil }
func (f *fakeStore) Version() int64       { return f.eng.Version() }
func (f *fakeStore) ReadStamped(tx core.Transaction) *session.Future {
	return f.eng.ReadStamped(tx)
}
func (f *fakeStore) Current() *database.Database {
	f.currents.Add(1)
	return f.eng.Current()
}
func (f *fakeStore) VersionAt(int64) (*database.Database, error) {
	return nil, errors.New("fake store keeps no history")
}
func (f *fakeStore) SubscribeLog(int64, func(int64, int64, reqtrace.Ctx, byte, []byte)) (func(), error) {
	return func() {}, nil
}
func (f *fakeStore) TraceRecorder() *reqtrace.Recorder { return nil }
func (f *fakeStore) MetricsSnapshot() metrics.Snapshot { return metrics.Snapshot{} }

// submitOne admits a single pre-tagged transaction into sub.
func submitOne(sub session.Submitter, tx core.Transaction) *session.Future {
	var fut [1]*session.Future
	sub.SubmitTagged([]core.Transaction{tx}, fut[:])
	return fut[0]
}

// threeNode builds a node 0 of a fictitious 3-node cluster whose peers
// are never dialed (tests stay on the local path).
func threeNode(t *testing.T, rels ...string) (*Node, *fakeStore) {
	t.Helper()
	fs := newFakeStore(rels...)
	n, err := New(Config{
		ID:    0,
		Addrs: []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
		Store: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n, fs
}

func TestOwnedRelationsPartition(t *testing.T) {
	rels := []string{"R", "S", "T", "U", "V", "W", "N0", "N1"}
	seen := map[string]int{}
	for id := 0; id < 3; id++ {
		for _, rel := range OwnedRelations(rels, id, 3) {
			if owner, dup := seen[rel]; dup {
				t.Fatalf("%q owned by both %d and %d", rel, owner, id)
			}
			seen[rel] = id
			if OwnerIndex(rel, 3) != id {
				t.Fatalf("OwnedRelations disagrees with OwnerIndex for %q", rel)
			}
		}
	}
	if len(seen) != len(rels) {
		t.Fatalf("partition covers %d of %d relations", len(seen), len(rels))
	}
}

// TestLocalRunsBatchTogether: consecutive same-owner statements reach
// the store as one batch — the router must not break up a local run.
func TestLocalRunsBatchTogether(t *testing.T) {
	// S, U, V all hash to node 0 of 3.
	n, fs := threeNode(t, "S", "U", "V")
	sess := n.Session("c0")
	resps, err := sess.ExecBatch([]string{
		`insert (1, "a") into S`,
		`insert (2, "b") into U`,
		"count V",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("stmt %d: %v", i, r.Err)
		}
	}
	if len(fs.batches) != 1 || len(fs.batches[0]) != 3 {
		t.Fatalf("expected one 3-statement local batch, got %d batches", len(fs.batches))
	}
	if got := resps[2].Tag(); got != "c0#2" {
		t.Fatalf("tags drifted through the router: %s", got)
	}
}

// TestCustomTransactionRouting: a custom transaction confined to local
// relations runs; one spanning owners (or owned elsewhere — a closure
// cannot be forwarded) resolves with the deferred-coordination error.
func TestCustomTransactionRouting(t *testing.T) {
	n, _ := threeNode(t, "S", "U")
	local := core.Custom(nil, []string{"S"}, nil)
	if got := n.routeOf(local); got != 0 {
		t.Fatalf("local custom routed to %d", got)
	}
	// R hashes to node 1: a local+remote read set cannot be coordinated.
	spanning := core.Custom(nil, []string{"S", "R"}, nil)
	if got := n.routeOf(spanning); got != -1 {
		t.Fatalf("spanning custom routed to %d, want -1", got)
	}
	remote := core.Custom(nil, []string{"R"}, nil)
	if got := n.routeOf(remote); got != -1 {
		t.Fatalf("remote custom routed to %d, want -1 (closures have no wire form)", got)
	}

	if resp := submitOne(n, spanning).Force(); resp.Err == nil {
		t.Fatal("spanning custom transaction admitted")
	}
}

// TestForwardWithoutQueryText: a constructed (non-symbolic) transaction
// for a remote owner resolves with a clear error instead of crossing the
// wire half-described.
func TestForwardWithoutQueryText(t *testing.T) {
	n, _ := threeNode(t, "S")
	tx := core.Insert("R", value.NewTuple(value.Int(1), value.Str("a"))) // R is node 1's; no Query text
	tx.Origin, tx.Seq = "c0", 0
	resp := submitOne(n, tx).Force()
	if resp.Err == nil || resp.Origin != "c0" {
		t.Fatalf("expected tagged no-wire-form error, got %+v", resp)
	}
}

// TestForwardReportsRefusedHandshake: a peer that refuses the gateway's
// Hello — here with the reason a server of another protocol version gives
// — fails the forward with that reason.
func TestForwardReportsRefusedHandshake(t *testing.T) {
	const refusal = "wire: protocol version 7 not supported"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if typ, _, err := wire.NewReader(conn).Next(); err == nil && typ == wire.FrameHello {
				wire.WriteFrame(conn, wire.FrameError, wire.AppendErrorMsg(nil, 0, -1, refusal))
			}
			conn.Close()
		}
	}()
	n, err := New(Config{ID: 0, Addrs: []string{"127.0.0.1:1", ln.Addr().String()}, Store: newFakeStore()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	rel := "R"
	for OwnerIndex(rel, 2) != 1 {
		rel += "x"
	}
	resp, err := n.Session("c0").Exec(`insert (1, "a") into ` + rel)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == nil || !strings.Contains(resp.Err.Error(), refusal) {
		t.Fatalf("forward to a peer refusing the handshake answered %v, want the refusal %q", resp.Err, refusal)
	}
}
