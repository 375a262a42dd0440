package cluster

import (
	"sync"
	"testing"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/value"
)

// heldStore is a fakeStore whose engine flushes through a hook the test
// holds open: a durable store whose disk has not answered yet.
type heldStore struct {
	*fakeStore
	once             sync.Once
	entered, release chan struct{}
}

// newHeldStore holds its first flush until release is closed.
func newHeldStore(db *database.Database) *heldStore {
	h := &heldStore{entered: make(chan struct{}), release: make(chan struct{})}
	h.fakeStore = &fakeStore{eng: core.NewEngine(db, core.WithCommitObserver(func(core.Commit) {}),
		core.WithCommitFlush(func() error {
			h.once.Do(func() {
				close(h.entered)
				<-h.release
			})
			return nil
		}))}
	return h
}

// replicaReadWaitsForFlush writes key 1 into rel of st, holds the flush
// that makes it durable, and checks that node n's replica read of it does
// not resolve until that flush returns — then answers with the row,
// stamped with the version it read.
func replicaReadWaitsForFlush(t *testing.T, n *Node, st *heldStore, rel string) {
	t.Helper()
	st.eng.Submit(core.Insert(rel, value.NewTuple(value.Int(1), value.Str("v"))))
	<-st.entered
	fut, ok := n.ReplicaRead(core.Find(rel, value.Int(1)))
	if !ok {
		t.Fatalf("node refused a replica read of %s, a slot it serves", rel)
	}
	done := make(chan core.Response, 1)
	go func() { done <- fut.Force() }()
	select {
	case r := <-done:
		close(st.release)
		t.Fatalf("the replica read answered %v while the flush of the version it read was held", r)
	case <-time.After(20 * time.Millisecond):
	}
	close(st.release)
	if r := <-done; r.Err != nil || !r.Found || r.Version != st.Version() {
		t.Fatalf("the replica read answered %+v, want the row at version %d", r, st.Version())
	}
}

// TestReplicaReadOfServedSlotIsGated: a replica read of a slot this node
// serves is read through the store, so its future, like every durable
// store's, resolves only once the version it read is on disk — for the
// node's own slot and for a takeover store's.
func TestReplicaReadOfServedSlotIsGated(t *testing.T) {
	t.Run("own slot", func(t *testing.T) {
		st := newHeldStore(database.New(FreshRep, "S")) // S is slot 0's
		// Static and never started: the node serves slot 0 from boot.
		n, err := New(Config{
			ID:    0,
			Addrs: []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
			Store: st,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		replicaReadWaitsForFlush(t, n, st, "S")
	})
	t.Run("takeover", func(t *testing.T) {
		var takeover *heldStore
		n, err := New(Config{ // never started: no heartbeats, no replication dials
			ID:        0,
			Addrs:     []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
			Store:     newFakeStore(),
			Relations: []string{"R"}, // node 1's
			Failover:  &FailoverConfig{Lease: time.Hour},
			Promote: func(_ int, _ uint64, db *database.Database) (LocalStore, error) {
				takeover = newHeldStore(db)
				return takeover, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		tab := n.slots
		tab.mu.Lock()
		tab.promoteLocked(1, n.mirrorRef(1))
		tab.mu.Unlock()
		if takeover == nil {
			t.Fatal("no takeover store for slot 1")
		}
		replicaReadWaitsForFlush(t, n, takeover, "R")
	})
}
