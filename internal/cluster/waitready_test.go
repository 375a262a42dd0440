package cluster

import (
	"testing"
	"time"

	"funcdb/internal/database"
	"funcdb/internal/wire"
)

// TestWaitReadyWakesOnMerge: a node on boot probation sleeps in WaitReady
// until the merge that resolves its probation wakes it — not until a poll
// comes round — and a node that never hears from a majority still times
// out, with the reason.
func TestWaitReadyWakesOnMerge(t *testing.T) {
	n, err := New(Config{ // never started: no heartbeats, no replication dials
		ID:       0,
		Addrs:    []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
		Store:    newFakeStore("S"),
		Failover: &FailoverConfig{Lease: time.Hour},
		Promote: func(int, uint64, *database.Database) (LocalStore, error) {
			t.Error("promotion during a probation test")
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

	start := time.Now()
	err = n.WaitReady(30 * time.Millisecond)
	if err == nil || err.Error() != "cluster: node 0 still in probation after 30ms" {
		t.Fatalf("WaitReady with no peer heard = %v, want the probation timeout", err)
	}
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Fatalf("WaitReady gave up after %v, before its 30ms", waited)
	}

	done := make(chan error, 1)
	go func() { done <- n.WaitReady(time.Minute) }()
	time.Sleep(10 * time.Millisecond)
	merged := time.Now()
	tab.merge(wire.Heartbeat{From: 1, Epochs: make([]uint64, 3), Owners: []int{0, 1, 2}, Bases: make([]int64, 3), Applied: make([]int64, 3)})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		if woke := time.Since(merged); woke > time.Second {
			t.Fatalf("WaitReady returned %v after the merge that resolved probation", woke)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitReady slept through the merge that resolved probation")
	}
	if _, _, serving := n.FailoverInfo(0); !serving {
		t.Fatal("probation resolved, but the node does not serve its slot")
	}
}

// TestFailoverConfigDefaults pins how a node reads its FailoverConfig:
// the zero SyncReplicas means the default gate of one mirror, only a
// negative value turns the gate off, and the gate never asks for more
// mirrors than the cluster has peers.
func TestFailoverConfigDefaults(t *testing.T) {
	for _, c := range []struct {
		sync, size, want int
	}{
		{0, 3, 1},
		{-1, 3, -1},
		{1, 3, 1},
		{2, 3, 2},
		{5, 3, 2},
		{0, 1, 0},
		{-1, 1, -1},
	} {
		got := FailoverConfig{SyncReplicas: c.sync}.withDefaults(c.size)
		if got.SyncReplicas != c.want {
			t.Errorf("SyncReplicas %d on %d nodes: got %d, want %d", c.sync, c.size, got.SyncReplicas, c.want)
		}
	}
	got := FailoverConfig{}.withDefaults(3)
	if got.Heartbeat != defaultHeartbeat || got.Lease != 4*defaultHeartbeat {
		t.Errorf("zero config: heartbeat %v lease %v, want %v and 4x", got.Heartbeat, got.Lease, defaultHeartbeat)
	}
	if got := (FailoverConfig{Heartbeat: time.Second, Lease: time.Minute}).withDefaults(3); got.Heartbeat != time.Second || got.Lease != time.Minute {
		t.Errorf("explicit timings overridden: %+v", got)
	}
}
