package cluster_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"funcdb/client"
	"funcdb/internal/archive"
	"funcdb/internal/cluster"
)

// TestBatchIsOneRunRecord: a 500-statement text ExecBatch through DialCluster,
// every statement into one relation of a 3-node failover cluster, is one run
// on its owner: one record in the owner's log, one LogRecord to each of the
// two mirrors — each applies exactly one record — and both mirrors then hold
// exactly what the owner holds.
func TestBatchIsOneRunRecord(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	tc := startFailoverCluster(t, foOpts{n: 3, dirs: dirs})
	const rel = "R"
	slot := cluster.OwnerIndex(rel, 3)
	owner := tc.nodes[slot]

	cc, err := client.DialCluster(tc.addrs, client.WithClusterOrigin("batch"))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	stmts := make([]string, 500)
	for i := range stmts {
		stmts[i] = fmt.Sprintf("insert (%d, %q) into %s", i*7%300, fmt.Sprintf("v%d", i), rel)
	}
	resps, err := cc.ExecBatch(stmts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("statement %d: %v", i, r.Err)
		}
	}
	owner.Store().Barrier()
	version := owner.Store().Current().Version()
	if version != 500 {
		t.Fatalf("owner at version %d after the batch, want 500", version)
	}
	sum, err := archive.Inspect(dirs[slot])
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sum.Files {
		if strings.HasPrefix(f.Name, "log-") && f.Records != 2 {
			t.Fatalf("the owner's %s holds %d frames, want its header and one record", f.Name, f.Records)
		}
	}

	primary, err := cc.Exec("scan " + rel)
	if err != nil || primary.Err != nil {
		t.Fatalf("scan on the owner: %v / %v", err, primary.Err)
	}
	for id, node := range tc.nodes {
		if id == slot {
			continue
		}
		deadline := time.Now().Add(10 * time.Second)
		for node.ReplicaVersion(slot) != version {
			if time.Now().After(deadline) {
				t.Fatalf("node %d's mirror stuck at %d, the owner at %d", id, node.ReplicaVersion(slot), version)
			}
			time.Sleep(2 * time.Millisecond)
		}
		for _, p := range node.MetricsSnapshot().Peers {
			if p.Peer == slot && p.ReplicaRecords != 1 {
				t.Fatalf("node %d's mirror applied %d records for the batch, want 1", id, p.ReplicaRecords)
			}
		}
		local, err := client.DialCluster(tc.addrs[id:id+1], client.WithClusterOrigin(fmt.Sprintf("replica%d", id)))
		if err != nil {
			t.Fatal(err)
		}
		replica, err := local.ExecReplica("scan " + rel)
		local.Close()
		if err != nil || replica.Err != nil || replica.Version != version {
			t.Fatalf("replica scan on node %d: %v / %v at version %d", id, err, replica.Err, replica.Version)
		}
		if got, want := fmt.Sprint(replica.Tuples), fmt.Sprint(primary.Tuples); got != want {
			t.Fatalf("node %d's mirror holds %d tuples that differ from the owner's %d", id, len(replica.Tuples), len(primary.Tuples))
		}
	}
}
