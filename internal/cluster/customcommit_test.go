// A custom commit on a primary reaches its mirrors: the archive logs it as
// its effect, a record like any other, so the replication stream keeps
// every version and nothing waits on a version no mirror can apply.
package cluster_test

import (
	"fmt"
	"testing"
	"time"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/cluster"
	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/eval"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// doubleAndDrop is a custom body over relation rel: it doubles the second
// field of every tuple and deletes key 2.
func doubleAndDrop(rel string) core.Transaction {
	return core.Custom(func(ctx *eval.Ctx, db *database.Database, after trace.TaskID) (core.Response, *database.Database, trace.Op) {
		r, _, err := db.Relation(ctx, rel, after)
		if err != nil {
			return core.Response{Err: err}, db, trace.Op{}
		}
		next := db
		for _, tu := range r.Tuples() {
			next, _, _ = next.Insert(ctx, rel, tu.WithField(1, value.Int(2*tu.Field(1).AsInt())), after)
		}
		next, _, _, _ = next.Delete(ctx, rel, value.Int(2), after)
		return core.Response{}, next, trace.Op{}
	}, []string{rel}, []string{rel})
}

// ownerExec runs q on the owner's own store.
func ownerExec(t *testing.T, owner *funcdb.ClusterNode, q string) {
	t.Helper()
	if resp, err := owner.Store().Exec(q); err != nil || resp.Err != nil {
		t.Fatalf("%s: %v / %v", q, err, resp.Err)
	}
}

// TestCustomCommitReachesEveryMirror: on a static cluster, the owner of R
// commits three inserts, a custom transaction on R, and three more
// inserts. Both mirrors of R reach the owner's version, 7, and hold what
// the owner holds.
func TestCustomCommitReachesEveryMirror(t *testing.T) {
	tc := startCluster(t, 3, clusterRels)
	const rel = "R"
	slot := cluster.OwnerIndex(rel, 3)
	owner := tc.nodes[slot]
	for i := 1; i <= 3; i++ {
		ownerExec(t, owner, fmt.Sprintf("insert (%d, %d) into %s", i, 10*i, rel))
	}
	if resp := owner.Store().Submit(doubleAndDrop(rel)).Force(); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	for i := 4; i <= 6; i++ {
		ownerExec(t, owner, fmt.Sprintf("insert (%d, %d) into %s", i, 10*i, rel))
	}
	owner.Store().Barrier()
	want := owner.Store().Current()
	wantRel, _ := want.RelationFast(rel)
	if want.Version() != 7 {
		t.Fatalf("owner at version %d, want 7", want.Version())
	}
	for i, node := range tc.nodes {
		if i == slot {
			continue
		}
		deadline := time.Now().Add(3 * time.Second)
		for node.ReplicaVersion(slot) != want.Version() {
			if time.Now().After(deadline) {
				t.Fatalf("node %d's mirror of R is at version %d of the owner's %d", i, node.ReplicaVersion(slot), want.Version())
			}
			time.Sleep(2 * time.Millisecond)
		}
		cc, err := client.DialCluster([]string{tc.addrs[i]})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cc.ExecReplica("scan " + rel)
		cc.Close()
		if err != nil || resp.Err != nil {
			t.Fatalf("replica scan at node %d: %v / %v", i, err, resp.Err)
		}
		if resp.Version != want.Version() || fmt.Sprint(resp.Tuples) != fmt.Sprint(wantRel.Tuples()) {
			t.Fatalf("node %d's mirror holds %v at version %d; the owner %v at %d", i, resp.Tuples, resp.Version, wantRel.Tuples(), want.Version())
		}
	}
}

// TestCustomCommitKeepsFailoverWritesAcked: on a failover cluster, where
// the owner acks a client's write once a mirror has applied it, a custom
// commit on the owner's own store leaves the writes after it ackable: a
// client's insert into R is acked within 3 s. On failure the nodes are
// killed, not drained, so a write stuck behind the gate cannot hold the
// test up.
func TestCustomCommitKeepsFailoverWritesAcked(t *testing.T) {
	tc := startFailoverCluster(t, foOpts{n: 3})
	const rel = "R"
	slot := cluster.OwnerIndex(rel, 3)
	owner := tc.nodes[slot]
	for i := 1; i <= 3; i++ {
		ownerExec(t, owner, fmt.Sprintf("insert (%d, %d) into %s", i, 10*i, rel))
	}
	if resp := owner.Store().Submit(doubleAndDrop(rel)).Force(); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	cc, err := client.DialCluster(tc.addrs, client.WithClusterOrigin("after-custom"))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	acked := make(chan error, 1)
	go func() {
		resp, err := cc.Exec(fmt.Sprintf("insert (4, 40) into %s", rel))
		if err == nil {
			err = resp.Err
		}
		acked <- err
	}()
	select {
	case err := <-acked:
		if err != nil {
			t.Fatalf("insert after the custom commit: %v", err)
		}
	case <-time.After(3 * time.Second):
		mirrors := ""
		for i, node := range tc.nodes {
			if i != slot {
				mirrors += fmt.Sprintf(" node %d at %d;", i, node.ReplicaVersion(slot))
			}
		}
		for _, node := range tc.nodes {
			node.Kill()
		}
		t.Fatalf("insert after the custom commit not acked within 3 s: owner at %d, mirrors%s", owner.Store().Current().Version(), mirrors)
	}
}
