// Catch-up below a log floor: a mirror whose owner can no longer replay
// its log from the mirror's version — the owner's archive was compacted,
// or the slot was promoted into a takeover store whose log starts at the
// promotion base — is sent the floor's snapshot, installs it, and follows
// the log from there.
package cluster_test

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/archive"
	"funcdb/internal/cluster"
)

// waitReplica polls until node's mirror of slot reaches version want,
// failing after timeout.
func waitReplica(t *testing.T, node *funcdb.ClusterNode, slot int, want int64, timeout time.Duration) {
	t.Helper()
	start := time.Now()
	for node.ReplicaVersion(slot) != want {
		if time.Since(start) > timeout {
			t.Fatalf("node %d's mirror of slot %d at version %d after %v, want %d", node.ID(), slot, node.ReplicaVersion(slot), timeout, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMirrorCatchesUpAfterCompaction: node 0 of a static cluster opens an
// archive of 40 inserts, snapshotted every 8 and then compacted, so its
// log starts at version 40. Its peers' mirrors start at 0: they catch up
// from the snapshot at 40, serve the same rows as the primary, and follow
// the log after it.
func TestMirrorCatchesUpAfterCompaction(t *testing.T) {
	owned := cluster.OwnedRelations(clusterRels, 0, 3)
	rel := owned[0]
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	st, err := funcdb.Open(
		funcdb.WithRelations(owned...),
		funcdb.WithDurability(dirs[0], funcdb.SnapshotEvery(8)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if resp, err := st.Exec(fmt.Sprintf("insert (%d, \"c%d\") into %s", i, i, rel)); err != nil || resp.Err != nil {
			t.Fatalf("insert %d: %v / %v", i, err, resp.Err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := archive.Compact(dirs[0]); err != nil {
		t.Fatal(err)
	}

	tc := startClusterIn(t, dirs, clusterRels)
	for _, peer := range tc.nodes[1:] {
		waitReplica(t, peer, 0, 40, 5*time.Second)
	}
	cc, err := client.DialCluster(tc.addrs, client.WithClusterOrigin("compacted"))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if resp, err := cc.Exec(fmt.Sprintf("insert (40, \"live\") into %s", rel)); err != nil || resp.Err != nil {
		t.Fatalf("live insert: %v / %v", err, resp.Err)
	}
	waitReplica(t, tc.nodes[1], 0, 41, 5*time.Second)
	primary, err := cc.Exec("scan " + rel)
	if err != nil || primary.Err != nil {
		t.Fatalf("scan: %v / %v", err, primary.Err)
	}
	viaMirror, err := client.DialCluster(tc.addrs[1:2], client.WithClusterOrigin("compacted-replica"))
	if err != nil {
		t.Fatal(err)
	}
	defer viaMirror.Close()
	replica, err := viaMirror.ExecReplica("scan " + rel)
	if err != nil || replica.Err != nil || replica.Version != 41 {
		t.Fatalf("replica scan at version %d: %v / %v", replica.Version, err, replica.Err)
	}
	if got, want := fmt.Sprint(replica.Tuples), fmt.Sprint(primary.Tuples); got != want || len(primary.Tuples) != 41 {
		t.Fatalf("the mirror serves %d rows, the primary %d:\n  mirror:  %s\n  primary: %s", len(replica.Tuples), len(primary.Tuples), got, want)
	}
}

// TestMirrorAheadOfLostOwnerResyncs: node 0 of a 2-node static cluster
// loses its disk — it is shut down and reopened on an empty directory —
// while node 1's mirror of it holds three writes. The mirror's
// subscription from version 3 is refused as ahead of the owner's log
// (archive.ErrAheadOfLog): the mirror counts a resync, installs the
// owner's snapshot at version 0 in place of its own version, and follows
// the owner's new writes to the same rows.
func TestMirrorAheadOfLostOwnerResyncs(t *testing.T) {
	tc := startCluster(t, 2, clusterRels)
	rel := relOwnedBy(t, tc, 0)
	insert := func(origin string, keys ...int) {
		t.Helper()
		cc, err := client.DialCluster(tc.addrs, client.WithClusterOrigin(origin))
		if err != nil {
			t.Fatal(err)
		}
		defer cc.Close()
		for _, k := range keys {
			if resp, err := cc.Exec(fmt.Sprintf("insert (%d, \"%s\") into %s", k, origin, rel)); err != nil || resp.Err != nil {
				t.Fatalf("insert %d: %v / %v", k, err, resp.Err)
			}
		}
	}
	insert("lost", 1, 2, 3)
	waitReplica(t, tc.nodes[1], 0, 3, 5*time.Second)

	if err := tc.nodes[0].Shutdown(); err != nil {
		t.Fatal(err)
	}
	tc.nodes[0] = nil
	var ln net.Listener
	var err error
	for deadline := time.Now().Add(5 * time.Second); ; {
		if ln, err = net.Listen("tcp", tc.addrs[0]); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if tc.nodes[0], err = funcdb.OpenClusterNode(funcdb.ClusterNodeConfig{
		ID: 0, Nodes: tc.addrs, Listener: ln, Dir: t.TempDir(), Relations: clusterRels,
	}); err != nil {
		t.Fatal(err)
	}
	go tc.nodes[0].Serve()

	resyncs := func() int64 {
		for _, p := range tc.nodes[1].MetricsSnapshot().Peers {
			if p.Peer == 0 {
				return p.ReplicaResyncs
			}
		}
		return 0
	}
	for deadline := time.Now().Add(5 * time.Second); resyncs() == 0 || tc.nodes[1].ReplicaVersion(0) != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("mirror at version %d after %d resyncs, want the owner's snapshot at 0", tc.nodes[1].ReplicaVersion(0), resyncs())
		}
		time.Sleep(2 * time.Millisecond)
	}
	insert("new", 10, 11)
	waitReplica(t, tc.nodes[1], 0, 2, 5*time.Second)

	cc, err := client.DialCluster(tc.addrs, client.WithClusterOrigin("check"))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	primary, err := cc.Exec("scan " + rel)
	if err != nil || primary.Err != nil {
		t.Fatalf("scan: %v / %v", err, primary.Err)
	}
	viaMirror, err := client.DialCluster(tc.addrs[1:2], client.WithClusterOrigin("check-replica"))
	if err != nil {
		t.Fatal(err)
	}
	defer viaMirror.Close()
	replica, err := viaMirror.ExecReplica("scan " + rel)
	if err != nil || replica.Err != nil {
		t.Fatalf("replica scan: %v / %v", err, replica.Err)
	}
	if got, want := fmt.Sprint(replica.Tuples), fmt.Sprint(primary.Tuples); got != want || len(primary.Tuples) != 2 {
		t.Fatalf("the mirror serves %s, the owner %s", got, want)
	}
	if n := resyncs(); n != 1 {
		t.Fatalf("%d resyncs, want 1", n)
	}
}

// TestRestartBesidePromotedSlot: a node restarted next to a promoted slot
// starts its mirror of the slot at 0, below the takeover store's log
// floor, and catches up through the promotion base's snapshot. Its rows
// are wide, so the snapshot reaches the mirror in several pieces.
func TestRestartBesidePromotedSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("lease-timing test")
	}
	restartBesidePromotedSlot(t, 200, strings.Repeat("w", 1000))
}

// TestRestartBesideLongPromotedSlot is restartBesidePromotedSlot over a
// slot whose history before the promotion is 70 000 versions long: the
// catch-up costs one snapshot of the slot, not its history.
func TestRestartBesideLongPromotedSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("lease-timing test")
	}
	restartBesidePromotedSlot(t, 70000, "v")
}

// restartBesidePromotedSlot writes inserts versions into slot 0 of a
// 3-node failover cluster, in batches of 1 000, each row carrying val,
// then kills node 0. Once a mirror is promoted, the other survivor is shut
// down and reopened on its directory and address. Within 10 s its fresh
// mirror of slot 0 must reach the promotion base — every acked write — and
// a slot-0 write, which the ack gate holds until that mirror acks it, must
// be answered. The promotion base's snapshot must be larger than one
// 64 KiB piece, the most of a snapshot one stream frame carries: the
// mirror joins the pieces before it installs them.
func restartBesidePromotedSlot(t *testing.T, inserts int, val string) {
	o := foOpts{n: 3, hb: 40 * time.Millisecond, dirs: []string{t.TempDir(), t.TempDir(), t.TempDir()}}
	tc := startFailoverCluster(t, o)
	rel := relOwnedBy(t, tc, 0)
	cc, err := client.DialCluster(tc.addrs,
		client.WithClusterOrigin("restart"),
		client.WithFailoverRetry(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for i := 0; i < inserts; i += 1000 {
		batch := make([]string, 0, 1000)
		for k := i; k < inserts && k < i+1000; k++ {
			batch = append(batch, fmt.Sprintf("insert (%d, %q) into %s", k, val, rel))
		}
		resps, err := cc.ExecBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range resps {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}

	tc.nodes[0].Kill()
	winner, epoch := waitPromoted(t, tc, []int{1, 2}, 0, 0, 0)
	other := 3 - winner
	snaps, _ := filepath.Glob(filepath.Join(o.dirs[winner], fmt.Sprintf("takeover-0-e%d", epoch), "snap-*.fdba"))
	if len(snaps) != 1 {
		t.Fatalf("the takeover archive holds snapshots %v, want the promotion base's alone", snaps)
	}
	snap, err := os.Stat(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if snap.Size() <= 64<<10 {
		t.Fatalf("the promotion base's snapshot is %d bytes, want over 64 KiB", snap.Size())
	}
	if err := tc.nodes[other].Shutdown(); err != nil {
		t.Fatal(err)
	}
	tc.nodes[other] = nil
	var ln net.Listener
	for deadline := time.Now().Add(5 * time.Second); ; {
		if ln, err = net.Listen("tcp", tc.addrs[other]); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	restarted := time.Now()
	tc.nodes[other] = openFailoverNode(t, o, other, tc.addrs, ln)
	waitReplica(t, tc.nodes[other], 0, int64(inserts), 10*time.Second)
	t.Logf("restart to caught up at %d versions, from a %d-byte snapshot: %v", inserts, snap.Size(), time.Since(restarted))

	answered := make(chan error, 1)
	go func() {
		resp, err := cc.Exec(fmt.Sprintf("insert (%d, \"after\") into %s", inserts, rel))
		if err == nil {
			err = resp.Err
		}
		answered <- err
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Fatalf("slot-0 write after the restart: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a slot-0 write got no answer in 10s: the restarted mirror never acked it")
	}
	waitReplica(t, tc.nodes[other], 0, int64(inserts)+1, 10*time.Second)
}
