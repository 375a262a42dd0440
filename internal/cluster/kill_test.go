// Node-failure durability: killing a non-primary node (SIGKILL, a real
// subprocess) mid-workload must leave every acked commit durable on the
// primary's archive. The dead node takes its own relations down with it
// — the primary-copy model has no failover in this PR — but statements
// owned by live nodes keep flowing, and nothing acked is ever lost.
package cluster_test

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/cluster"
)

// TestClusterNodeHelper is the subprocess body: one cluster node serving
// until killed. Gated on the env var so it never runs as a normal test.
func TestClusterNodeHelper(t *testing.T) {
	nodesEnv := os.Getenv("FDB_CLUSTER_NODES")
	if nodesEnv == "" {
		t.Skip("subprocess helper")
	}
	id, err := strconv.Atoi(os.Getenv("FDB_CLUSTER_ID"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := funcdb.ClusterNodeConfig{
		ID:        id,
		Nodes:     strings.Split(nodesEnv, ","),
		Dir:       os.Getenv("FDB_CLUSTER_DIR"),
		Relations: clusterRels,
	}
	// Failover tests run the subprocess with leases on (heartbeat in ms).
	if hbEnv := os.Getenv("FDB_CLUSTER_FAILOVER_MS"); hbEnv != "" {
		hb, err := strconv.Atoi(hbEnv)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Failover = &cluster.FailoverConfig{Heartbeat: time.Duration(hb) * time.Millisecond}
	}
	if gcEnv := os.Getenv("FDB_CLUSTER_GROUP_COMMIT"); gcEnv != "" {
		window, err := time.ParseDuration(gcEnv)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Durability = append(cfg.Durability, funcdb.GroupCommit(window))
	}
	if lanesEnv := os.Getenv("FDB_CLUSTER_LANES"); lanesEnv != "" {
		lanes, err := strconv.Atoi(lanesEnv)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Lanes = lanes
	}
	node, err := funcdb.OpenClusterNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println("cluster-node-ready")
	_ = node.Serve() // runs until SIGKILL
}

// TestKillNonPrimaryDurability: 2 in-process nodes + 1 subprocess node;
// the subprocess (a non-primary for the relation under test) is
// SIGKILLed mid-workload; every insert the client got a response for is
// recoverable from the primary's archive afterwards.
func TestKillNonPrimaryDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	// Reserve three ports: in-process nodes keep their listeners, the
	// subprocess node's is closed for it to rebind (the window is
	// microseconds; loopback listeners rebind instantly).
	lns := make([]net.Listener, 3)
	addrs := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	lns[2].Close()

	primaryDir := t.TempDir()
	nodes := make([]*funcdb.ClusterNode, 2)
	for i := 0; i < 2; i++ {
		dir := primaryDir
		if i != 0 {
			dir = t.TempDir()
		}
		node, err := funcdb.OpenClusterNode(funcdb.ClusterNodeConfig{
			ID: i, Nodes: addrs, Listener: lns[i], Dir: dir,
			Relations: clusterRels,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		go node.Serve()
	}
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Shutdown()
			}
		}
	}()

	cmd := exec.Command(os.Args[0], "-test.run=TestClusterNodeHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"FDB_CLUSTER_NODES="+strings.Join(addrs, ","),
		"FDB_CLUSTER_ID=2",
		"FDB_CLUSTER_DIR="+t.TempDir(),
	)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	waitReachable(t, addrs[2])

	// The workload: inserts into a node-0-owned relation (S), some routed
	// directly by a cluster client, some through node 1 as a gateway, and
	// probes at the doomed node's relation (W) to keep it in play.
	rel := relOwnedBy(t, &testCluster{addrs: addrs}, 0)
	cc, err := client.DialCluster(addrs, client.WithClusterOrigin("cc"))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	gw, err := client.Dial(addrs[1], client.WithOrigin("gw"))
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	doomedRel := relOwnedBy(t, &testCluster{addrs: addrs}, 2)

	acked := 0
	insert := func(ex executor, i int) {
		t.Helper()
		resp, err := ex.Exec(fmt.Sprintf("insert (%d, \"v\") into %s", i, rel))
		if err != nil || resp.Err != nil {
			t.Fatalf("acked path failed at %d: %v / %v", i, err, resp.Err)
		}
		acked++
	}
	const half, total = 40, 80
	for i := 0; i < half; i++ {
		if i%2 == 0 {
			insert(cc, i)
		} else {
			insert(gw, i)
		}
		if i%10 == 0 {
			// Touch the doomed node so its death happens mid-conversation.
			if _, err := cc.Exec(fmt.Sprintf("insert (%d, \"w\") into %s", i, doomedRel)); err != nil {
				t.Fatalf("pre-kill write to node 2 failed: %v", err)
			}
		}
	}

	// Kill the non-primary for rel: a real SIGKILL, no drain, no flush.
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, _ = cmd.Process.Wait()

	for i := half; i < total; i++ {
		if i%2 == 0 {
			insert(cc, i)
		} else {
			insert(gw, i)
		}
		if i%10 == 0 {
			// The dead node's relations fail — as they must — without
			// disturbing the acked path.
			if resp, err := cc.Exec(fmt.Sprintf("insert (%d, \"w\") into %s", i, doomedRel)); err == nil && resp.Err == nil {
				t.Fatal("write to a SIGKILLed node's relation was acked")
			}
		}
	}
	if acked != total {
		t.Fatalf("acked %d inserts, expected %d", acked, total)
	}

	// Drain the primary and reopen its archive cold: every acked insert
	// must have survived.
	if err := nodes[0].Shutdown(); err != nil {
		t.Fatal(err)
	}
	nodes[0] = nil
	reopened, err := funcdb.OpenDir(primaryDir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for i := 0; i < total; i++ {
		resp, err := reopened.Exec(fmt.Sprintf("find %d in %s", i, rel))
		if err != nil || !resp.Found {
			t.Fatalf("acked insert %d missing from the primary's archive (err %v)", i, err)
		}
	}
}

// TestMirrorConvergesWithRestartedOwner: in a 2-node static cluster, node
// 0 — the owner of S, a real subprocess — is SIGKILLed right after its
// writes are acked and restarted on its directory. Its flush wrote every
// acked write before the reply and before the record shipped, so the
// restarted owner has lost nothing, node 1's mirror holds nothing the
// owner lost, and the mirror converges with the owner on the writes that
// follow: the same count and the same keys. Both nodes run
// GroupCommit(5s), a window that would hold the acked writes in memory
// past the kill if replies and records left before the flush.
func TestMirrorConvergesWithRestartedOwner(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	lns[0].Close() // node 0's subprocess binds it

	node1, err := funcdb.OpenClusterNode(funcdb.ClusterNodeConfig{
		ID: 1, Nodes: addrs, Listener: lns[1], Dir: t.TempDir(),
		Relations:  clusterRels,
		Durability: []funcdb.DurabilityOption{funcdb.GroupCommit(5 * time.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}
	go node1.Serve()
	defer node1.Shutdown()

	dir0 := t.TempDir()
	startOwner := func() *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=TestClusterNodeHelper$", "-test.v")
		cmd.Env = append(os.Environ(),
			"FDB_CLUSTER_NODES="+strings.Join(addrs, ","),
			"FDB_CLUSTER_ID=0",
			"FDB_CLUSTER_DIR="+dir0,
			"FDB_CLUSTER_GROUP_COMMIT=5s",
		)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		waitReachable(t, addrs[0])
		return cmd
	}
	owner := startOwner()

	tc := &testCluster{addrs: addrs}
	rel, other := relOwnedBy(t, tc, 0), relOwnedBy(t, tc, 1)
	do := func(cc *client.ClusterClient, q string) funcdb.Response {
		t.Helper()
		resp, err := cc.Exec(q)
		if err != nil || resp.Err != nil {
			t.Fatalf("%s: %v / %v", q, err, resp.Err)
		}
		return resp
	}
	mirrorAt := func(v int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for node1.ReplicaVersion(0) != v {
			if time.Now().After(deadline) {
				t.Fatalf("node 1's mirror of node 0 stuck at %d, want %d", node1.ReplicaVersion(0), v)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	cc, err := client.DialCluster(addrs, client.WithClusterOrigin("before"))
	if err != nil {
		t.Fatal(err)
	}
	// Once the mirror holds a first write, its subscription is live: the
	// writes after it reach the mirror as the owner's log tail.
	do(cc, fmt.Sprintf(`insert (0, "first") into %s`, rel))
	mirrorAt(1)
	do(cc, fmt.Sprintf(`insert (1, "lost-a") into %s`, rel))
	do(cc, fmt.Sprintf(`insert (1, "a") into %s`, other))
	do(cc, fmt.Sprintf(`insert (2, "lost-b") into %s`, rel))
	do(cc, fmt.Sprintf(`insert (2, "b") into %s`, other))
	cc.Close()
	mirrorAt(3)

	if err := owner.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, _ = owner.Process.Wait()
	startOwner()

	cc, err = client.DialCluster(addrs, client.WithClusterOrigin("after"))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for k := 3; k <= 5; k++ {
		do(cc, fmt.Sprintf(`insert (%d, "new") into %s`, k, rel))
	}
	// A client anchored at node 1 reads its mirror of S.
	rd, err := client.DialCluster([]string{addrs[1]}, client.WithClusterOrigin("mirror"))
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	keys := func(r funcdb.Response) []int64 {
		var ks []int64
		for _, tu := range r.Tuples {
			ks = append(ks, tu.Field(0).AsInt())
		}
		return ks
	}
	var ownerKeys, mirrorKeys []int64
	deadline := time.Now().Add(10 * time.Second)
	for {
		ownerKeys = keys(do(cc, "scan "+rel))
		mr, err := rd.ExecReplica("scan " + rel)
		if err != nil {
			t.Fatal(err)
		}
		mirrorKeys = keys(mr)
		if fmt.Sprint(ownerKeys) == fmt.Sprint(mirrorKeys) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mirror never converged: owner holds keys %v (count %d), node 1's mirror %v (count %d)",
				ownerKeys, len(ownerKeys), mirrorKeys, len(mirrorKeys))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := fmt.Sprint(ownerKeys); got != "[0 1 2 3 4 5]" {
		t.Fatalf("restarted owner holds keys %s, want [0 1 2 3 4 5]: an acked write was lost", got)
	}
	if resp, err := rd.ExecReplica("count " + rel); err != nil || resp.Count != 6 {
		t.Fatalf("mirror count %d (%v), want 6", resp.Count, err)
	}
}

// waitReachable polls until addr accepts connections.
func waitReachable(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node at %s never came up", addr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
