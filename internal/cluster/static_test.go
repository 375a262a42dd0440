package cluster_test

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"funcdb/client"
	"funcdb/internal/wire"
)

// handshake dials addr and completes the Hello/Welcome exchange.
func handshake(t *testing.T, addr string) (net.Conn, *wire.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := wire.WriteFrame(conn, wire.FrameHello, wire.AppendHello(nil, wire.Hello{Origin: "probe"})); err != nil {
		t.Fatal(err)
	}
	rd := wire.NewReader(bufio.NewReader(conn))
	if typ, _, err := rd.Next(); err != nil || typ != wire.FrameWelcome {
		t.Fatalf("handshake with %s: frame %#x, %v", addr, typ, err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	return conn, rd
}

// TestStaticClusterSlotTable pins what a cluster without Failover serves:
// slot s belongs to node s in epoch 0 from boot, no node serves a foreign
// slot's log, a gateway's forward is accepted by the owner, and a
// heartbeat is refused.
func TestStaticClusterSlotTable(t *testing.T) {
	tc := startCluster(t, 3, clusterRels)
	for id, node := range tc.nodes {
		start := time.Now()
		if err := node.WaitReady(0); err != nil || time.Since(start) > time.Second {
			t.Fatalf("node %d: WaitReady(0) = %v after %v", id, err, time.Since(start))
		}
		for s := range tc.nodes {
			owner, epoch, here := node.FailoverInfo(s)
			if owner != s || epoch != 0 || here != (s == id) {
				t.Fatalf("node %d: FailoverInfo(%d) = (%d, %d, %v), want (%d, 0, %v)", id, s, owner, epoch, here, s, s == id)
			}
		}
	}

	// Node 0 serves only slot 0's log.
	conn, rd := handshake(t, tc.addrs[0])
	if err := wire.WriteFrame(conn, wire.FrameSubscribe, wire.AppendSubscribe(nil, 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if typ, payload, err := rd.Next(); err != nil || typ != wire.FrameError {
		t.Fatalf("subscribe to a foreign slot: frame %#x, %v", typ, err)
	} else if _, _, msg, _ := wire.DecodeErrorMsg(payload); msg == "" {
		t.Fatal("subscribe to a foreign slot refused without a reason")
	}

	// A plain client at node 0 writes a relation node 1 owns: node 0
	// forwards it, and node 1 accepts the forward.
	rel := relOwnedBy(t, tc, 1)
	c, err := client.Dial(tc.addrs[0], client.WithOrigin("c0"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Exec(`insert (7, "v") into ` + rel); err != nil || resp.Err != nil {
		t.Fatalf("insert through the gateway: %v / %v", err, resp.Err)
	}
	if resp, err := tc.nodes[1].Store().Exec("find 7 in " + rel); err != nil || !resp.Found {
		t.Fatalf("the owner does not hold the forwarded insert: %+v, %v", resp, err)
	}

	// A heartbeat gets no ack: the connection closes.
	conn, rd = handshake(t, tc.addrs[1])
	hb := wire.Heartbeat{From: 0, Epochs: make([]uint64, 3), Owners: []int{0, 1, 2}, Applied: make([]int64, 3), Bases: make([]int64, 3)}
	if err := wire.WriteFrame(conn, wire.FrameHeartbeat, wire.AppendHeartbeat(nil, hb)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := rd.Next(); err == nil {
		t.Fatalf("a static node answered a heartbeat with frame %#x", typ)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("a static node kept the heartbeat connection open")
	}
}

// TestCrossRelationParallelismAcrossOwners: pipelined writes to one
// owner's relation do not hold up a read of another owner's. Both
// clients enter at the third node, so its forwards to the two owners
// share one gateway; a count on node 1's relation answers 0 while 200
// inserts into node 0's are in flight, and every insert lands.
func TestCrossRelationParallelismAcrossOwners(t *testing.T) {
	tc := startCluster(t, 3, clusterRels)
	relA, relB := relOwnedBy(t, tc, 0), relOwnedBy(t, tc, 1)
	ca, err := client.Dial(tc.addrs[2], client.WithOrigin("a"))
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := client.Dial(tc.addrs[2], client.WithOrigin("b"))
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	pending := make([]*client.Pending, 200)
	for i := range pending {
		if pending[i], err = ca.ExecAsync(fmt.Sprintf("insert %d into %s", i, relA)); err != nil {
			t.Fatal(err)
		}
	}
	if resp, err := cb.Exec("count " + relB); err != nil || resp.Err != nil || resp.Count != 0 {
		t.Fatalf("count %s = %+v, %v", relB, resp, err)
	}
	for i, p := range pending {
		if resp, err := p.Force(); err != nil || resp.Err != nil {
			t.Fatalf("insert %d: %v / %v", i, err, resp.Err)
		}
	}
	if resp, err := tc.nodes[0].Store().Exec("count " + relA); err != nil || resp.Count != 200 {
		t.Fatalf("count %s on its owner = %+v, %v; want 200", relA, resp, err)
	}
}
