package client

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/wire"
)

// cannedClient is a Client whose connection is a buffer of n Response
// frames, ids 0..n-1 in order — the receive side alone, no server.
func cannedClient(t *testing.T, n int) *Client {
	t.Helper()
	var stream bytes.Buffer
	for id := 0; id < n; id++ {
		payload, err := wire.AppendSingleResponse(nil, uint64(id), core.Response{Origin: "c", Seq: id, Kind: core.KindCount, Count: id})
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(&stream, wire.FrameResponse, payload); err != nil {
			t.Fatal(err)
		}
	}
	return cannedConn(&stream)
}

// cannedConn is a Client whose connection replays stream's frames and
// discards every request written to it: no server.
func cannedConn(stream io.Reader) *Client {
	return &Client{
		rd:  wire.NewReader(bufio.NewReader(stream)),
		bw:  bufio.NewWriter(io.Discard),
		got: make(map[uint64]arrived),
	}
}

// TestFencedReplyLearnsNoPlacement: an Error reply — here a deposed
// primary's fencing rejection — is no evidence of where a relation is
// served. Learning from it sent every later Exec straight back to the
// deposed node and let ExecBatch group runs on it as the relation's known
// owner.
func TestFencedReplyLearnsNoPlacement(t *testing.T) {
	var stream bytes.Buffer
	fenced := wire.AppendErrorMsg(nil, 0, -1, "cluster: fenced: node 0 is not serving its slot (probation or demoted)")
	if err := wire.WriteFrame(&stream, wire.FrameError, fenced); err != nil {
		t.Fatal(err)
	}
	cc, err := DialCluster([]string{"deposed:1"})
	if err != nil {
		t.Fatal(err)
	}
	cc.conns["deposed:1"] = cannedConn(&stream)
	if _, err := cc.Exec("count R"); err == nil || !strings.Contains(err.Error(), "cluster: fenced") {
		t.Fatalf("Exec against a fenced node: %v, want the fencing error", err)
	}
	if addr, known := cc.guess("R"); known {
		t.Fatalf("a fenced reply taught the placement R -> %s", addr)
	}
}

// TestRecvInOrderAllocGate: the reply being awaited is returned as it is
// decoded. Parking it in the reorder map first boxed every reply of every
// request, to unbox it one loop iteration later.
func TestRecvInOrderAllocGate(t *testing.T) {
	const runs = 200
	c := cannedClient(t, runs+1) // AllocsPerRun warms up with one extra call
	id := uint64(0)
	allocs := testing.AllocsPerRun(runs, func() {
		a, err := c.recv(id)
		if err != nil || a.resp.Count != int(id) {
			t.Fatalf("recv(%d) = %+v, %v", id, a.resp, err)
		}
		id++
	})
	// A count response decodes to one string (its origin tag).
	if allocs > 1 {
		t.Errorf("recv of the awaited reply = %.1f allocs, want <= 1 (the decoded origin)", allocs)
	}
	if len(c.got) != 0 {
		t.Errorf("%d replies parked in the reorder map by in-order receives", len(c.got))
	}
}

// TestRecvOutOfOrderStillMatchesByID: replies to requests other than the
// one awaited wait in the reorder map and are handed out by id.
func TestRecvOutOfOrderStillMatchesByID(t *testing.T) {
	const n = 64
	c := cannedClient(t, n)
	for id := n - 1; id >= 0; id-- {
		a, err := c.recv(uint64(id))
		if err != nil || a.resp.Count != id || a.resp.Seq != id {
			t.Fatalf("recv(%d) = %+v, %v", id, a.resp, err)
		}
		if id > 0 && len(c.got) != id {
			t.Fatalf("after awaiting %d the reorder map holds %d replies, want %d", id, len(c.got), id)
		}
	}
	if len(c.got) != 0 {
		t.Errorf("%d replies left in the reorder map", len(c.got))
	}
}
