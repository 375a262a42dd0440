package client

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/query"
	"funcdb/internal/value"
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
	return cannedConn(t, &stream, io.Discard)
}

// cannedNet is a net.Conn over a reader and a writer; the methods it does
// not override are never called.
type cannedNet struct {
	net.Conn
	r io.Reader
	w io.Writer
}

func (c cannedNet) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c cannedNet) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c cannedNet) Close() error                { return nil }

// cannedConn is a Client whose connection answers the handshake with a
// Welcome, then replays stream's frames, and writes the Hello and every
// request to sent: no server.
func cannedConn(t *testing.T, stream io.Reader, sent io.Writer) *Client {
	t.Helper()
	var welcome bytes.Buffer
	if err := wire.WriteFrame(&welcome, wire.FrameWelcome, wire.AppendWelcome(nil, wire.Welcome{Lanes: 1, Origin: "c"})); err != nil {
		t.Fatal(err)
	}
	conn, _, err := wire.NewConn(cannedNet{r: io.MultiReader(&welcome, stream), w: sent}, wire.Hello{})
	if err != nil {
		t.Fatal(err)
	}
	return &Client{conn: conn}
}

// parked counts the replies c's connection read ahead of their callers:
// wire.Conn keeps its reorder map to itself.
func parked(c *Client) int {
	return reflect.ValueOf(c.conn).Elem().FieldByName("parked").Len()
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
	cc.conns["deposed:1"] = cannedConn(t, &stream, io.Discard)
	if _, err := cc.Exec("count R"); err == nil || !strings.Contains(err.Error(), "cluster: fenced") {
		t.Fatalf("Exec against a fenced node: %v, want the fencing error", err)
	}
	if addr, known := cc.guess("R"); known {
		t.Fatalf("a fenced reply taught the placement R -> %s", addr)
	}
}

// TestStmtSendsTextUntilHeld: a Stmt's first request carries the text
// beside the hash and later ones the hash alone; after an
// unknown-statement refusal the one re-send carries the text again; a
// batch's text rides on its first statement only; and a wrong argument
// count fails locally, writing nothing and drawing no request id.
func TestStmtSendsTextUntilHeld(t *testing.T) {
	var replies bytes.Buffer
	frame := func(typ byte, payload []byte, err error) {
		t.Helper()
		if err == nil {
			err = wire.WriteFrame(&replies, typ, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	found := func(id uint64) {
		t.Helper()
		payload, err := wire.AppendSingleResponse(nil, id, core.Response{Origin: "c", Seq: int(id), Kind: core.KindFind, Found: true})
		frame(wire.FrameResponse, payload, err)
	}
	found(0)
	found(1)
	frame(wire.FrameError, wire.AppendErrorMsg(nil, 2, 0, query.ErrUnknownStmt.Error()), nil)
	found(3)
	batch, err := wire.AppendResponses(nil, 4, []core.Response{{Origin: "c", Seq: 4, Kind: core.KindInsert}, {Origin: "c", Seq: 5, Kind: core.KindInsert}})
	frame(wire.FrameBatchResponse, batch, err)
	found(5)

	var sent bytes.Buffer
	c := cannedConn(t, &replies, &sent)
	sent.Reset() // the Hello
	find := c.Prepare("find ? in R")
	for i := int64(1); i <= 3; i++ {
		if resp, err := find.Exec(value.Int(i)); err != nil || !resp.Found {
			t.Fatalf("exec %d: %+v, %v", i, resp, err)
		}
	}
	insert := c.Prepare("insert (?, ?) into R")
	if _, err := insert.ExecBatch(
		[]value.Item{value.Int(1), value.Str("a")},
		[]value.Item{value.Int(2), value.Str("b")}); err != nil {
		t.Fatal(err)
	}
	before := sent.Len()
	if _, err := find.Exec(); err == nil || !strings.Contains(err.Error(), "has 1 parameters, got 0") {
		t.Fatalf("exec without its argument: %v, want a local arity error", err)
	}
	if sent.Len() != before {
		t.Fatalf("a local arity failure wrote %d bytes", sent.Len()-before)
	}
	// Nor did it draw a request id: the next execution is request 5.
	if resp, err := find.Exec(value.Int(4)); err != nil || !resp.Found {
		t.Fatalf("exec after the arity failure: %+v, %v", resp, err)
	}

	// Request id → which of its statements carried the text.
	want := [][]bool{{true}, {false}, {false}, {true}, {true, false}, {false}}
	rd := wire.NewReader(&sent)
	for id, withText := range want {
		typ, payload, err := rd.Next()
		if err != nil || typ != wire.FrameRequest {
			t.Fatalf("request %d: frame %#x, %v", id, typ, err)
		}
		var req wire.Request
		if err := wire.DecodeRequestInto(payload, &req); err != nil || req.ID != uint64(id) || len(req.Stmts) != len(withText) {
			t.Fatalf("request %d: %+v, %v", id, req, err)
		}
		for i, st := range req.Stmts {
			text := find.Query()
			if id == 4 {
				text = insert.Query()
			}
			if st.Hash != query.HashText(text) || st.HasText != withText[i] || (st.HasText && st.Text != text) {
				t.Errorf("request %d statement %d = %+v, want hash of %q, text %v", id, i, st, text, withText[i])
			}
		}
	}
	if _, _, err := rd.Next(); err != io.EOF {
		t.Fatalf("more than %d requests written: %v", len(want), err)
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
		r, err := c.conn.Await(id, nil)
		if err != nil || r.Resp.Count != int(id) {
			t.Fatalf("Await(%d) = %+v, %v", id, r.Resp, err)
		}
		id++
	})
	// A count response's one string, its origin tag, is a substring of
	// the reply's one copy.
	if allocs > 1 {
		t.Errorf("recv of the awaited reply = %.1f allocs, want <= 1 (the reply's one copy)", allocs)
	}
	if n := parked(c); n != 0 {
		t.Errorf("%d replies parked by in-order receives", n)
	}
}

// TestRecvOutOfOrderStillMatchesByID: replies to requests other than the
// one awaited wait in the reorder map and are handed out by id.
func TestRecvOutOfOrderStillMatchesByID(t *testing.T) {
	const n = 64
	c := cannedClient(t, n)
	for id := n - 1; id >= 0; id-- {
		r, err := c.conn.Await(uint64(id), nil)
		if err != nil || r.Resp.Count != id || r.Resp.Seq != id {
			t.Fatalf("Await(%d) = %+v, %v", id, r.Resp, err)
		}
		if id > 0 && parked(c) != id {
			t.Fatalf("after awaiting %d the connection parks %d replies, want %d", id, parked(c), id)
		}
	}
	if n := parked(c); n != 0 {
		t.Errorf("%d replies left parked", n)
	}
}
