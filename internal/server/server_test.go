package server_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/query"
	"funcdb/internal/reqtrace"
	"funcdb/internal/server"
	"funcdb/internal/value"
	"funcdb/internal/wire"
)

// startServer spins a server over store on a loopback port and tears it
// down with the test.
func startServer(t testing.TB, store *funcdb.Store) *server.Server {
	t.Helper()
	srv := server.New(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Shutdown() })
	return srv
}

func TestExecOverWire(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	srv := startServer(t, store)

	c, err := client.Dial(srv.Addr().String(), client.WithOrigin("c0"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Origin() != "c0" || c.Lanes() != store.Lanes() || c.Durable() {
		t.Fatalf("welcome metadata: origin %q lanes %d durable %v", c.Origin(), c.Lanes(), c.Durable())
	}

	resp, err := c.Exec(`insert (1, "widget") into R`)
	if err != nil || resp.Err != nil {
		t.Fatalf("insert: %v / %v", err, resp.Err)
	}
	if resp.Tag() != "c0#0" {
		t.Errorf("tag = %s, want c0#0", resp.Tag())
	}
	resp, err = c.Exec("find 1 in R")
	if err != nil || !resp.Found {
		t.Fatalf("find: %v / %+v", err, resp)
	}
	// Operation-level errors arrive inside the response.
	resp, err = c.Exec("find 1 in NOPE")
	if err != nil || resp.Err == nil {
		t.Fatalf("unknown relation: %v / %+v", err, resp)
	}
	// Translation errors arrive as call errors.
	if _, err := c.Exec("not a query"); err == nil {
		t.Error("parse error not surfaced")
	}
}

func TestPipelinedRequestsAnswerInOrder(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	srv := startServer(t, store)
	c, err := client.Dial(srv.Addr().String(), client.WithOrigin("p"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Fire a pipeline without forcing anything, then force out of order:
	// request ids make the responses land correctly anyway.
	var pend []*client.Pending
	for i := 0; i < 32; i++ {
		p, err := c.ExecAsync(fmt.Sprintf("insert (%d, \"v\") into R", i))
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	tail, err := c.ExecAsync("count R")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tail.Force() // force the LAST first
	if err != nil || resp.Count != 32 {
		t.Fatalf("pipelined count: %v / %+v", err, resp)
	}
	for i := len(pend) - 1; i >= 0; i-- {
		resp, err := pend[i].Force()
		if err != nil || resp.Err != nil {
			t.Fatalf("pipelined insert %d: %v / %v", i, err, resp.Err)
		}
		if resp.Seq != i {
			t.Errorf("insert %d answered with seq %d", i, resp.Seq)
		}
	}
}

func TestBatchErrorIndexOverWire(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	srv := startServer(t, store)
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	qs := []string{"count R", "garbage here", "count R"}
	_, err = c.ExecBatch(qs)
	if err == nil {
		t.Fatal("bad batch accepted over the wire")
	}
	var be *funcdb.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("wire batch error is %T, want *funcdb.BatchError", err)
	}
	if be.Index != 1 || be.Query != "garbage here" {
		t.Errorf("BatchError = %+v", be)
	}
	// Nothing was admitted, and the error text matches the in-process one.
	local := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer local.Close()
	_, lerr := local.ExecBatch(qs)
	if lerr == nil || lerr.Error() != err.Error() {
		t.Errorf("error text differs: wire %q vs local %q", err, lerr)
	}
	store.Barrier()
	if got := store.Current().TotalTuples(); got != 0 {
		t.Errorf("failed batch admitted %d writes", got)
	}
}

// TestReplyShapeFollowsStatementCount: one statement is answered by a
// Response and any other count by a BatchResponse, so every batch API
// accepts a one-statement Response, and an empty batch never reaches the
// wire. A zero-statement request, tagged or not, is answered by an empty
// BatchResponse without touching routing (which needs a first statement).
func TestReplyShapeFollowsStatementCount(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	srv := startServer(t, store)
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if resps, err := c.ExecBatch([]string{`insert (1, "a") into R`}); err != nil || len(resps) != 1 || resps[0].Err != nil {
		t.Fatalf("one-statement ExecBatch: %+v, %v", resps, err)
	}
	find := c.Prepare("find ? in R")
	if resps, err := find.ExecBatch([]funcdb.Item{funcdb.Int(1)}); err != nil || len(resps) != 1 || !resps[0].Found {
		t.Fatalf("one-statement Stmt.ExecBatch: %+v, %v", resps, err)
	}
	before, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	cc, err := client.DialCluster([]string{"127.0.0.1:1"}) // a send would fail to dial
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for name, batch := range map[string]func() ([]funcdb.Response, error){
		"Client":        func() ([]funcdb.Response, error) { return c.ExecBatch(nil) },
		"Stmt":          func() ([]funcdb.Response, error) { return find.ExecBatch() },
		"ClusterClient": func() ([]funcdb.Response, error) { return cc.ExecBatch(nil) },
	} {
		if resps, err := batch(); err != nil || resps == nil || len(resps) != 0 {
			t.Errorf("empty %s.ExecBatch = %+v, %v; want an empty result", name, resps, err)
		}
	}
	after, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Server.Execs != before.Server.Execs || after.Server.Batches != before.Server.Batches {
		t.Errorf("empty batches reached the server: execs %d -> %d, batches %d -> %d",
			before.Server.Execs, after.Server.Execs, before.Server.Batches, after.Server.Batches)
	}

	conn, rd := rawDial(t, srv.Addr().String(), wire.AppendHello(nil, wire.Hello{Origin: "raw"}))
	if typ, _, err := rd.Next(); err != nil || typ != wire.FrameWelcome {
		t.Fatalf("handshake: frame %#x, %v", typ, err)
	}
	for _, flags := range []byte{0, wire.FwdTagged | wire.FwdNoForward} {
		payload, err := wire.AppendRequest(nil, 5, flags, 0, nil)
		if err == nil {
			err = wire.WriteFrame(conn, wire.FrameRequest, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		typ, payload, err := rd.Next()
		if err != nil || typ != wire.FrameBatchResponse {
			t.Fatalf("empty request (flags %#x) answered with frame %#x, %v", flags, typ, err)
		}
		if id, resps, err := wire.DecodeResponses(payload); err != nil || id != 5 || len(resps) != 0 {
			t.Fatalf("empty request (flags %#x): id %d, %d responses, %v", flags, id, len(resps), err)
		}
	}
}

// TestDrainMakesAckedCommitsDurable: every response a client received is
// on disk after Shutdown — verified by recovery.
func TestDrainMakesAckedCommitsDurable(t *testing.T) {
	dir := t.TempDir()
	store, err := funcdb.Open(
		funcdb.WithRelations("R"),
		funcdb.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()

	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		resp, err := c.Exec(fmt.Sprintf("insert (%d, \"v\") into R", i))
		if err != nil || resp.Err != nil {
			t.Fatalf("insert %d: %v / %v", i, err, resp.Err)
		}
	}
	// All n are acked. Drain and close.
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := funcdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Current().TotalTuples(); got != n {
		t.Fatalf("recovered %d tuples, want %d", got, n)
	}
}

// TestServerRefusesGarbageConnection: a peer that never says Hello is
// dropped without admitting anything.
func TestServerRefusesGarbageConnection(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	srv := startServer(t, store)

	// A Dial that skips the handshake: raw TCP write of junk.
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	// The server is still healthy for the next well-behaved client.
	c2, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if resp, err := c2.Exec("count R"); err != nil || resp.Err != nil {
		t.Fatalf("healthy client after quit: %v / %v", err, resp.Err)
	}
}

// TestMultiStoreHosting: one listener, many stores. Connections bind to
// a store by the Hello database field; the default database keeps
// pre-protocol-v2 semantics, and an unknown name is refused at the
// handshake.
func TestMultiStoreHosting(t *testing.T) {
	main := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer main.Close()
	aux := funcdb.MustOpen(funcdb.WithRelations("A"))
	defer aux.Close()

	srv := server.NewMulti(map[string]server.Host{"main": main, "aux": aux})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Shutdown()

	cm, err := client.Dial(srv.Addr().String(), client.WithOrigin("c0"))
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()
	if cm.Database() != "main" {
		t.Fatalf("default connection bound to %q", cm.Database())
	}
	ca, err := client.Dial(srv.Addr().String(), client.WithOrigin("c0"), client.WithDatabase("aux"))
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	if ca.Database() != "aux" {
		t.Fatalf("aux connection bound to %q", ca.Database())
	}

	if _, err := cm.Exec(`insert (1, "m") into R`); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Exec(`insert (1, "a") into A`); err != nil {
		t.Fatal(err)
	}
	// Each connection sees only its own store's relations.
	if resp, err := ca.Exec("count R"); err != nil || resp.Err == nil {
		t.Fatalf("aux connection reached main's relation: %+v, %v", resp, err)
	}
	if resp, err := cm.Exec("count R"); err != nil || resp.Err != nil || resp.Count != 1 {
		t.Fatalf("main count R: %+v, %v", resp, err)
	}
	main.Barrier()
	aux.Barrier()
	if n := aux.Current().TotalTuples(); n != 1 {
		t.Fatalf("aux store has %d tuples, want 1", n)
	}

	// Unknown database: handshake refused with a clear error.
	if _, err := client.Dial(srv.Addr().String(), client.WithDatabase("nope")); err == nil {
		t.Fatal("dial of unknown database succeeded")
	}
}

// rawDial opens a bare connection and sends one framed Hello payload,
// returning the connection and a reader over its replies.
func rawDial(t *testing.T, addr string, hello []byte) (net.Conn, *wire.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteFrame(conn, wire.FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	return conn, wire.NewReader(conn)
}

// TestHandshakeRefusesOtherVersions: a Hello from another protocol
// revision is answered with the reason — the pre-session FrameError —
// rather than a silent close.
func TestHandshakeRefusesOtherVersions(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	srv := startServer(t, store)

	v5 := append([]byte(wire.Magic), 5)
	v5 = value.AppendString(v5, "old-client")
	v5 = value.AppendString(v5, "")
	_, rd := rawDial(t, srv.Addr().String(), v5)
	typ, payload, err := rd.Next()
	if err != nil || typ != wire.FrameError {
		t.Fatalf("version-5 hello answered with frame %#x, %v", typ, err)
	}
	id, index, msg, err := wire.DecodeErrorMsg(payload)
	if err != nil || id != 0 || index != -1 || msg != "wire: protocol version 5 not supported" {
		t.Fatalf("refusal = (%d, %d, %q), %v", id, index, msg, err)
	}
	if _, _, err := rd.Next(); err != io.EOF {
		t.Fatalf("connection still open after the refusal: %v", err)
	}
}

// TestTraceCtxMustAnnotateARequest: a TraceCtx frame applies to the
// request right behind it; followed by anything else it is a protocol
// error and the connection closes.
func TestTraceCtxMustAnnotateARequest(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	srv := startServer(t, store)

	conn, rd := rawDial(t, srv.Addr().String(), wire.AppendHello(nil, wire.Hello{Origin: "raw"}))
	if typ, _, err := rd.Next(); err != nil || typ != wire.FrameWelcome {
		t.Fatalf("handshake: frame %#x, %v", typ, err)
	}
	ctx := reqtrace.Ctx{ID: 42, Sampled: true}
	send := func(typ byte, payload []byte) {
		t.Helper()
		frames := wire.AppendTraceFrame(nil, ctx)
		frames, err := wire.AppendFrame(frames, typ, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frames); err != nil {
			t.Fatal(err)
		}
	}

	count, err := wire.AppendRequest(nil, 1, 0, 0, []wire.Stmt{{Text: "count R", HasText: true}})
	if err != nil {
		t.Fatal(err)
	}
	send(wire.FrameRequest, count)
	typ, payload, err := rd.Next()
	if err != nil || typ != wire.FrameResponse {
		t.Fatalf("traced request answered with frame %#x, %v", typ, err)
	}
	if id, resp, err := wire.DecodeSingleResponse(payload); err != nil || id != 1 || resp.Err != nil {
		t.Fatalf("traced request: id %d, %+v, %v", id, resp, err)
	}

	send(wire.FrameIntrospect, wire.AppendIntrospect(nil, 2, wire.IntrospectStats))
	if typ, _, err := rd.Next(); err != io.EOF {
		t.Fatalf("trace context on an introspect frame answered with frame %#x, %v; want the connection closed", typ, err)
	}
}

// TestRequestRefusesMismatchedHash: a statement carrying both text and a
// hash must carry the text's own hash. One that does not is refused with
// an Error frame naming its index, nothing of the request is admitted, and
// the text is cached under neither name — so the sender cannot come away
// believing the server holds a hash it never heard of.
func TestRequestRefusesMismatchedHash(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	srv := startServer(t, store)

	conn, rd := rawDial(t, srv.Addr().String(), wire.AppendHello(nil, wire.Hello{Origin: "raw"}))
	if typ, _, err := rd.Next(); err != nil || typ != wire.FrameWelcome {
		t.Fatalf("handshake: frame %#x, %v", typ, err)
	}
	send := func(id uint64, stmts ...wire.Stmt) (byte, []byte) {
		t.Helper()
		payload, err := wire.AppendRequest(nil, id, 0, 0, stmts)
		if err == nil {
			err = wire.WriteFrame(conn, wire.FrameRequest, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		typ, reply, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		return typ, reply
	}
	wantError := func(typ byte, reply []byte, wantID uint64, wantIndex int, wantMsg string) {
		t.Helper()
		if typ != wire.FrameError {
			t.Fatalf("request %d answered with frame %#x, want an Error", wantID, typ)
		}
		id, index, msg, err := wire.DecodeErrorMsg(reply)
		if err != nil || id != wantID || index != wantIndex || !strings.Contains(msg, wantMsg) {
			t.Fatalf("request %d refused as (%d, %d, %q), %v; want index %d and %q", wantID, id, index, msg, err, wantIndex, wantMsg)
		}
	}

	const find = "find ? in R"
	bogus := query.HashText(find) + 1
	args := []value.Item{value.Int(1)}
	typ, reply := send(1,
		wire.Stmt{Text: `insert (1, "a") into R`, HasText: true},
		wire.Stmt{Hash: bogus, Text: find, HasText: true, Args: args})
	wantError(typ, reply, 1, 1, "does not match its text")

	// Neither the claimed hash nor the text's own hash resolves.
	for i, h := range []uint64{bogus, query.HashText(find)} {
		typ, reply = send(uint64(2+i), wire.Stmt{Hash: h, Args: args})
		wantError(typ, reply, uint64(2+i), 0, query.ErrUnknownStmt.Error())
	}
	// The request was all or nothing: its valid insert was not admitted.
	typ, reply = send(4, wire.Stmt{Text: "count R", HasText: true})
	if typ != wire.FrameResponse {
		t.Fatalf("count answered with frame %#x", typ)
	}
	if _, resp, err := wire.DecodeSingleResponse(reply); err != nil || resp.Count != 0 {
		t.Fatalf("count after the refused request = %+v, %v; want 0", resp, err)
	}
}
