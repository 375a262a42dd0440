package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/query"
	"funcdb/internal/reqtrace"
	"funcdb/internal/value"
)

// fakeNet is a net.Conn reading a canned stream and writing to w; the
// methods it does not override are never called.
type fakeNet struct {
	net.Conn
	r io.Reader
	w *io.Writer
}

func (f fakeNet) Read(p []byte) (int, error)  { return f.r.Read(p) }
func (f fakeNet) Write(p []byte) (int, error) { return (*f.w).Write(p) }
func (f fakeNet) Close() error                { return nil }

// cannedConn handshakes a Conn over a stream holding a Welcome and then
// one empty-origin Response per id 0..n-1. Requests go to *w.
func cannedConn(t *testing.T, n int, w *io.Writer) *Conn {
	t.Helper()
	var stream bytes.Buffer
	if err := WriteFrame(&stream, FrameWelcome, AppendWelcome(nil, Welcome{Lanes: 1})); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < n; id++ {
		payload, err := AppendSingleResponse(nil, uint64(id), core.Response{Kind: core.KindFind})
		if err == nil {
			err = WriteFrame(&stream, FrameResponse, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	c, _, err := NewConn(fakeNet{r: &stream, w: w}, Hello{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConnSendAllocGate: once the connection holds a statement, sending
// it hash-only — trace context, request framing, the in-flight record the
// text rule keeps — and receiving its reply allocates nothing.
func TestConnSendAllocGate(t *testing.T) {
	const runs = 200
	var w io.Writer = io.Discard
	c := cannedConn(t, runs+3, &w) // the first send, AllocsPerRun's warm-up call, and the check below
	text := "find ? in R"
	stmts := []Stmt{{Hash: query.HashText(text), Text: text, Args: []value.Item{value.Int(7)}}}
	exec := func() {
		id, err := c.Request(FwdTagged, 0, stmts, reqtrace.Ctx{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Await(id, stmts); err != nil {
			t.Fatal(err)
		}
	}
	exec()
	if !stmts[0].HasText {
		t.Fatal("the first send of a statement went hash-only")
	}
	if allocs := testing.AllocsPerRun(runs, exec); allocs != 0 {
		t.Errorf("hash-only send + receive of a held statement = %.1f allocs, want 0", allocs)
	}

	var sent bytes.Buffer
	w = &sent
	exec()
	_, payload, err := NewReader(&sent).Next()
	var req Request
	if err == nil {
		err = DecodeRequestInto(payload, &req)
	}
	if err != nil || len(req.Stmts) != 1 || req.Stmts[0].HasText {
		t.Fatalf("steady-state request %+v, %v: want the hash alone", req, err)
	}
}

// serveHandshake answers the Hello on a test server's end of a
// connection, reading r and writing w, and returns a reader for the
// requests that follow.
func serveHandshake(t *testing.T, r io.Reader, w io.Writer) *Reader {
	rd := NewReader(r)
	if typ, _, err := rd.Next(); err != nil || typ != FrameHello {
		t.Errorf("handshake: frame %#x, %v", typ, err)
	}
	if err := WriteFrame(w, FrameWelcome, AppendWelcome(nil, Welcome{Lanes: 1})); err != nil {
		t.Error(err)
	}
	return rd
}

// nextID reads one Request frame and returns its id; ok is false once
// the connection is gone.
func nextID(rd *Reader) (id uint64, ok bool) {
	_, payload, err := rd.Next()
	var req Request
	if err == nil {
		err = DecodeRequestInto(payload, &req)
	}
	return req.ID, err == nil
}

// answer writes a found Response to request id.
func answer(srv net.Conn, id uint64) error {
	payload, err := AppendSingleResponse(nil, id, core.Response{Kind: core.KindFind, Found: true})
	if err == nil {
		err = WriteFrame(srv, FrameResponse, payload)
	}
	return err
}

// TestConnDrainsRepliesWhileSending: a receiver answers each request
// before it reads the next, so it blocks writing a reply nobody awaits
// yet. The next send must drain that reply instead of blocking against
// it. net.Pipe buffers nothing: any unread byte blocks its writer.
func TestConnDrainsRepliesWhileSending(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	go func() {
		rd := serveHandshake(t, srv, srv)
		for id, ok := nextID(rd); ok && answer(srv, id) == nil; id, ok = nextID(rd) {
		}
	}()
	c, _, err := NewConn(cli, Hello{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		var ids []uint64
		for i := 0; i < 3; i++ {
			id, err := c.Request(0, 0, []Stmt{{Text: "find 1 in R"}}, reqtrace.Ctx{})
			if err != nil {
				done <- err
				return
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			if r, err := c.Await(id, nil); err != nil || !r.Resp.Found {
				done <- fmt.Errorf("request %d: %+v, %v", id, r, err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a send blocked behind a reply nobody was reading")
	}
}

// TestConnHandsAParkedReplyToItsWaiter: a reply read by the caller
// awaiting another id goes to its own waiter at once, not once the
// reader's reply has arrived too.
func TestConnHandsAParkedReplyToItsWaiter(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	release := make(chan struct{})
	go func() {
		rd := serveHandshake(t, srv, srv)
		id0, _ := nextID(rd)
		id1, _ := nextID(rd)
		if answer(srv, id1) == nil {
			<-release
			answer(srv, id0)
		}
		io.Copy(io.Discard, srv) // the Quit
	}()
	c, _, err := NewConn(cli, Hello{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var ids [2]uint64
	for i := range ids {
		if ids[i], err = c.Request(0, 0, []Stmt{{Text: "find 1 in R"}}, reqtrace.Ctx{}); err != nil {
			t.Fatal(err)
		}
	}
	got := [2]chan error{make(chan error, 1), make(chan error, 1)}
	await := func(i int) {
		_, err := c.Await(ids[i], nil)
		got[i] <- err
	}
	go await(0)
	// Let that caller take the read side, so request 1's reply lands in
	// its hands.
	for reading := false; !reading; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		reading = c.reading
		c.mu.Unlock()
	}
	go await(1)
	select {
	case err := <-got[1]:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a parked reply waited for the reader's own reply")
	}
	close(release)
	if err := <-got[0]; err != nil {
		t.Fatal(err)
	}
	if len(c.parked) != 0 {
		t.Errorf("%d replies left parked", len(c.parked))
	}
}

// TestConnSharedByManyCallers: callers on one connection each pipeline a
// few requests and await them last to first, so every caller in turn
// reads, parks replies for the others, waits while another reads, and is
// handed the read side. Every reply must reach its caller; none may be
// stranded with nobody reading.
func TestConnSharedByManyCallers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		srv, err := ln.Accept()
		if err != nil {
			return
		}
		defer srv.Close()
		br := bufio.NewReader(srv)
		// Answer like a server batches: whatever has arrived, last first.
		rd := serveHandshake(t, br, srv)
		for {
			var ids []uint64
			for id, ok := nextID(rd); ok; id, ok = nextID(rd) {
				if ids = append(ids, id); br.Buffered() == 0 {
					break
				}
			}
			if len(ids) == 0 {
				return
			}
			var out []byte
			for i := len(ids) - 1; i >= 0; i-- {
				payload, _ := AppendSingleResponse(nil, ids[i], core.Response{Kind: core.KindFind, Found: true})
				out, _ = AppendFrame(out, FrameResponse, payload)
			}
			if _, err := srv.Write(out); err != nil {
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := NewConn(nc, Hello{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Rounds end together, so a caller handed the read side while already
	// on its way out strands the rest: nobody else would come to read.
	const callers, rounds, depth = 32, 50, 4
	pipeline := func() error {
		var ids [depth]uint64
		for i := range ids {
			id, err := c.Request(0, 0, []Stmt{{Text: "find 1 in R"}}, reqtrace.Ctx{})
			if err != nil {
				return err
			}
			ids[i] = id
		}
		for i := depth - 1; i >= 0; i-- {
			if r, err := c.Await(ids[i], nil); err != nil || !r.Resp.Found {
				return fmt.Errorf("request %d: %+v, %v", ids[i], r, err)
			}
		}
		return nil
	}
	timeout := time.After(30 * time.Second)
	for r := 0; r < rounds; r++ {
		done := make(chan error, callers)
		for g := 0; g < callers; g++ {
			go func() { done <- pipeline() }()
		}
		for g := 0; g < callers; g++ {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-timeout:
				t.Fatalf("round %d: %d of %d callers stranded", r, callers-g, callers)
			}
		}
	}
}
