package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/query"
	"funcdb/internal/reqtrace"
)

// Conn is the request side of a connection, from the dialing end: the
// handshake, then Request and Introspect frames, pipelined freely and
// matched to their replies by id. It is the one implementation of "send a
// request, get its reply", under client.Client, client.ClusterClient and a
// cluster node's link to each peer.
//
// No goroutine reads a Conn. A caller awaiting an id reads the socket
// itself, one caller at a time, and parks replies to other ids, waking
// their callers as it goes: a reply already read never waits behind
// another caller's. Sends take their own lock, so they never wait behind
// a reader; a send that stalls while replies are due drains them (see
// write), so a receiver blocked writing replies nobody reads cannot
// deadlock the link. A reply nobody awaits stays parked. The first
// transport failure is sticky: every later call reports it.
//
// Conn is also the one place the prepared-statement text rule lives: a
// statement with a hash carries its text unless this connection holds the
// hash, and only on the hash's first occurrence in a request (the receiver
// resolves in order). A Response or BatchResponse marks the hashes whose
// text rode as held; an Error or Redirect marks nothing. A hash-only
// request refused as an unknown statement forgets its hashes and is
// re-sent once with text: resolution is all-or-nothing, so the refusal
// admitted nothing.
type Conn struct {
	nc net.Conn
	pk peeker // Check's peek at nc, under mu

	wmu    sync.Mutex // guards enc and nextID
	enc    []byte     // reused request encode buffer
	nextID uint64

	mu       sync.Mutex // guards the fields below
	reading  bool       // a caller holds the read side: rd and in
	inflight int        // requests sent whose replies are not yet read
	parked   map[uint64]Reply
	waiting  map[uint64]*sync.Cond // callers waiting while another reads, by id
	err      error
	closed   bool
	held     map[uint64]bool    // statement hashes the receiver holds
	sent     map[uint64]sentReq // in-flight requests with hashed statements

	rd *Reader // frames, read from in
	in spill
}

// sentReq is what a re-send needs besides the statements, which stay with
// the caller and come back through Await: no pointers, so a request's
// statement slice never escapes to the heap.
type sentReq struct {
	flags byte
	epoch uint64
	tc    reqtrace.Ctx
}

// Reply is one reply to a Request or Introspect frame.
type Reply struct {
	Resp     core.Response   // FrameResponse
	Resps    []core.Response // FrameBatchResponse (Batch)
	Batch    bool
	IsErr    bool   // FrameError
	ErrMsg   string // FrameError: the message
	Index    int    // FrameError: the failing statement's index; otherwise -1
	Redirect string // FrameRedirect: the owning node's address
	Rel      string // FrameRedirect: the relation being placed
	Epoch    uint64 // FrameRedirect: the owner's epoch (0 = unstamped)
	Doc      []byte // FrameIntrospectResponse: the JSON document
}

// Responses returns an n-statement request's answer: one statement is
// answered by a FrameResponse, any other count by a FrameBatchResponse.
// ok is false for a reply of the other shape.
func (r Reply) Responses(n int) (resps []core.Response, ok bool) {
	if r.Batch {
		return r.Resps, len(r.Resps) == n
	}
	return []core.Response{r.Resp}, n == 1
}

// Buffer sizing: reads hold a burst of pipelined replies; requests are
// assembled in the encode buffer, which a giant batch must not pin past
// maxConnEncodeBuf. stallWait is how long a send with replies due may
// block before it drains them, and how long one drain waits for bytes.
const (
	connReadBufSize  = 16 << 10
	maxConnEncodeBuf = 256 << 10
	stallWait        = time.Millisecond
)

var errClosed = errors.New("wire: connection closed")

// NewConn performs the handshake over an already-dialed connection and
// returns its request side with the server's Welcome. On failure (a
// transport error, or the server's refusal as the error's text) nc is
// closed.
func NewConn(nc net.Conn, h Hello) (*Conn, Welcome, error) {
	c := &Conn{
		nc: nc, in: spill{nc: nc},
		parked: make(map[uint64]Reply), waiting: make(map[uint64]*sync.Cond),
		held: make(map[uint64]bool), sent: make(map[uint64]sentReq),
	}
	c.rd = NewReader(bufio.NewReaderSize(&c.in, connReadBufSize))
	c.pk.bind(nc)
	w, err := Handshake(nc, c.rd, h)
	if err != nil {
		nc.Close()
		return nil, Welcome{}, err
	}
	return c, w, nil
}

// fail records the first transport failure and returns the sticky one.
func (c *Conn) fail(err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	return c.err
}

// Check returns the sticky transport failure. With no request in flight
// it first peeks at the socket, so a link idle since its peer closed or
// reset it is found out here, before a request is sent into it.
func (c *Conn) Check() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil && c.inflight == 0 {
		if err := c.pk.peerClosed(); err != nil {
			c.err = fmt.Errorf("wire: recv: %w", err)
		}
	}
	return c.err
}

// Request frames stmts as one Request under flags and epoch (a claim only
// with FwdEpoch), behind a TraceCtx frame when tc is sampled, and returns
// its id. It sets every statement's HasText by the text rule; the caller
// hands stmts, as Request left them, to Await. An unencodable request (an
// invalid argument, a frame over the size limit) is the caller's error
// and leaves the connection usable.
func (c *Conn) Request(flags byte, epoch uint64, stmts []Stmt, tc reqtrace.Ctx) (uint64, error) {
	return c.request(sentReq{flags, epoch, tc}, stmts, false)
}

// request sends stmts, with every hash's text on its first occurrence
// when withText (the re-send), and tracks a request with hashed statements.
func (c *Conn) request(req sentReq, stmts []Stmt, withText bool) (uint64, error) {
	hashed := false
	for i := range stmts {
		stmts[i].HasText = stmts[i].Hash == 0
		hashed = hashed || stmts[i].Hash != 0
	}
	if hashed {
		c.mu.Lock()
		for i := range stmts {
			if st := &stmts[i]; st.Hash != 0 {
				st.HasText = (withText || !c.held[st.Hash]) && firstOccurrence(stmts[:i], st.Hash)
			}
		}
		c.mu.Unlock()
	}
	id, err := c.send(FrameRequest, req.tc, func(dst []byte, id uint64) ([]byte, error) {
		return AppendRequest(dst, id, req.flags, req.epoch, stmts)
	})
	if err == nil && hashed {
		c.mu.Lock()
		c.sent[id] = req
		c.mu.Unlock()
	}
	return id, err
}

// firstOccurrence reports whether no statement in before has hash h,
// scanning backwards: a run of one statement is the common repeat.
func firstOccurrence(before []Stmt, h uint64) bool {
	for i := len(before) - 1; i >= 0; i-- {
		if before[i].Hash == h {
			return false
		}
	}
	return true
}

// Introspect asks for an introspection document (IntrospectStats or
// IntrospectTraces) and returns the request id; the reply's Doc holds it.
func (c *Conn) Introspect(kind byte) (uint64, error) {
	return c.send(FrameIntrospect, reqtrace.Ctx{}, func(dst []byte, id uint64) ([]byte, error) {
		return AppendIntrospect(dst, id, kind), nil
	})
}

// send frames one request under the write lock, built by appending
// straight into the reused encode buffer, so the steady state allocates
// nothing. It encodes before touching the socket: EndFrame removes an
// oversize frame and the connection stays usable.
func (c *Conn) send(typ byte, tc reqtrace.Ctx, build func(dst []byte, id uint64) ([]byte, error)) (uint64, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var mark int
	var err error
	c.enc, mark = BeginFrame(AppendTraceFrame(c.enc[:0], tc), typ)
	if c.enc, err = build(c.enc, c.nextID); err == nil {
		c.enc, err = EndFrame(c.enc, mark)
	}
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	due, err := c.inflight > 0, c.err
	c.inflight++
	c.mu.Unlock()
	if err == nil {
		err = c.write(c.enc, due)
	}
	if cap(c.enc) > maxConnEncodeBuf {
		c.enc = nil
	}
	if err != nil {
		return 0, c.fail(fmt.Errorf("wire: send: %w", err))
	}
	c.nextID++
	return c.nextID - 1, nil
}

// write puts a request on the socket. With replies due, the receiver may
// have stopped reading because it is blocked writing them, and nobody may
// be awaiting them; so a write that stalls for stallWait drains what has
// arrived and tries again.
func (c *Conn) write(b []byte, due bool) error {
	if !due || c.nc.SetWriteDeadline(time.Now().Add(stallWait)) != nil {
		_, err := c.nc.Write(b)
		return err
	}
	defer c.nc.SetWriteDeadline(time.Time{})
	for {
		n, err := c.nc.Write(b)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			return err
		}
		b = b[n:]
		c.drain()
		c.nc.SetWriteDeadline(time.Now().Add(stallWait))
	}
}

// drain reads what the socket delivers into the spill, unless a caller
// holds the read side already: it is reading them.
func (c *Conn) drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reading {
		return
	}
	c.reading = true
	c.mu.Unlock()
	c.in.fill()
	c.mu.Lock()
	c.stepDown()
}

// Await blocks until id's reply arrives, reading the connection as
// needed, and returns it; safe from any goroutine, in any order. stmts
// are the request's statements as Request left them (nil for an
// Introspect), for the text rule's two reply cases.
func (c *Conn) Await(id uint64, stmts []Stmt) (Reply, error) {
	for resent := false; ; resent = true {
		r, err := c.recv(id)
		c.mu.Lock()
		req, tracked := c.sent[id]
		delete(c.sent, id)
		refused := tracked && err == nil && !resent && r.IsErr && strings.Contains(r.ErrMsg, query.ErrUnknownStmt.Error())
		hashOnly := false
		for _, st := range stmts {
			switch {
			case !tracked || err != nil || st.Hash == 0:
			case refused:
				hashOnly = hashOnly || !st.HasText
				delete(c.held, st.Hash)
			case !r.IsErr && r.Redirect == "" && st.HasText:
				c.held[st.Hash] = true
			}
		}
		c.mu.Unlock()
		if !refused || !hashOnly {
			return r, err
		}
		if id, err = c.request(req, stmts, true); err != nil {
			return Reply{}, err
		}
	}
}

// recv returns id's reply: parked already, or read off the socket. One
// caller reads at a time and the others wait, each for its own id: the
// reader wakes a waiter the moment it parks that waiter's reply, and one
// waiter, to read next, when it steps down. The awaited reply is returned
// as it is decoded; only replies to other ids go through the parked map,
// which boxes each one it holds.
func (c *Conn) recv(id uint64) (Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var turn *sync.Cond
	for {
		if r, ok := c.parked[id]; ok {
			delete(c.parked, id)
			return r, nil
		}
		if c.err != nil {
			return Reply{}, c.err
		}
		if c.reading {
			if turn == nil {
				turn = sync.NewCond(&c.mu)
			}
			c.waiting[id] = turn
			turn.Wait() // woken, and unregistered, by whoever signals it
			continue
		}
		c.reading = true
		c.mu.Unlock()
		rid, r, err := c.next()
		c.mu.Lock()
		switch {
		case err != nil:
			if c.err == nil {
				c.err = err
			}
			c.stepDown()
		case rid == id:
			c.inflight--
			c.stepDown()
			return r, nil
		default:
			c.inflight--
			c.parked[rid] = r
			c.wake(rid)
			c.reading = false // and read on
		}
	}
}

// stepDown gives up the read side and wakes a waiter to take it over, or
// every waiter once the connection has failed.
func (c *Conn) stepDown() {
	c.reading = false
	for id := range c.waiting {
		c.wake(id)
		if c.err == nil {
			return
		}
	}
}

// wake signals the caller waiting for id, if any, and unregisters it, so
// a later handover never goes to a caller already woken.
func (c *Conn) wake(id uint64) {
	if w, ok := c.waiting[id]; ok {
		delete(c.waiting, id)
		w.Signal()
	}
}

// next reads and decodes one reply frame, for the caller holding the read
// side.
func (c *Conn) next() (rid uint64, r Reply, err error) {
	typ, payload, err := c.rd.Next()
	if err != nil {
		return 0, r, fmt.Errorf("wire: recv: %w", err)
	}
	r.Index = -1
	switch typ {
	case FrameResponse:
		rid, r.Resp, err = DecodeSingleResponse(payload)
	case FrameBatchResponse:
		r.Batch = true
		rid, r.Resps, err = DecodeResponses(payload)
	case FrameError:
		r.IsErr = true
		rid, r.Index, r.ErrMsg, err = DecodeErrorMsg(payload)
	case FrameRedirect:
		rid, r.Redirect, r.Rel, r.Epoch, err = DecodeRedirect(payload)
	case FrameIntrospectResponse:
		rid, r.Doc, err = DecodeIntrospectResponse(payload)
		r.Doc = append([]byte(nil), r.Doc...) // it aliases the read buffer
	default:
		err = fmt.Errorf("wire: unexpected frame %#x", typ)
	}
	return rid, r, err
}

// spill is the socket as the frame reader sees it: first the bytes a
// stalled send drained ahead of the reader, then the socket itself.
type spill struct {
	nc  net.Conn
	buf []byte
}

func (s *spill) Read(p []byte) (int, error) {
	if len(s.buf) == 0 {
		return s.nc.Read(p)
	}
	n := copy(p, s.buf)
	if s.buf = s.buf[n:]; len(s.buf) == 0 {
		s.buf = nil
	}
	return n, nil
}

// fill appends what the socket delivers within stallWait. A read error
// stays on the socket, for the frame reader to meet.
func (s *spill) fill() {
	s.nc.SetReadDeadline(time.Now().Add(stallWait))
	defer s.nc.SetReadDeadline(time.Time{})
	for {
		s.buf = slices.Grow(s.buf, connReadBufSize)
		n, err := s.nc.Read(s.buf[len(s.buf):cap(s.buf)])
		if s.buf = s.buf[:len(s.buf)+n]; err != nil {
			return
		}
	}
}

// Close sends Quit and closes the connection; a second Close is a no-op.
// A caller blocked in Await wakes with an error. The Quit is skipped when
// the connection already failed, or when a send holds the write lock,
// blocked on a full socket that closing frees; and it is given up after
// stallWait on a peer that stopped reading.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	healthy := c.err == nil
	if healthy {
		c.err = errClosed
	}
	c.mu.Unlock()
	if healthy && c.wmu.TryLock() {
		if quit, err := AppendFrame(c.enc[:0], FrameQuit, nil); err == nil {
			c.nc.SetWriteDeadline(time.Now().Add(stallWait))
			c.nc.Write(quit)
		}
		c.wmu.Unlock()
	}
	return c.nc.Close()
}
