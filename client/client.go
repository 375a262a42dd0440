// Package client is the dial-side of the funcdb wire protocol: a
// network session against a running fdbserver, with the same execution
// surface the in-process Store offers (Exec / ExecAsync / ExecBatch),
// so a workload can run unchanged in-process or over the wire.
//
// Requests are pipelined: ExecAsync writes the frame immediately and
// returns a Pending handle without waiting; any number of requests may
// be in flight, and responses are matched by request id, so forcing
// handles in any order is safe. ExecBatch ships the whole batch as ONE
// frame — the server admits it as one lane-split SubmitBatch, exactly
// like an in-process ExecBatch.
package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"sync"
	"sync/atomic"

	"funcdb"
	"funcdb/internal/reqtrace"
	"funcdb/internal/session"
	"funcdb/internal/wire"
)

// Client is one wire connection. Safe for concurrent use: sends are
// serialized under their own lock (so firing pipelined requests never
// waits behind a goroutine blocked reading a response), and concurrent
// Force calls cooperate through the receive buffer.
type Client struct {
	conn net.Conn

	wmu    sync.Mutex // guards bw, enc, and request-id allocation
	bw     *bufio.Writer
	enc    []byte // reused request encode buffer
	nextID uint64

	rmu sync.Mutex // guards rd and the reorder buffer
	rd  *wire.Reader
	// got buffers responses that arrived while awaiting another id:
	// out-of-order-safe pipelining.
	got map[uint64]arrived

	emu    sync.Mutex // guards the sticky transport failure
	err    error
	closed bool

	origin   string
	database string
	lanes    int
	durable  bool

	// Client-side tracing (WithTracing): the recorder holds this
	// connection's published traces; sampled requests send a TraceCtx
	// frame first so server-side spans share their trace id.
	traceCfg     *funcdb.TracingConfig
	rec          *reqtrace.Recorder
	dialNS       int64 // unix ns Dial began
	dialDurNS    int64 // dial + handshake duration
	dialAttached atomic.Bool
}

// fail records the first transport failure; every later call reports it.
func (c *Client) fail(err error) error {
	c.emu.Lock()
	defer c.emu.Unlock()
	if c.err == nil {
		c.err = err
	}
	return c.err
}

// sticky returns the recorded transport failure, if any.
func (c *Client) sticky() error {
	c.emu.Lock()
	defer c.emu.Unlock()
	return c.err
}

// arrived is one received reply, keyed by request id.
type arrived struct {
	resp     funcdb.Response   // FrameResponse
	resps    []funcdb.Response // FrameBatchResponse
	errMsg   string            // FrameError
	index    int               // FrameError: failing statement index, -1 if none
	isErr    bool
	batch    bool
	redirect string // FrameRedirect: the owning node's address
	rel      string // FrameRedirect: the relation being placed
	rdEpoch  uint64 // FrameRedirect: the owner's epoch (0 = unstamped)
	doc      []byte // FrameIntrospectResponse: the JSON document
}

// Option configures Dial.
type Option func(*Client)

// WithOrigin sets the origin tag the server stamps on this connection's
// transactions (default: server-assigned "connN").
func WithOrigin(origin string) Option {
	return func(c *Client) { c.origin = origin }
}

// WithDatabase selects the database this connection executes against on
// a multi-store listener (default: the server's default store, "main").
func WithDatabase(db string) Option {
	return func(c *Client) { c.database = db }
}

// WithTracing records client-side span timelines for this connection's
// requests (dial + handshake, request-sent → response-decoded) and sends
// sampled requests' trace context ahead of them, so the server's spans
// land under the same trace id and LocalTraces/Traces stitch into one
// end-to-end timeline.
func WithTracing(cfg funcdb.TracingConfig) Option {
	return func(c *Client) { c.traceCfg = &cfg }
}

// Dial connects and performs the protocol handshake.
func Dial(addr string, opts ...Option) (*Client, error) {
	dialStart := time.Now()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	c := &Client{
		conn: conn,
		rd:   wire.NewReader(bufio.NewReaderSize(conn, clientReadBufSize)),
		bw:   bufio.NewWriterSize(conn, clientWriteBufSize),
		got:  make(map[uint64]arrived),
	}
	for _, opt := range opts {
		opt(c)
	}
	w, err := wire.Handshake(conn, c.rd, wire.Hello{Origin: c.origin, Database: c.database})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	c.origin, c.lanes, c.durable, c.database = w.Origin, w.Lanes, w.Durable, w.Database
	if c.traceCfg != nil {
		c.rec = reqtrace.New("client:"+c.origin, *c.traceCfg)
		c.dialNS = dialStart.UnixNano()
		c.dialDurNS = time.Since(dialStart).Nanoseconds()
	}
	return c, nil
}

// startTrace opens a trace for one request when client tracing is on.
// The first sampled trace additionally carries the connection's dial +
// handshake span — dialing happens once, so it is attributed once.
// Returns the handle and the client-send span's start instant.
func (c *Client) startTrace() (*reqtrace.T, int64) {
	if c.rec == nil {
		return nil, 0
	}
	t := c.rec.Start()
	if t.Sampled() && !c.dialAttached.Swap(true) {
		t.SpanNS(reqtrace.StageClientDial, c.dialNS, c.dialDurNS)
	}
	return t, time.Now().UnixNano()
}

// finishTrace closes a request's client-send span and runs admission.
func (c *Client) finishTrace(t *reqtrace.T, sentNS int64) {
	if t == nil {
		return
	}
	t.SpanNS(reqtrace.StageClientSend, sentNS, time.Now().UnixNano()-sentNS)
	c.rec.Finish(t)
}

// LocalTraces returns the traces published by this connection's own
// recorder (nil without WithTracing) — the client-side fragments; the
// server-side fragments come from Traces and stitch by id.
func (c *Client) LocalTraces() []funcdb.RequestTrace {
	return c.rec.Traces()
}

// Origin returns the connection's origin tag (server-assigned when Dial
// had none).
func (c *Client) Origin() string { return c.origin }

// Database returns the store name the connection is bound to.
func (c *Client) Database() string { return c.database }

// Lanes returns the server store's admission lane count.
func (c *Client) Lanes() int { return c.lanes }

// Durable reports whether the server store writes a durable archive.
func (c *Client) Durable() bool { return c.durable }

// Pending is one in-flight request: a response future over the wire.
type Pending struct {
	c      *Client
	id     uint64
	t      *reqtrace.T // client-side trace (nil untraced)
	sentNS int64
}

// Force blocks until the request's response arrives (reading the
// connection as needed) and returns it. Safe to call from any goroutine
// and in any order relative to other Pending handles.
func (p *Pending) Force() (funcdb.Response, error) {
	resp, err := p.c.await(p.id)
	p.c.finishTrace(p.t, p.sentNS)
	return resp, err
}

// send frames one request under the write lock and returns its request
// id. The payload is built by appending directly into the client's
// reused encode buffer (build receives it opened by BeginFrame), so the
// steady-state send path allocates nothing. A sampled trace t sends its
// context as a TraceCtx frame ahead of the request.
func (c *Client) send(typ byte, t *reqtrace.T, build func(dst []byte, id uint64) []byte) (uint64, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.sticky(); err != nil {
		return 0, err
	}
	id := c.nextID
	c.nextID++
	// Encode before touching the socket: an unencodable request (e.g. a
	// frame over the size limit) is the caller's error, not a transport
	// failure — EndFrame removes the bad frame and the connection stays
	// usable.
	var mark int
	var err error
	c.enc, mark = wire.BeginFrame(wire.AppendTraceFrame(c.enc[:0], t.Ctx()), typ)
	c.enc = build(c.enc, id)
	if c.enc, err = wire.EndFrame(c.enc, mark); err != nil {
		return 0, fmt.Errorf("client: %w", err)
	}
	if _, err := c.bw.Write(c.enc); err != nil {
		return 0, c.fail(fmt.Errorf("client: send: %w", err))
	}
	if cap(c.enc) > maxClientEncodeBuf {
		c.enc = nil // one giant batch must not pin its high-water mark
	}
	if err := c.bw.Flush(); err != nil {
		return 0, c.fail(fmt.Errorf("client: send: %w", err))
	}
	return id, nil
}

// await blocks until id's reply is buffered or read, consuming frames
// (and buffering other ids' replies) as they arrive.
func (c *Client) await(id uint64) (funcdb.Response, error) {
	a, err := c.recv(id)
	if err != nil {
		return funcdb.Response{}, err
	}
	if a.isErr {
		return funcdb.Response{}, errors.New(a.errMsg)
	}
	if a.redirect != "" {
		return funcdb.Response{}, fmt.Errorf("client: request %d redirected to %s (use DialCluster to chase placements)", id, a.redirect)
	}
	if a.batch {
		return funcdb.Response{}, fmt.Errorf("client: request %d is a batch (use ExecBatch)", id)
	}
	return a.resp, nil
}

// recv reads frames under the receive lock until id's reply arrives. The
// awaited reply is returned as it is decoded; only replies to other ids —
// pipelined requests answered ahead of the one awaited — go through the
// got map, which boxes each one it holds.
func (c *Client) recv(id uint64) (arrived, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if a, ok := c.got[id]; ok {
		delete(c.got, id)
		return a, nil
	}
	for {
		if err := c.sticky(); err != nil {
			return arrived{}, err
		}
		typ, payload, err := c.rd.Next()
		if err != nil {
			return arrived{}, c.fail(fmt.Errorf("client: recv: %w", err))
		}
		var (
			rid uint64
			a   arrived
		)
		switch typ {
		case wire.FrameResponse:
			a.index = -1
			rid, a.resp, err = wire.DecodeSingleResponse(payload)
		case wire.FrameBatchResponse:
			a.index, a.batch = -1, true
			rid, a.resps, err = wire.DecodeResponses(payload)
		case wire.FrameError:
			a.isErr = true
			rid, a.index, a.errMsg, err = wire.DecodeErrorMsg(payload)
		case wire.FrameRedirect:
			a.index = -1
			rid, a.redirect, a.rel, a.rdEpoch, err = wire.DecodeRedirect(payload)
		case wire.FrameIntrospectResponse:
			a.index = -1
			rid, a.doc, err = wire.DecodeIntrospectResponse(payload)
			// The document aliases the frame's read buffer: copy before it
			// is reused.
			a.doc = append([]byte(nil), a.doc...)
		default:
			err = fmt.Errorf("client: unexpected frame %#x", typ)
		}
		if err != nil {
			return arrived{}, c.fail(err)
		}
		if rid == id {
			return a, nil
		}
		c.got[rid] = a
	}
}

// request ships a statement list as one FrameRequest and returns the
// request id: every execution path — text, prepared, cluster-routed —
// sends through it. flags is 0 on a plain connection (the server's
// session tags the statements); a cluster client sets FwdTagged, owning
// the tag space, and claims no epoch. The reply is a FrameResponse (one
// statement), FrameBatchResponse (any other count), FrameError, or — for
// a tagged request to a node that does not own the statements' relation —
// a FrameRedirect carrying the owner's address. Callers validate args
// first (validArgs), so encoding cannot fail on them.
func (c *Client) request(flags byte, stmts []wire.Stmt, t *reqtrace.T) (uint64, error) {
	return c.send(wire.FrameRequest, t, func(dst []byte, id uint64) []byte {
		dst, _ = wire.AppendRequest(dst, id, flags, 0, stmts)
		return dst
	})
}

// responses returns an n-statement request's answer: one statement is
// answered by a FrameResponse, any other count by a FrameBatchResponse.
// ok is false for a reply of the other shape.
func (a arrived) responses(n int) (resps []funcdb.Response, ok bool) {
	if a.batch {
		return a.resps, len(a.resps) == n
	}
	return []funcdb.Response{a.resp}, n == 1
}

// ExecAsync submits one statement without waiting: pipelined execution.
func (c *Client) ExecAsync(q string) (*Pending, error) {
	t, sentNS := c.startTrace()
	id, err := c.request(0, []wire.Stmt{{Text: q, HasText: true}}, t)
	if err != nil {
		return nil, err
	}
	return &Pending{c: c, id: id, t: t, sentNS: sentNS}, nil
}

// Exec submits one statement and waits for its response. A translation
// failure on the server surfaces as the returned error; an
// operation-level failure (e.g. an unknown relation) arrives inside the
// response, exactly as in-process execution reports it.
func (c *Client) Exec(q string) (funcdb.Response, error) {
	p, err := c.ExecAsync(q)
	if err != nil {
		return funcdb.Response{}, err
	}
	return p.Force()
}

// ExecBatch ships the batch as one request — one admission arbitration on
// the server — and waits for every response. Translation is
// all-or-nothing; a failure reports a *funcdb.BatchError with the failing
// statement's index, like the in-process ExecBatch. An empty batch
// returns an empty result without sending anything.
func (c *Client) ExecBatch(queries []string) ([]funcdb.Response, error) {
	if len(queries) == 0 {
		return []funcdb.Response{}, nil
	}
	stmts := make([]wire.Stmt, len(queries))
	for i, q := range queries {
		stmts[i] = wire.Stmt{Text: q, HasText: true}
	}
	t, sentNS := c.startTrace()
	id, err := c.request(0, stmts, t)
	if err != nil {
		return nil, err
	}
	a, aerr := c.recv(id)
	c.finishTrace(t, sentNS)
	if aerr != nil {
		return nil, aerr
	}
	if a.isErr {
		if a.index >= 0 && a.index < len(queries) {
			return nil, &session.BatchError{Index: a.index, Query: queries[a.index], Err: errors.New(a.errMsg)}
		}
		return nil, errors.New(a.errMsg)
	}
	resps, ok := a.responses(len(queries))
	if !ok {
		return nil, fmt.Errorf("client: request %d is not a batch", id)
	}
	return resps, nil
}

// Stats asks the server for its metrics snapshot: every layer's counters
// and latency histograms at this instant, as one document (see
// funcdb.MetricsSnapshot). On a cluster node the snapshot includes
// routing, per-peer link state, and replica progress. The request
// pipelines like any other frame.
func (c *Client) Stats() (funcdb.MetricsSnapshot, error) {
	var snap funcdb.MetricsSnapshot
	err := c.introspect(wire.IntrospectStats, "stats", &snap)
	return snap, err
}

// Traces asks the server for its published request traces (newest
// first): the server-side fragments of sampled and slow requests, which
// Render/Stitch merge with client-side LocalTraces by trace id. The
// request pipelines like any other frame.
func (c *Client) Traces() ([]funcdb.RequestTrace, error) {
	var out []funcdb.RequestTrace
	err := c.introspect(wire.IntrospectTraces, "traces", &out)
	return out, err
}

// introspect fetches one introspection document and decodes it into v.
func (c *Client) introspect(kind byte, what string, v any) error {
	id, err := c.send(wire.FrameIntrospect, nil, func(dst []byte, id uint64) []byte {
		return wire.AppendIntrospect(dst, id, kind)
	})
	if err != nil {
		return err
	}
	a, err := c.recv(id)
	if err != nil {
		return err
	}
	if a.isErr {
		return errors.New(a.errMsg)
	}
	if a.doc == nil {
		return fmt.Errorf("client: request %d is not a %s request", id, what)
	}
	if err := json.Unmarshal(a.doc, v); err != nil {
		return fmt.Errorf("client: bad %s document: %w", what, err)
	}
	return nil
}

// Per-connection buffer sizing: explicit rather than bufio's 4 KiB
// default. Reads are sized for a burst of pipelined responses; writes
// stay small because requests are pre-assembled in the encode buffer.
const (
	clientReadBufSize  = 16 << 10
	clientWriteBufSize = 4 << 10
	// maxClientEncodeBuf caps the request buffer retained between sends.
	maxClientEncodeBuf = 256 << 10
)

// Close announces a clean quit and closes the connection. A goroutine
// blocked in Force wakes with a transport error.
func (c *Client) Close() error {
	c.emu.Lock()
	if c.closed {
		c.emu.Unlock()
		return nil
	}
	c.closed = true
	healthy := c.err == nil
	if c.err == nil {
		c.err = errors.New("client: closed")
	}
	c.emu.Unlock()

	if healthy {
		c.wmu.Lock()
		if err := wire.WriteFrame(c.bw, wire.FrameQuit, nil); err == nil {
			c.bw.Flush()
		}
		c.wmu.Unlock()
	}
	return c.conn.Close()
}
