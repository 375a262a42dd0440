// Package client is the dial-side of the funcdb wire protocol: a
// network session against a running fdbserver, with the same execution
// surface the in-process Store offers (Exec / ExecAsync / ExecBatch),
// so a workload can run unchanged in-process or over the wire.
//
// Every connection is a wire.Conn, the one request connection a cluster
// node's gateway links use too: it frames requests, matches replies by id
// and keeps the prepared-statement text rule. Requests are pipelined:
// ExecAsync writes the frame immediately and returns a Pending handle, and
// forcing handles in any order is safe. ExecBatch ships the whole batch as
// ONE frame — the server admits it as one lane-split SubmitBatch, exactly
// like an in-process ExecBatch.
package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"funcdb"
	"funcdb/internal/reqtrace"
	"funcdb/internal/session"
	"funcdb/internal/wire"
)

// Client is one wire connection: a wire.Conn — which frames requests,
// matches replies by id and applies the prepared-statement text rule —
// plus the Welcome's fields and the client-side trace recorder. Safe for
// concurrent use.
type Client struct {
	conn *wire.Conn

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
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	c := &Client{}
	for _, opt := range opts {
		opt(c)
	}
	conn, w, err := wire.NewConn(nc, wire.Hello{Origin: c.origin, Database: c.database})
	if err != nil {
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	c.conn = conn
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
func finishTrace(rec *reqtrace.Recorder, t *reqtrace.T, sentNS int64) {
	if t == nil {
		return
	}
	t.SpanNS(reqtrace.StageClientSend, sentNS, time.Now().UnixNano()-sentNS)
	rec.Finish(t)
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
func (p *Pending) Force() (funcdb.Response, error) { return p.await(nil) }

// await receives the reply to a request of stmts (nil for text).
func (p *Pending) await(stmts []wire.Stmt) (funcdb.Response, error) {
	r, err := p.c.conn.Await(p.id, stmts)
	finishTrace(p.c.rec, p.t, p.sentNS)
	if err != nil {
		return funcdb.Response{}, err
	}
	switch {
	case r.IsErr:
		return funcdb.Response{}, errors.New(r.ErrMsg)
	case r.Redirect != "":
		return funcdb.Response{}, fmt.Errorf("client: request %d redirected to %s (use DialCluster to chase placements)", p.id, r.Redirect)
	case r.Batch:
		return funcdb.Response{}, fmt.Errorf("client: request %d is a batch (use ExecBatch)", p.id)
	}
	return r.Resp, nil
}

// awaitBatch receives the reply to a request of stmts: a failing
// statement's error as a *funcdb.BatchError naming query(index).
func (c *Client) awaitBatch(id uint64, stmts []wire.Stmt, query func(int) string) ([]funcdb.Response, error) {
	n := len(stmts)
	r, err := c.conn.Await(id, stmts)
	if err != nil {
		return nil, err
	}
	if r.IsErr {
		if r.Index >= 0 && r.Index < n {
			return nil, &session.BatchError{Index: r.Index, Query: query(r.Index), Err: errors.New(r.ErrMsg)}
		}
		return nil, errors.New(r.ErrMsg)
	}
	resps, ok := r.Responses(n)
	if !ok {
		return nil, fmt.Errorf("client: request %d is not a batch", id)
	}
	return resps, nil
}

// ExecAsync submits one statement without waiting: pipelined execution.
func (c *Client) ExecAsync(q string) (*Pending, error) {
	t, sentNS := c.startTrace()
	id, err := c.conn.Request(0, 0, []wire.Stmt{{Text: q}}, t.Ctx())
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
		stmts[i] = wire.Stmt{Text: q}
	}
	t, sentNS := c.startTrace()
	id, err := c.conn.Request(0, 0, stmts, t.Ctx())
	if err != nil {
		return nil, err
	}
	resps, err := c.awaitBatch(id, stmts, func(i int) string { return queries[i] })
	finishTrace(c.rec, t, sentNS)
	return resps, err
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
	id, err := c.conn.Introspect(kind)
	if err != nil {
		return err
	}
	r, err := c.conn.Await(id, nil)
	if err != nil {
		return err
	}
	if r.IsErr {
		return errors.New(r.ErrMsg)
	}
	if r.Doc == nil {
		return fmt.Errorf("client: request %d is not a %s request", id, what)
	}
	if err := json.Unmarshal(r.Doc, v); err != nil {
		return fmt.Errorf("client: bad %s document: %w", what, err)
	}
	return nil
}

// Close announces a clean quit and closes the connection. A goroutine
// blocked in Force wakes with a transport error.
func (c *Client) Close() error {
	return c.conn.Close()
}
