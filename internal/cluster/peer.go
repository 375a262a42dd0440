package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/lenient"
	"funcdb/internal/metrics"
	"funcdb/internal/reqtrace"
	"funcdb/internal/session"
	"funcdb/internal/wire"
)

// peer is the gateway side of frame forwarding to one node: its address,
// its dialer, its two counters, and the current link — a wire.Conn, the
// same request connection a client uses, dialed lazily on first use. A
// failed link is replaced by a fresh dial on the next forward. Any number
// of Request frames may be in flight on it; there is no reader goroutine,
// so each frame's reply is read by whoever forces one of its futures (the
// server handler forcing its pending replies, on a gateway), or drained
// by a forward whose send stalls behind replies nobody has read yet.
type peer struct {
	origin string // this node's tag, for the peer handshake
	addr   string
	cm     *metrics.Cluster // node-wide routing counters (may be nil)
	dialFn DialFunc
	frames metrics.Counter // Request frames sent to this peer
	dials  metrics.Counter // (re)connects of the forwarding link

	mu     sync.Mutex
	conn   *wire.Conn // the current link, nil before the first forward
	closed bool
}

// link returns the live connection, dialing and handshaking when there is
// none or the current one has failed — including a link that went idle
// and was closed by its peer since (a restart), which Check finds.
func (p *peer) link() (*wire.Conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("cluster: node closed")
	}
	if p.conn != nil {
		if p.conn.Check() == nil {
			return p.conn, nil
		}
		p.conn.Close()
		p.conn = nil
	}
	nc, err := p.dialFn(p.addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s unreachable: %w", p.addr, err)
	}
	conn, _, err := wire.NewConn(nc, wire.Hello{Origin: p.origin})
	if err != nil {
		return nil, fmt.Errorf("cluster: handshake with %s: %w", p.addr, err)
	}
	p.conn = conn
	p.dials.Inc()
	return conn, nil
}

// close shuts the peer link for good: futures awaiting it fail, later
// forwards refuse.
func (p *peer) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	if p.conn != nil {
		p.conn.Close()
	}
}

// fwdCall is one forwarded Request frame: its statements' futures share
// its one reply, received once by whichever is forced first.
type fwdCall struct {
	p      *peer
	stmts  []wire.Stmt
	conn   *wire.Conn
	id     uint64
	tr     *reqtrace.T // gateway trace the frame belongs to (nil untraced)
	sentNS int64       // unix ns the frame was sent, for the hop span

	once  sync.Once
	reply wire.Reply
	err   error // send or transport failure
}

// forwardTagged ships a run of pre-tagged transactions — all owned by
// this peer — as ONE tagged Request frame and stores their response
// futures, in order, into out. The frame sets FwdNoForward: if the peer
// disagrees about ownership (it answered Redirect), or the link dies,
// every future resolves with the error; forwarding never chains past one
// hop. The frame claims the slot's epoch (FwdEpoch), so a receiver that has
// seen a newer promotion fences it.
// A sampled trace rides ahead of the frame as a TraceCtx frame so the
// owner's spans share the gateway's trace id, and the gateway records the
// whole round trip as one forward-hop span.
func (p *peer) forwardTagged(txs []core.Transaction, out []*session.Future, epoch uint64, tr *reqtrace.T) {
	for _, tx := range txs {
		if tx.Query == "" {
			// Only symbolic statements cross the wire: the paper's
			// translate is the authoritative query → transaction function,
			// and the owner re-runs it.
			for j, txj := range txs {
				out[j] = lenient.Ready(core.Response{
					Origin: txj.Origin, Seq: txj.Seq, Kind: txj.Kind,
					Err: errors.New("cluster: transaction has no symbolic form to forward"),
				})
			}
			return
		}
	}
	// A transaction bound from a prepared template has the '?' template as
	// its Query, which the owner cannot re-bind from text: it ships as hash
	// + args, under the link's text rule. A plain text statement ships as a
	// hash-0 text statement.
	stmts := make([]wire.Stmt, len(txs))
	for i, tx := range txs {
		stmts[i] = wire.Stmt{
			Origin: tx.Origin, Seq: tx.Seq,
			Hash: tx.PrepHash, Text: tx.Query, Args: tx.PrepArgs,
		}
	}
	call := &fwdCall{p: p, stmts: stmts, tr: tr}
	if call.conn, call.err = p.link(); call.err == nil {
		if tr != nil {
			call.sentNS = time.Now().UnixNano()
		}
		call.id, call.err = call.conn.Request(wire.FwdTagged|wire.FwdNoForward|wire.FwdEpoch, epoch, stmts, tr.Ctx())
		if call.err != nil {
			call.err = fmt.Errorf("cluster: forward to %s: %w", p.addr, call.err)
		} else {
			p.frames.Inc()
		}
	}
	for i := range txs {
		i, tx := i, txs[i]
		out[i] = lenient.Lazy(func() core.Response { return call.response(i, tx) })
	}
}

// await receives the frame's reply, once. The forward-hop span runs from
// the send until the reply is in hand: wire time included.
func (c *fwdCall) await() {
	c.once.Do(func() {
		if c.err != nil {
			return
		}
		if c.reply, c.err = c.conn.Await(c.id, c.stmts); c.err != nil {
			c.err = fmt.Errorf("cluster: connection to %s lost: %w", c.p.addr, c.err)
		}
		if c.tr != nil {
			c.tr.SpanNS(reqtrace.StageForwardHop, c.sentNS, time.Now().UnixNano()-c.sentNS)
		}
		if c.reply.Redirect != "" {
			c.p.cm.Redirected()
		}
	})
}

// response shapes statement i's answer out of the frame's shared reply.
func (c *fwdCall) response(i int, tx core.Transaction) core.Response {
	c.await()
	resp := core.Response{Origin: tx.Origin, Seq: tx.Seq, Kind: tx.Kind}
	r := &c.reply
	switch {
	case c.err != nil:
		resp.Err = c.err
	case r.Redirect != "":
		resp.Err = fmt.Errorf("cluster: placement disagreement: peer redirected to %s", r.Redirect)
	case r.IsErr && (r.Index < 0 || r.Index == i):
		resp.Err = errors.New(r.ErrMsg)
	case r.IsErr:
		resp.Err = fmt.Errorf("cluster: forwarded batch failed at statement %d: %s", r.Index, r.ErrMsg)
	case r.Batch && i < len(r.Resps):
		return r.Resps[i]
	case !r.Batch && len(c.stmts) == 1:
		return r.Resp
	default:
		resp.Err = fmt.Errorf("cluster: short forward reply (%d of %d)", len(r.Resps), len(c.stmts))
	}
	return resp
}
