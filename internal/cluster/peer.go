package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/lenient"
	"funcdb/internal/metrics"
	"funcdb/internal/reqtrace"
	"funcdb/internal/session"
	"funcdb/internal/wire"
)

// peer is one persistent inter-node connection: the gateway side of
// frame forwarding. The connection is dialed lazily on first use and
// redialed after a failure; any number of Request frames may be in
// flight, matched to replies by request id by a single reader goroutine.
type peer struct {
	origin string // this node's tag, for the peer handshake
	addr   string
	cm     *metrics.Cluster // node-wide routing counters (may be nil)
	dialFn DialFunc
	frames metrics.Counter // Request frames sent to this peer
	dials  metrics.Counter // (re)connects of the forwarding link

	mu     sync.Mutex
	pc     *peerConn // the live connection, nil between failures
	enc    []byte    // reused Request encode buffer, guarded by mu
	nextID uint64
	closed bool
}

// peerConn is one dialed connection together with the calls in flight on
// it. Pending calls are scoped to their connection: when it dies —
// whether the reader noticed first or a writer did — failing the
// connection resolves exactly the calls that were sent on it, and calls
// registered on a successor connection are untouched.
type peerConn struct {
	conn    net.Conn
	bw      *bufio.Writer
	pending map[uint64]*fwdCall
}

// fwdCall is one in-flight Request frame: the statements' shared reply.
type fwdCall struct {
	n        int // statements in the frame
	done     chan struct{}
	resps    []core.Response
	err      error  // transport failure or remote FrameError
	errIndex int    // remote FrameError: failing index within the frame
	redirect string // remote FrameRedirect: placement disagreement

	tr     *reqtrace.T // gateway trace the frame belongs to (nil untraced)
	sentNS int64       // unix ns the frame hit the socket, for the hop span
}

func newPeer(origin, addr string, cm *metrics.Cluster, dial DialFunc) *peer {
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return &peer{origin: origin, addr: addr, cm: cm, dialFn: dial}
}

// ensureLocked dials and handshakes if the connection is down, returning
// the live peerConn. Must hold p.mu.
func (p *peer) ensureLocked() (*peerConn, error) {
	if p.closed {
		return nil, errors.New("cluster: node closed")
	}
	if p.pc != nil {
		return p.pc, nil
	}
	conn, err := p.dialFn(p.addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s unreachable: %w", p.addr, err)
	}
	rd := wire.NewReader(bufio.NewReaderSize(conn, peerReadBufSize))
	if _, err := wire.Handshake(conn, rd, wire.Hello{Origin: p.origin}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: handshake with %s: %w", p.addr, err)
	}
	pc := &peerConn{conn: conn, bw: bufio.NewWriterSize(conn, peerWriteBufSize), pending: make(map[uint64]*fwdCall)}
	p.pc = pc
	p.dials.Inc()
	go p.readLoop(pc, rd)
	return pc, nil
}

// readLoop dispatches replies by request id until the connection dies,
// then fails every call still pending on it.
func (p *peer) readLoop(pc *peerConn, rd *wire.Reader) {
	var fatal error
	for {
		typ, payload, err := rd.Next()
		if err != nil {
			fatal = fmt.Errorf("cluster: connection to %s lost: %w", p.addr, err)
			break
		}
		var call *fwdCall
		switch typ {
		case wire.FrameResponse:
			rid, resp, derr := wire.DecodeSingleResponse(payload)
			if derr != nil {
				fatal = derr
			} else if call = p.take(pc, rid); call != nil {
				call.resps = []core.Response{resp}
			}
		case wire.FrameBatchResponse:
			rid, resps, derr := wire.DecodeResponses(payload)
			if derr != nil {
				fatal = derr
			} else if call = p.take(pc, rid); call != nil {
				call.resps = resps
			}
		case wire.FrameError:
			rid, index, msg, derr := wire.DecodeErrorMsg(payload)
			if derr != nil {
				fatal = derr
			} else if call = p.take(pc, rid); call != nil {
				call.err, call.errIndex = errors.New(msg), index
			}
		case wire.FrameRedirect:
			rid, addr, _, _, derr := wire.DecodeRedirect(payload)
			if derr != nil {
				fatal = derr
			} else if call = p.take(pc, rid); call != nil {
				call.redirect = addr
				p.cm.Redirected()
			}
		default:
			fatal = fmt.Errorf("cluster: unexpected frame %#x from %s", typ, p.addr)
		}
		if fatal != nil {
			break
		}
		if call != nil {
			if call.tr != nil {
				// The hop span closes when the peer's reply lands, before
				// the waiting futures wake: send → reply, wire time included.
				call.tr.SpanNS(reqtrace.StageForwardHop, call.sentNS, time.Now().UnixNano()-call.sentNS)
			}
			close(call.done)
		}
	}
	p.fail(pc, fatal)
}

// take claims the pending call for a request id on one connection.
func (p *peer) take(pc *peerConn, id uint64) *fwdCall {
	p.mu.Lock()
	defer p.mu.Unlock()
	call := pc.pending[id]
	delete(pc.pending, id)
	return call
}

// fail tears down a dead connection, resolving EVERY call that was sent
// on it with the transport error — pending calls are scoped to their
// connection, so calls already registered on a successor connection are
// untouched, and no call can be left behind to block forever. A later
// forward redials.
func (p *peer) fail(pc *peerConn, err error) {
	pc.conn.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pc == pc {
		p.pc = nil
	}
	if err == nil {
		err = fmt.Errorf("cluster: connection to %s lost", p.addr)
	}
	for id, call := range pc.pending {
		call.err, call.errIndex = err, -1
		close(call.done)
		delete(pc.pending, id)
	}
}

// close shuts the peer link for good: pending calls fail, later forwards
// refuse.
func (p *peer) close() {
	p.mu.Lock()
	p.closed = true
	pc := p.pc
	p.mu.Unlock()
	if pc != nil {
		pc.conn.Close() // readLoop notices and fails the pending calls
	}
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
	// + args, the text included for first-contact registration. A plain
	// text statement ships as a hash-0 text statement.
	stmts := make([]wire.Stmt, len(txs))
	for i, tx := range txs {
		stmts[i] = wire.Stmt{
			Origin: tx.Origin, Seq: tx.Seq,
			Hash: tx.PrepHash, Text: tx.Query, HasText: true,
			Args: tx.PrepArgs,
		}
	}
	call := &fwdCall{n: len(txs), done: make(chan struct{}), tr: tr}
	if err := p.send(call, wire.FwdTagged|wire.FwdNoForward|wire.FwdEpoch, epoch, stmts); err != nil {
		call.err, call.errIndex = err, -1
		close(call.done)
	}
	for i := range txs {
		i, tx := i, txs[i]
		out[i] = lenient.Lazy(func() core.Response {
			<-call.done
			return call.response(i, tx)
		})
	}
}

// send writes one Request frame for stmts — behind a TraceCtx frame when
// the call's trace is sampled — and registers its call.
func (p *peer) send(call *fwdCall, flags byte, epoch uint64, stmts []wire.Stmt) error {
	p.mu.Lock()
	pc, err := p.ensureLocked()
	if err != nil {
		p.mu.Unlock()
		return err
	}
	id := p.nextID
	p.nextID++
	// Frame the request in the peer's reused encode buffer (guarded by
	// p.mu, like everything else on the send path): zero steady-state
	// allocation per forwarded frame.
	var mark int
	p.enc, mark = wire.BeginFrame(wire.AppendTraceFrame(p.enc[:0], call.tr.Ctx()), wire.FrameRequest)
	if p.enc, err = wire.AppendRequest(p.enc, id, flags, epoch, stmts); err == nil {
		p.enc, err = wire.EndFrame(p.enc, mark)
	}
	if err != nil {
		p.mu.Unlock()
		return err
	}
	pc.pending[id] = call
	if call.tr != nil {
		call.sentNS = time.Now().UnixNano()
	}
	if _, err = pc.bw.Write(p.enc); err == nil {
		err = pc.bw.Flush()
	}
	if cap(p.enc) > maxPeerEncodeBuf {
		p.enc = nil // one giant batch must not pin its high-water mark
	}
	if err == nil {
		p.frames.Inc()
		p.mu.Unlock()
		return nil
	}
	// The connection is wedged. Report this call's failure to the caller,
	// then fail the connection — which resolves every OTHER call in
	// flight on it, so nothing is left blocking on a reply that can never
	// arrive. fail retakes the mutex.
	delete(pc.pending, id)
	p.mu.Unlock()
	p.fail(pc, fmt.Errorf("cluster: connection to %s lost: %w", p.addr, err))
	return fmt.Errorf("cluster: forward to %s: %w", p.addr, err)
}

// response shapes statement i's answer out of the frame's shared reply.
func (c *fwdCall) response(i int, tx core.Transaction) core.Response {
	resp := core.Response{Origin: tx.Origin, Seq: tx.Seq, Kind: tx.Kind}
	switch {
	case c.redirect != "":
		resp.Err = fmt.Errorf("cluster: placement disagreement: peer redirected to %s", c.redirect)
	case c.err != nil && (c.errIndex < 0 || c.errIndex == i):
		resp.Err = c.err
	case c.err != nil:
		resp.Err = fmt.Errorf("cluster: forwarded batch failed at statement %d: %v", c.errIndex, c.err)
	case i < len(c.resps):
		return c.resps[i]
	default:
		resp.Err = fmt.Errorf("cluster: short forward reply (%d of %d)", len(c.resps), c.n)
	}
	return resp
}

// Peer-link buffer sizing: explicit rather than bufio's 4 KiB default.
// The read side carries batched responses and the replication stream;
// the write side stays small because Request frames are pre-assembled in
// the peer's encode buffer.
const (
	peerReadBufSize  = 16 << 10
	peerWriteBufSize = 4 << 10
	// maxPeerEncodeBuf caps the Request buffer retained between sends.
	maxPeerEncodeBuf = 256 << 10
)
