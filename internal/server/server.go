// Package server is the network front end over funcdb stores: a TCP
// listener whose connections each drive one session (internal/session)
// speaking the framed protocol of internal/wire.
//
// The server exists so that disjoint network clients land on disjoint
// admission lanes: each connection is its own goroutine and its own
// session, and a connection's buffered requests are admitted through
// Session.Flush as ONE lane-split SubmitBatch — one network read becomes
// one merge arbitration, the Calvin-style batched sequencing the ROADMAP
// names. Pipelining is adaptive: the handler keeps queueing statements
// while more frames are already buffered on the socket, and flushes —
// admitting and answering everything queued, in order — the moment the
// read would block.
//
// One listener can host many stores: the Hello frame names a database
// (an empty name lands on "main"), and each connection is bound to that
// database's Host for its lifetime.
//
// A Host is either a plain store or a cluster node, which additionally
// implements Cluster: placement (a misrouted tagged Request is answered
// with a Redirect), replica reads, epoch fencing, heartbeats, and the
// slot logs a Subscribe frame turns a connection into (LogRecord frames —
// the archive's records, reframed one frame per record, each sampled one
// behind its commit's TraceCtx frame — whose SubAcks feed the
// subscription's write-ack gate).
//
// Every reply that answers statements leaves only once its answers are
// durable: a durable store's response futures resolve only once the
// version they answer is on disk, and the handler forces a flush's futures
// before it encodes the replies.
//
// Shutdown drains gracefully: stop accepting, unblock every connection's
// pending read, let each handler answer what it has fully read, then
// barrier the stores so every admitted commit, acked or not, is durable
// before the process exits.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"funcdb/internal/archive"
	"funcdb/internal/core"
	"funcdb/internal/metrics"
	"funcdb/internal/query"
	"funcdb/internal/reqtrace"
	"funcdb/internal/session"
	"funcdb/internal/value"
	"funcdb/internal/wire"
)

// Host is the store surface a server hosts: the session factory plus the
// handshake, drain and introspection hooks. *funcdb.Store implements it; a
// cluster node implements it over its routing submitter.
type Host interface {
	// Session opens a per-connection execution context with its own
	// origin tag and sequence space.
	Session(origin string) *session.Session
	// Lanes reports the admission lane count (Welcome carries it).
	Lanes() int
	// Durable reports whether committed writes reach an archive.
	Durable() bool
	// Barrier waits for every admitted transaction, including its durable
	// record.
	Barrier()
	// DurabilityErr reports the sticky durability failure, if any.
	DurabilityErr() error
	// MetricsSnapshot reads the host's metrics (a stats Introspect frame).
	MetricsSnapshot() metrics.Snapshot
	// TraceRecorder returns the host's trace recorder, nil when tracing is
	// off: the handler then serves every request untraced at zero cost.
	// With one, it opens a trace per request (continuing the context of a
	// TraceCtx frame when the client sent one), brackets the conn-read,
	// decode, encode and flush stages onto it, and a traces Introspect
	// frame answers with the recorder's published traces.
	TraceRecorder() *reqtrace.Recorder
}

// Cluster is implemented by hosts that are cluster nodes: placement,
// replica reads, fencing, heartbeats and slot-log streams. A host without
// it serves every statement itself and refuses heartbeats and log
// subscriptions.
type Cluster interface {
	// Owner reports the advertised address of the node serving rel's
	// primary and whether that node is this host.
	Owner(rel string) (addr string, self bool)
	// ReplicaRead serves a read-only transaction from the freshest local
	// copy, stamping Response.Version with the copy's applied version;
	// ok=false means no local copy covers the relation.
	ReplicaRead(tx core.Transaction) (fut *session.Future, ok bool)
	// FenceForward refuses a statement for a slot the host does not serve
	// in the frame's epoch.
	FenceForward(rel string, epoch uint64, hasEpoch bool) error
	// OwnerEpoch reports the newest known epoch for a relation's slot
	// (stamped into Redirects so the sender re-resolves with it).
	OwnerEpoch(rel string) uint64
	// HandleHeartbeat merges a FrameHeartbeat's view and answers with the
	// host's own (ok=false answers nothing: the host keeps no leases).
	HandleHeartbeat(hb wire.Heartbeat) (ack wire.Heartbeat, ok bool)
	// SubscribeSlotLog streams a slot's epoch-stamped log, one record at a
	// time — its version span, form and bytes — each with the trace context
	// of the commit that wrote it (the stream sends a sampled one as a
	// TraceCtx frame ahead of the record, so a replica's apply span joins
	// the trace). The callback contract is archive.TailFunc's: records
	// arrive in commit order, under the log mutex — hand off, don't block.
	// The subscriber counts toward the host's write-ack gate until cancel;
	// ack reports that it has applied the log through version seq.
	SubscribeSlotLog(slot, subscriber int, after int64, fn func(first, last int64, epoch uint64, ctx reqtrace.Ctx, form byte, record []byte)) (ack func(seq int64), cancel func(), err error)
}

// Server serves the wire protocol over one or more hosts.
type Server struct {
	hosts map[string]Host
	ln    net.Listener

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup // one per live connection handler
	draining atomic.Bool
	nconn    atomic.Int64

	// m is always allocated: the wire front end is instrumented
	// unconditionally, because every cost here is already dwarfed by a
	// network round trip. Hot-path opt-outs live below (engine, archive).
	m *metrics.Server
}

// New wraps a single store in a server, hosted under the default
// database name ("main"). The server does not own the store: the caller
// closes it after Shutdown.
func New(store Host) *Server {
	return NewMulti(map[string]Host{wire.DefaultDatabase: store})
}

// NewMulti wraps several stores in one server, each hosted under its
// database name: one listener, many stores. Connections choose with the
// Hello database field; an empty one lands on wire.DefaultDatabase.
func NewMulti(hosts map[string]Host) *Server {
	hs := make(map[string]Host, len(hosts))
	for name, h := range hosts {
		hs[name] = h
	}
	return &Server{hosts: hs, conns: make(map[net.Conn]struct{}), m: &metrics.Server{}}
}

// Metrics returns the server's own instrumentation, for aggregation into
// a host-level snapshot.
func (s *Server) Metrics() *metrics.Server { return s.m }

// Listen binds the listener. addr is a TCP address; ":0" picks a free
// port (Addr reports it).
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.ln = ln
	return nil
}

// AttachListener serves on an already-bound listener (ownership
// transfers to the server). It solves cluster bootstrap: every node
// needs the full membership's addresses before any node is constructed,
// so the caller binds all listeners first and hands them over.
func (s *Server) AttachListener(ln net.Listener) { s.ln = ln }

// Addr returns the bound listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Serve accepts connections until the listener closes (Shutdown). Each
// connection runs in its own goroutine. Serve returns nil on a clean
// shutdown.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.mu.Lock()
		if s.draining.Load() {
			// Shutdown won the race: refuse rather than start a handler
			// the drain will not see.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Shutdown drains the server: stop accepting, unblock every connection's
// pending read so its handler can answer what it has fully read and
// close, wait for all handlers, then barrier every host, so every
// admitted write is on disk when Shutdown returns (every acked one was
// before its reply left). The stores themselves stay open.
func (s *Server) Shutdown() error {
	s.draining.Store(true)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.mu.Lock()
	for conn := range s.conns {
		// A handler blocked in read wakes immediately with a timeout and
		// runs its drain path; a handler mid-request finishes writing its
		// replies first (the deadline only gates reads).
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.wg.Wait()
	for _, h := range s.hosts {
		h.Barrier()
		if derr := h.DurabilityErr(); derr != nil {
			return derr
		}
	}
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// Abort hard-stops the server: the listener and every live connection
// close immediately, with no drain and no host barrier — in-flight
// requests are simply cut. It is the in-process stand-in for a process
// crash (fault-injection tests, the benchmark's primary kill); everything
// a real SIGKILL would lose, Abort loses too.
func (s *Server) Abort() {
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// reply is one pending answer on a connection, kept in request order.
type reply struct {
	id       uint64
	fut      *session.Future    // one-statement request
	futs     []*session.Future  // any other statement count (non-nil)
	qerr     error              // resolution/bind/routing failure: nothing admitted
	index    int                // failing statement index, else -1
	redirect string             // FrameRedirect: the owning node's address
	rel      string             // FrameRedirect: the relation being placed
	rdEpoch  uint64             // FrameRedirect: owner epoch
	doc      []byte             // FrameIntrospectResponse: the JSON document
	raw      []byte             // pre-encoded payload (heartbeat acks)
	rawType  byte               // frame type for raw
	lat      *metrics.Histogram // response latency histogram (requests only)
	start    time.Time          // request read off the socket (latency epoch)
	tr       *reqtrace.T        // live trace (nil untraced): encode/flush spans, Finish
}

// handle drives one connection: handshake, then a read loop that queues
// statements into the session and flushes (admit + answer, in order)
// whenever the socket has no more buffered frames.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	br := bufio.NewReaderSize(conn, connReadBufSize)
	bw := bufio.NewWriterSize(conn, connWriteBufSize)
	rd := wire.NewReader(br)

	typ, payload, err := rd.Next()
	if err != nil || typ != wire.FrameHello {
		return // not speaking our protocol; nothing was admitted
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		// A Hello we cannot accept — most often another protocol version —
		// is refused with the reason, so the peer reports more than EOF.
		refuse(bw, err.Error())
		return
	}
	if hello.Database == "" {
		hello.Database = wire.DefaultDatabase
	}
	host, ok := s.hosts[hello.Database]
	if !ok {
		refuse(bw, fmt.Sprintf("server: unknown database %q", hello.Database))
		return
	}
	origin := hello.Origin
	if origin == "" {
		origin = fmt.Sprintf("conn%d", s.nconn.Add(1))
	}
	welcome := wire.AppendWelcome(nil, wire.Welcome{
		Lanes:    host.Lanes(),
		Durable:  host.Durable(),
		Origin:   origin,
		Database: hello.Database,
	})
	if err := wire.WriteFrame(bw, wire.FrameWelcome, welcome); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}

	s.m.ConnsTotal.Inc()
	s.m.Conns.Add(1)
	var nreq int64
	defer func() {
		s.m.Conns.Add(-1)
		s.m.ReqPerConn.Observe(nreq)
	}()

	sess := host.Session(origin)
	cl, _ := host.(Cluster) // nil for a plain store
	// rec is the host's trace recorder; nil means tracing off, and every
	// instrumentation site below is one pointer comparison.
	rec := host.TraceRecorder()
	var (
		pending []reply
		rb      replyBuf
		// req is the request decode scratch, reused frame to frame: its
		// statements and args decode with zero amortized allocation, and
		// binding copies every value out before the next frame overwrites
		// it. txScratch is the bind target (the session copies what it
		// queues).
		req       wire.Request
		txScratch []core.Transaction
	)

	// flush admits every queued statement in one batch and writes the
	// replies in request order. Responses are forced in order — the
	// session's pipelining discipline.
	flush := func() bool {
		if len(pending) == 0 {
			return true
		}
		sess.Flush()
		err := rb.encode(pending)
		pending = pending[:0]
		if err != nil {
			return false
		}
		var flushStart time.Time
		if len(rb.trs) > 0 {
			flushStart = time.Now()
		}
		if _, err := bw.Write(rb.out); err != nil {
			return false
		}
		if cap(rb.out) > maxConnEncodeBuf {
			// One oversized scan response must not pin its high-water mark
			// for the connection's lifetime.
			rb.out = nil
		}
		ok := bw.Flush() == nil
		// The batch is on the wire: close each trace's flush span and run
		// admission. Its writes were durable before it was encoded, so
		// every group-commit-fsync span is already recorded.
		if len(rb.trs) > 0 {
			end := time.Now()
			for _, t := range rb.trs {
				t.Span(reqtrace.StageFlush, flushStart, end)
				rec.Finish(t)
			}
			rb.trs = rb.trs[:0]
		}
		return ok
	}

	// startTrace opens the per-request trace once the frame is decoded:
	// continuing the context of the TraceCtx frame that preceded it, fresh
	// otherwise. The conn-read and decode stages already happened —
	// readStart brackets the blocking read (from the TraceCtx frame on),
	// start the decode; decode ends here. Untraced hosts return nil and
	// never read a clock.
	var readStart time.Time
	startTrace := func(tc reqtrace.Ctx, start time.Time) *reqtrace.T {
		if rec == nil {
			return nil
		}
		t := rec.StartCtx(tc)
		t.Span(reqtrace.StageConnRead, readStart, start)
		t.Span(reqtrace.StageDecode, start, time.Now())
		return t
	}

	// tc is the context of a TraceCtx frame just read, for the request
	// frame that must follow it; hasTC marks one pending.
	var tc reqtrace.Ctx
	var hasTC bool
	for {
		if rec != nil && !hasTC {
			readStart = time.Now()
		}
		typ, payload, err := rd.Next()
		if err != nil {
			// EOF, a drain deadline, or a broken peer: answer everything
			// fully read (those requests may already be admitted), then
			// close. Nothing half-read was ever queued.
			flush()
			return
		}
		if typ == wire.FrameTraceCtx {
			c, derr := wire.DecodeTraceCtx(payload)
			if derr != nil || hasTC {
				flush()
				return
			}
			tc, hasTC = c, true
			continue // the frame it annotates follows
		}
		if hasTC && typ != wire.FrameRequest {
			// A context must annotate a request: anything else is a
			// protocol error, like an unknown frame.
			flush()
			return
		}
		reqTC := tc
		tc, hasTC = reqtrace.Ctx{}, false
		nreq++
		switch typ {
		case wire.FrameRequest:
			start := time.Now()
			if derr := wire.DecodeRequestInto(payload, &req); derr != nil {
				flush()
				return
			}
			tr := startTrace(reqTC, start)
			var rp reply
			rp, txScratch = s.request(cl, sess, &req, txScratch, tr)
			rp.start, rp.tr = start, tr
			pending = append(pending, rp)

		case wire.FrameHeartbeat:
			hb, derr := wire.DecodeHeartbeat(payload)
			if derr != nil {
				flush()
				return
			}
			if cl == nil {
				flush()
				return
			}
			ack, ok := cl.HandleHeartbeat(hb)
			if !ok {
				flush()
				return
			}
			pending = append(pending, reply{raw: wire.AppendHeartbeat(nil, ack), rawType: wire.FrameHeartbeatAck})

		case wire.FrameIntrospect:
			id, kind, derr := wire.DecodeIntrospect(payload)
			if derr != nil {
				flush()
				return
			}
			rp := reply{id: id}
			if kind == wire.IntrospectStats {
				s.m.StatsReqs.Inc()
				rp.doc = s.statsJSON(host)
			} else {
				rp.doc = s.tracesJSON(host)
			}
			pending = append(pending, rp)

		case wire.FrameSubscribe:
			after, slot, sub, derr := wire.DecodeSubscribe(payload)
			if derr != nil || !flush() {
				return
			}
			s.m.Subscribes.Inc()
			if cl == nil {
				refuse(bw, "server: host serves no replication stream")
				return
			}
			s.streamSlotLog(rd, bw, cl, slot, sub, after)
			return

		case wire.FrameQuit:
			flush()
			return

		default:
			// Unknown frame type: protocol error, close after answering
			// what we have.
			flush()
			return
		}

		// Adaptive batching: keep queueing while the socket already holds
		// more frames; admit and answer the moment the next read would
		// block. maxPipeline bounds the requests a connection may have
		// queued and unanswered.
		if br.Buffered() == 0 || len(pending) >= maxPipeline {
			if !flush() {
				return
			}
		}
	}
}

// replyBuf is a connection's reply encoder, reused flush to flush.
type replyBuf struct {
	// out is the reused response buffer: every reply of a flush is framed
	// in place (BeginFrame + payload appenders + EndFrame) and the whole
	// batch leaves in ONE write — no per-reply staging buffer, no
	// per-frame allocation.
	out []byte
	// trs collects the live traces of one flush so their flush span and
	// Finish run after the batch leaves the socket.
	trs []*reqtrace.T
	// resps is reused across batch replies; AppendResponses copies
	// everything it encodes, so overwriting next flush is safe.
	resps []core.Response
}

// encode frames every pending reply into out, in request order. It first
// forces every reply's futures — on a gateway, forcing a forwarded
// statement's future is what reads its reply off the peer link, so even
// a batch that fails to encode leaves no reply parked there — and that is
// also the durability wait: a durable store's future resolves only once
// its answer is on disk, so no reply of the batch is encoded before then.
func (b *replyBuf) encode(pending []reply) error {
	b.out = b.out[:0]
	b.trs = b.trs[:0]
	for i := range pending {
		rp := &pending[i]
		if rp.fut != nil {
			rp.fut.Force()
		}
		for _, f := range rp.futs {
			f.Force()
		}
	}
	for i := range pending {
		rp := &pending[i]
		var encStart time.Time
		if rp.tr != nil {
			encStart = time.Now()
		}
		var err error
		if b.out, err = b.frame(b.out, rp); err != nil {
			return err
		}
		if rp.tr != nil {
			rp.tr.Span(reqtrace.StageEncode, encStart, time.Now())
			b.trs = append(b.trs, rp.tr)
		}
		// Response latency by request shape, socket-read to
		// response-written: what the client experiences minus the
		// network, queue wait under adaptive batching included.
		if rp.lat != nil {
			rp.lat.Since(rp.start)
		}
	}
	return nil
}

// frame appends rp's reply frame to out; its futures are already forced.
func (b *replyBuf) frame(out []byte, rp *reply) ([]byte, error) {
	var mark int
	var err error
	switch {
	case rp.qerr != nil:
		// A failing statement ships the underlying message plus its index;
		// a batch-executing client re-wraps it as a BatchError, so local
		// and remote error text come out identical.
		out, mark = wire.BeginFrame(out, wire.FrameError)
		out = wire.AppendErrorMsg(out, rp.id, rp.index, rp.qerr.Error())
	case rp.redirect != "":
		out, mark = wire.BeginFrame(out, wire.FrameRedirect)
		out = wire.AppendRedirect(out, rp.id, rp.redirect, rp.rel, rp.rdEpoch)
	case rp.raw != nil:
		out, mark = wire.BeginFrame(out, rp.rawType)
		out = append(out, rp.raw...)
	case rp.doc != nil:
		out, mark = wire.BeginFrame(out, wire.FrameIntrospectResponse)
		out = wire.AppendIntrospectResponse(out, rp.id, rp.doc)
	case rp.futs != nil:
		if cap(b.resps) < len(rp.futs) {
			b.resps = make([]core.Response, len(rp.futs))
		}
		resps := b.resps[:len(rp.futs)]
		for j, f := range rp.futs {
			resps[j] = f.Force()
		}
		out, mark = wire.BeginFrame(out, wire.FrameBatchResponse)
		if out, err = wire.AppendResponses(out, rp.id, resps); err != nil {
			return out[:mark], err
		}
	default:
		out, mark = wire.BeginFrame(out, wire.FrameResponse)
		if out, err = wire.AppendSingleResponse(out, rp.id, rp.fut.Force()); err != nil {
			return out[:mark], err
		}
	}
	return wire.EndFrame(out, mark)
}

// refuse answers a handshake or subscription the server will not serve:
// a FrameError with id 0 and index -1, the pre-session failure.
func refuse(bw *bufio.Writer, msg string) {
	if wire.WriteFrame(bw, wire.FrameError, wire.AppendErrorMsg(nil, 0, -1, msg)) == nil {
		bw.Flush()
	}
}

// statsJSON builds the IntrospectStats document: the host's snapshot with
// the server's own section stamped in. Always non-nil — a Stats request is
// never unanswerable.
func (s *Server) statsJSON(host Host) []byte {
	snap := host.MetricsSnapshot()
	srv := s.m.Snapshot()
	snap.Server = &srv
	doc, err := json.Marshal(snap)
	if err != nil {
		return []byte("{}")
	}
	return doc
}

// tracesJSON builds the IntrospectTraces document: the host
// recorder's published traces as a JSON array. Always non-nil — a host
// without tracing answers an empty array, not an error, so clients can
// probe without knowing the server's configuration.
func (s *Server) tracesJSON(host Host) []byte {
	traces := host.TraceRecorder().Traces()
	if len(traces) == 0 {
		return []byte("[]")
	}
	doc, err := json.Marshal(traces)
	if err != nil {
		return []byte("[]")
	}
	return doc
}

// request admits one FrameRequest, all or nothing: every statement is
// resolved before any is queued, so a failure admits none of it. Tagged
// requests keep their statements' tags and take the placement path
// (routeForward); untagged ones are queued under the session's tags. A
// zero-statement request is answered by an empty BatchResponse without
// touching routing. txScratch is the connection's reused bind target; the
// returned slice keeps its growth.
func (s *Server) request(cl Cluster, sess *session.Session, req *wire.Request, txScratch []core.Transaction, tr *reqtrace.T) (reply, []core.Transaction) {
	rp := reply{id: req.ID, index: -1}
	tagged := req.Flags&wire.FwdTagged != 0
	switch {
	case tagged:
		s.m.Forwards.Inc()
		rp.lat = &s.m.LatencyForward
	case len(req.Stmts) == 1:
		s.m.Execs.Inc()
		rp.lat = &s.m.LatencyExec
	default:
		s.m.Batches.Inc()
		rp.lat = &s.m.LatencyBatch
	}
	for _, st := range req.Stmts {
		if st.Hash != 0 {
			s.m.PreparedExecs.Inc()
			break
		}
	}
	if len(req.Stmts) == 0 {
		rp.futs = []*session.Future{}
		return rp, txScratch
	}
	if cap(txScratch) < len(req.Stmts) {
		txScratch = make([]core.Transaction, len(req.Stmts))
	}
	txs := txScratch[:len(req.Stmts)]
	if rp.index, rp.qerr = s.resolve(cl, sess, req, txs, tr); rp.qerr != nil {
		return rp, txScratch
	}
	if tagged {
		return s.routeForward(cl, sess, rp, req.Flags, req.Epoch, txs), txScratch
	}
	return queue(rp, sess, txs, false), txScratch
}

// resolve binds every statement of req into txs against the session's
// (node- or store-wide) cache: by text hash, then by the text itself when
// the sender included one — prepared as a template when hashed, so the
// next hash-only call hits, and translated as a plain statement when not.
// A statement that resolves nowhere fails with query.ErrUnknownStmt: the
// sender re-sends with text, and a stale hash never resolves to a stale
// plan. A statement whose text does not hash to its hash is refused before
// any lookup: caching the text under the text's own hash would leave the
// sender believing the server holds the hash it sent, so every later
// hash-only call would bounce. On failure it returns the
// failing statement's index: the position inside THIS request, which a
// gateway that built the request remaps to its client's batch position.
func (s *Server) resolve(cl Cluster, sess *session.Session, req *wire.Request, txs []core.Transaction, tr *reqtrace.T) (int, error) {
	tagged := req.Flags&wire.FwdTagged != 0
	// Only a tagged request can forbid forwarding: a cluster host may
	// forward an untagged statement onward whatever its flags.
	onward := cl != nil && !(tagged && req.Flags&wire.FwdNoForward != 0)
	for i := range req.Stmts {
		st := &req.Stmts[i]
		if st.HasText && st.Hash != 0 && query.HashText(st.Text) != st.Hash {
			return i, fmt.Errorf("server: statement hash %#x does not match its text", st.Hash)
		}
		var prep *query.Prepared
		var ok bool
		if st.Hash != 0 {
			prep, ok = sess.PreparedByHash(st.Hash)
		}
		var tx core.Transaction
		var err error
		switch {
		case ok:
			tx, err = prep.Bind(st.Args...)
		case st.HasText && st.Hash != 0:
			if prep, err = sess.Prepare(st.Text); err == nil {
				tx, err = prep.Bind(st.Args...)
			}
		case st.HasText:
			tx, err = sess.Translate(st.Text)
		default:
			s.m.UnknownStmts.Inc()
			err = query.ErrUnknownStmt
		}
		if err != nil {
			return i, err
		}
		if prep != nil {
			tx.PrepHash = prep.Hash()
			if onward {
				if _, self := cl.Owner(tx.Rel); !self {
					// This host forwards the statement onward: a bound
					// transaction has no rebindable text form, so carry a
					// private copy of the args (st.Args aliases the
					// connection's decode scratch).
					tx.PrepArgs = append([]value.Item(nil), st.Args...)
				}
			}
		}
		if tagged {
			tx.Origin, tx.Seq = st.Origin, st.Seq
		}
		tx.Trace = tr
		txs[i] = tx
	}
	return -1, nil
}

// routeForward admits a tagged request's resolved transactions: placement
// check, replica reads, fencing, then tagged admission. A plain store
// admits them as they are. On a cluster host, read-only statements with
// FwdReadLocal are served from the host's replica layer first, whoever
// owns them: a non-owner answers from its log-shipped mirror, the owner
// from its own store — both stamp Response.Version, so the client always
// learns its staleness bound (zero at the owner). Otherwise ownership is
// checked against the host's placement: a request for a relation owned
// elsewhere is answered with a Redirect when the sender asked not to
// chain. All statements of one request must route the same way: senders
// group by owner, so a mixed request is a protocol error.
//
// Requests that would execute here are first checked against the slot's
// epoch (FwdEpoch-stamped requests carry the sender's belief): a stale
// sender is refused, not served, and the error crosses back as text — the
// sender re-resolves placement. Replica reads skip the fence; they are
// stamped with their version and legal anywhere. txs is only read during
// the call — callers may reuse the slice (the session copies each
// transaction it queues).
func (s *Server) routeForward(cl Cluster, sess *session.Session, rp reply, flags byte, epoch uint64, txs []core.Transaction) reply {
	if cl == nil {
		return queue(rp, sess, txs, true)
	}
	addr0, self0 := cl.Owner(txs[0].Rel)
	for _, tx := range txs[1:] {
		addr, self := cl.Owner(tx.Rel)
		if self != self0 || (!self && addr != addr0) {
			rp.qerr = errors.New("server: forward frame mixes statement owners")
			return rp
		}
	}

	if flags&wire.FwdReadLocal != 0 && allReadOnly(txs) {
		if futs, served := replicaReads(cl, txs); served {
			if len(futs) == 1 {
				rp.fut = futs[0]
			} else {
				rp.futs = futs
			}
			return rp
		}
		// No local copy covers the relation (the host's own slot before it
		// may serve it): fall back to redirect/forward, so the owner serves
		// a fresh read instead.
	}

	if !self0 {
		if flags&wire.FwdNoForward != 0 {
			rp.redirect, rp.rel, rp.rdEpoch = addr0, txs[0].Rel, cl.OwnerEpoch(txs[0].Rel)
			return rp
		}
		// No flag: fall through to the session, whose submitter (the
		// cluster node) forwards onward — at most one extra hop, because
		// node-to-node forwards always set FwdNoForward.
	} else if ferr := cl.FenceForward(txs[0].Rel, epoch, flags&wire.FwdEpoch != 0); ferr != nil {
		rp.qerr = ferr
		return rp
	}
	return queue(rp, sess, txs, true)
}

// queue puts txs into the session's pipeline — under their own tags when
// tagged, under the session's otherwise — and shapes the reply: one
// statement answers as a FrameResponse, several as a FrameBatchResponse.
func queue(rp reply, sess *session.Session, txs []core.Transaction, tagged bool) reply {
	enqueue := sess.QueueTx
	if tagged {
		enqueue = sess.QueueTagged
	}
	if len(txs) == 1 {
		// The one-statement request is every client's hot path: skip the
		// future-slice allocation entirely.
		rp.fut = enqueue(txs[0])
		return rp
	}
	rp.futs = make([]*session.Future, len(txs))
	for i, tx := range txs {
		rp.futs[i] = enqueue(tx)
	}
	return rp
}

// replicaReads serves every transaction from the host's replicas, or
// reports served=false (nothing submitted) if any lacks one.
func replicaReads(cl Cluster, txs []core.Transaction) (futs []*session.Future, served bool) {
	futs = make([]*session.Future, len(txs))
	for i, tx := range txs {
		fut, ok := cl.ReplicaRead(tx)
		if !ok {
			return nil, false
		}
		futs[i] = fut
	}
	return futs, true
}

// allReadOnly reports whether every transaction is read-only (the
// precondition for serving from a replica).
func allReadOnly(txs []core.Transaction) bool {
	for _, tx := range txs {
		if !tx.IsReadOnly() {
			return false
		}
	}
	return true
}

// streamSlotLog turns the connection into a slot's log-shipping stream:
// every version after after, one epoch-stamped FrameLogRecord frame per
// archive record (a sampled commit's TraceCtx frame ahead of it), until
// either side closes. Records are framed on the commit path straight into
// the stream's queue (the tail callback must never block the log mutex),
// then written from this handler goroutine, everything queued since the
// last write in one write. A watcher goroutine consumes the read side: the
// subscriber acks the last version it has applied with cumulative
// FrameSubAck frames — one per stretch of records it applied together —
// handed to the subscription's ack, where they gate the primary's write
// acknowledgements (semi-synchronous replication), and any other read
// result — EOF, the drain deadline — ends the stream.
func (s *Server) streamSlotLog(rd *wire.Reader, bw *bufio.Writer, cl Cluster, slot, sub int, after int64) {
	q := &recQueue{}
	q.cond.L = &q.mu
	ack, cancel, err := cl.SubscribeSlotLog(slot, sub, after, func(_, _ int64, epoch uint64, ctx reqtrace.Ctx, form byte, record []byte) {
		q.push(ctx, epoch, form, record)
	})
	if err != nil {
		refuse(bw, err.Error())
		return
	}
	defer cancel()
	go func() {
		for {
			typ, payload, err := rd.Next()
			if err != nil || typ != wire.FrameSubAck {
				break
			}
			seq, derr := wire.DecodeSubAck(payload)
			if derr != nil {
				break
			}
			ack(seq)
		}
		q.closeQueue()
	}()
	for {
		frames, open := q.pop()
		if _, err := bw.Write(frames); err != nil {
			return
		}
		if bw.Flush() != nil {
			return
		}
		if !open {
			return
		}
	}
}

// recQueue is the hand-off between the commit-path tail callback and the
// stream writer: the callback frames each record straight into one buffer
// while the writer drains the other. It is bounded: a push that finds more
// than maxQueued bytes already queued — a subscriber that stopped reading —
// closes the queue. The writer then sends what was queued and ends the
// stream, cancel takes the subscriber off the ack gate, and the mirror
// reconnects and catches up from the archive instead of pinning memory.
// A snapshot's pieces are exempt: they are queued first, on subscribe, and
// a subscriber sent only part of one could never advance by reconnecting.
type recQueue struct {
	mu     sync.Mutex
	cond   sync.Cond // on mu: the buffer went from empty to non-empty, or closed
	buf    []byte    // frames queued since the writer's last pop
	spare  []byte    // the buffer the writer drained last, reused for the next fill
	closed bool
}

// push frames one record — its trace context's frame first, for a sampled
// commit — onto the queue. A record too large to frame ends the stream; the
// subscriber's next catch-up is refused with wire.ErrTooLarge instead.
func (q *recQueue) push(tc reqtrace.Ctx, epoch uint64, form byte, record []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	if len(q.buf) > maxQueued && form != archive.FormSnapshotPart && form != archive.FormSnapshot {
		q.closed = true
		q.cond.Broadcast()
		return
	}
	was := len(q.buf)
	buf, mark := wire.BeginFrame(wire.AppendTraceFrame(q.buf, tc), wire.FrameLogRecord)
	buf, err := wire.EndFrame(wire.AppendLogRecord(buf, epoch, form, record), mark)
	if err != nil {
		q.buf = buf[:was]
		q.closed = true
		q.cond.Broadcast()
		return
	}
	q.buf = buf
	if was == 0 {
		q.cond.Signal()
	}
}

func (q *recQueue) closeQueue() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// pop blocks until frames are queued or the queue closes, returning every
// queued frame as one slice and whether the queue is still open. The slice
// is valid until the caller's next pop: the queue holds two buffers and
// swaps them, so the single stream-writer consumer drives a steady state
// with no per-drain allocation; one a burst grew past maxConnEncodeBuf is
// dropped rather than kept.
func (q *recQueue) pop() ([]byte, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 && !q.closed {
		q.cond.Wait()
	}
	if cap(q.spare) > maxConnEncodeBuf {
		q.spare = nil
	}
	frames := q.buf
	q.buf = q.spare[:0]
	q.spare = frames
	return frames, !q.closed
}

// maxQueued bounds the bytes a log stream's queue holds before it drops
// the subscriber. Any single record still fits: the check runs before a
// push, against what is already queued.
const maxQueued = wire.MaxFrameLen

// maxPipeline bounds the replies a connection may have outstanding before
// the handler forces a flush.
const maxPipeline = 1024

// Per-connection buffer sizing. The read buffer is the adaptive-batching
// window: Buffered() only sees frames that fit, so it is sized for a deep
// pipeline of small request frames. The write buffer stays small because
// replies are pre-assembled into the connection's reused encode buffer
// and leave in one Write — bufio passes any write larger than the buffer
// straight through to the socket.
const (
	connReadBufSize  = 16 << 10
	connWriteBufSize = 4 << 10
	// maxConnEncodeBuf caps the response buffer retained between
	// flushes.
	maxConnEncodeBuf = 256 << 10
)
