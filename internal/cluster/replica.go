package cluster

import (
	"bufio"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"funcdb/internal/archive"
	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/lenient"
	"funcdb/internal/metrics"
	"funcdb/internal/relation"
	"funcdb/internal/reqtrace"
	"funcdb/internal/session"
	"funcdb/internal/trace"
	"funcdb/internal/wire"
)

// mirror is this node's replica of one peer's relations: one published
// version of the peer's database, advanced by the peer's log records
// through archive.Replay — the function recovery replays a log with — in
// version order. The peer's log sequence IS the mirror's version number —
// the mirror starts from the same initial version (the peer's owned
// relations, empty, version 0) and applies exactly the peer's committed
// writes — so a read of the mirror carries the precise primary version it
// reflects: the client's staleness bound. A mirror below the log floor of
// the node it streams from — behind a compaction, or a promotion — is sent
// that floor's snapshot first and installs it as its version. A mirror
// ahead of the log — holding versions its owner lost with its disk — is
// refused with archive.ErrAheadOfLog; it resubscribes from below the floor
// and installs the snapshot in place of its own version.
//
// The relations a mirror starts with are FreshRep — paged B+-trees.
// Nothing else here knows the shape, and it is not a mode of the cluster.
// Relations that arrive as data — a create record from the peer, a
// snapshot, the database a rejoin rewinds to — keep the representation
// they were written with, so a mirror may hold a different shape than its
// primary (a primary reopened from an archive written list- or AVL-backed
// stays that way; its peers' mirrors need not be).
type mirror struct {
	peer     int
	db       atomic.Pointer[database.Database]
	records  metrics.Counter // log records applied to this mirror
	connects metrics.Counter // subscription (re)connects to the peer
	resyncs  metrics.Counter // refusals as ahead of the log, each answered by a resync
	// resync marks a subscription started over from below the log floor:
	// its snapshot replaces the mirror's version even where that is ahead.
	// Only the mirror's one replication goroutine touches it.
	resync bool
}

// FreshRep is the representation a cluster's relations start in: a fresh
// node's primary store (funcdb.OpenClusterNode reads it from here), every
// mirror, and so every takeover store a mirror is promoted into. It is the
// engine's default, relation.DefaultRep. The paper ran its experiments on
// linked lists "for simplicity" (Section 4) but argues that trees share
// "all but a proportion (log n)/n of a relation" (Section 2.2) and that the
// tree node should be "one physical page" (Section 3.3): a replicated write
// pays its path copy once per copy, and a page-wide path is ~3 objects
// where a binary one is ~10. It is a constant, not a setting: the
// representation is data, so an archive written in another shape reopens
// in that shape and a mixed cluster is legal.
const FreshRep = relation.DefaultRep

// newMirror starts a mirror of a peer at db: a fresh peer's owned
// relations at version 0, or, on the rejoin path's self-mirror, the
// database rewound to the winner's promotion base.
func newMirror(peerIdx int, db *database.Database) *mirror {
	m := &mirror{peer: peerIdx}
	m.db.Store(db)
	return m
}

// version is the newest primary sequence the mirror has applied.
func (m *mirror) version() int64 { return m.db.Load().Version() }

// apply replays one decoded log record onto the mirror's version and
// publishes the result: an insert run as one relation.UpsertRun, one page
// build whatever the record's length; a delete or create as the write it
// carries. The record must continue the primary's order exactly — its
// first version is applied+1. A hole means the stream skipped something
// the record form cannot carry (a custom transaction on the primary): the
// record is refused with errReplicationGap, rather than silently diverge,
// and so is one that does not replay onto the mirror's version. Only the
// mirror's one subscription applies records, so a load and a store cannot
// interleave with another apply's.
func (m *mirror) apply(r *archive.Record) error {
	db := m.db.Load()
	if r.First != db.Version()+1 {
		return errReplicationGap
	}
	next, err := archive.Replay(db, r)
	if err != nil {
		return errReplicationGap
	}
	m.db.Store(next)
	m.records.Inc()
	return nil
}

// ReplicaRead implements server.Cluster: a read-only built-in statement
// applied to one version of the freshest local copy, stamped with that
// version. A relation owned elsewhere reads its log-shipped mirror's
// version — only records its owner made durable — and is answered at once.
// A relation in a slot this node serves is read through the store
// (ReadStamped), whose future resolves once that version is durable: zero
// staleness, but the same contract, so a client's ExecReplica reports a
// meaningful Version whichever node it happens to dial. ok=false when no
// local copy can serve the read: this node's own slot while it may not
// serve it (probation, or a demotion before rejoin installed its mirror).
func (n *Node) ReplicaRead(tx core.Transaction) (*session.Future, bool) {
	if !tx.IsReadOnly() || tx.Kind == core.KindCustom {
		return nil, false
	}
	slot := OwnerIndex(tx.Rel, len(n.addrs))
	// The slot this node SERVES (own store or takeover) answers with zero
	// staleness; anything else falls to its mirror — including this node's
	// own former slot after a demotion.
	if st, _, _, _ := n.slots.route(slot); st != nil {
		return st.ReadStamped(tx), true
	}
	m := n.mirrorRef(slot)
	if m == nil {
		return nil, false
	}
	db := m.db.Load()
	resp, _, _ := tx.Apply(nil, db, trace.None)
	resp.Version = db.Version()
	return lenient.Ready(resp), true
}

// ReplicaVersion reports the mirror's applied version for a peer, or -1
// without one (introspection for staleness tests and stats).
func (n *Node) ReplicaVersion(peerIdx int) int64 {
	m := n.mirrorRef(peerIdx)
	if m == nil {
		return -1
	}
	return m.version()
}

// replicateFrom pulls one peer's log until the node closes: dial,
// subscribe from the mirror's version, apply records as they stream in,
// and retry after transient failures (the peer restarting, the link
// dropping). A replication gap is permanent for this mirror — it stops
// rather than diverge. A mirror refused as ahead of the log resubscribes at
// once, from below the log floor (mirror.resync).
func (n *Node) replicateFrom(peerIdx int, m *mirror) {
	defer n.wg.Done()
	for !n.closing.Load() {
		if n.slots.ownerOf(peerIdx) == n.id {
			// This node was promoted into the slot: the takeover store is
			// now the authority and the mirror's job is done.
			return
		}
		err := n.streamFrom(peerIdx, m)
		if n.closing.Load() {
			return
		}
		if err == errReplicationGap {
			return
		}
		if err == errAheadOfLog {
			m.resync = true
			m.resyncs.Inc()
			continue
		}
		time.Sleep(replicaRetryDelay)
	}
}

// errReplicationGap marks the unrecoverable stream discontinuity.
var errReplicationGap = fmt.Errorf("cluster: replication gap")

// errAheadOfLog marks a subscription refused because the mirror is ahead
// of the peer's durable log.
var errAheadOfLog = fmt.Errorf("cluster: mirror ahead of the peer's log")

// errNodeClosing reports a dial that lost the race against Close.
var errNodeClosing = fmt.Errorf("cluster: node closing")

// replicaRetryDelay paces re-subscription after a dropped stream.
const replicaRetryDelay = 100 * time.Millisecond

// streamFrom runs one subscription: handshake, Subscribe(after) to the
// peer's slot, then the LogRecord loop (applyStream) until the stream ends.
// The dial target is the slot's CURRENT owner (re-resolved per attempt, so
// a mirror follows its slot across promotions) and the records' epochs are
// checked against the node's.
func (n *Node) streamFrom(peerIdx int, m *mirror) error {
	target := n.slots.ownerOf(peerIdx)
	if target == n.id {
		return nil
	}
	conn, err := n.dial(n.addrs[target])
	if err != nil {
		return err
	}
	if !n.trackConn(conn) {
		// Close won the race against this dial: the conn was refused at
		// registration (and closed), so the loop can only exit.
		conn.Close()
		return errNodeClosing
	}
	defer func() {
		n.untrackConn(conn)
		conn.Close()
	}()

	br := bufio.NewReaderSize(conn, 16<<10) // sized for a burst of log records
	rd := wire.NewReader(br)
	if _, err := wire.Handshake(conn, rd, wire.Hello{Origin: n.origin + "-repl"}); err != nil {
		return fmt.Errorf("cluster: replication handshake with node %d: %w", target, err)
	}
	bw := bufio.NewWriterSize(conn, 4<<10)
	after := m.version()
	if m.resync {
		after = -1 // below any log floor: the peer starts with its snapshot
	}
	if err := wire.WriteFrame(bw, wire.FrameSubscribe, wire.AppendSubscribe(nil, after, peerIdx, n.id)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	m.connects.Inc()
	return n.applyStream(br, rd, bw, peerIdx, target, m)
}

// maxUnacked caps the versions a subscription applies before it acks, so a
// stream whose read buffer never drains still acks as it goes.
const maxUnacked = 1024

// applyStream is a subscription's LogRecord loop. Each record is checked —
// its epoch as it is decoded, its versions by apply — and applied as it
// arrives, straight from the stream's read buffer; every record the buffer
// already holds is applied before one cumulative SubAck carries the last
// version applied — under failover the primary's write gate counts those
// acks. A stream that ends or fails still acks the records it applied
// before the failure.
func (n *Node) applyStream(br *bufio.Reader, rd *wire.Reader, bw *bufio.Writer, peerIdx, target int, m *mirror) error {
	trRec := n.TraceRecorder()
	var ack []byte // one SubAck payload, rewritten per ack
	var dec archive.Decoder
	acked := m.version()
	if m.resync {
		acked = -1 // the snapshot may put the mirror behind what it acked before
	}
	// tc is the context of a TraceCtx frame just read, for the record that
	// must follow it.
	var tc reqtrace.Ctx
	var hasTC bool
	var snap []byte // the snapshot pieces received so far
	// The loop reuses the Reader's body buffer across records: the Decoder
	// and the snapshot decoder copy what they extract out of the payload,
	// and nothing decoded outlives its record's apply.
	for {
		typ, payload, err := rd.Next()
		if err == nil {
			switch {
			case typ == wire.FrameTraceCtx && !hasTC:
				tc, err = wire.DecodeTraceCtx(payload)
				hasTC = err == nil
			case typ == wire.FrameError && !hasTC:
				_, _, msg, derr := wire.DecodeErrorMsg(payload)
				switch {
				case derr != nil:
					err = derr
				case strings.Contains(msg, archive.ErrLogTrimmed.Error()), strings.Contains(msg, wire.ErrTooLarge.Error()):
					// No snapshot to start this mirror from, or a catch-up log
					// record over one frame: redialing cannot bring it up.
					err = errReplicationGap
				case strings.Contains(msg, archive.ErrAheadOfLog.Error()):
					err = errAheadOfLog
				default:
					err = fmt.Errorf("cluster: node %d refused subscription: %s", target, msg)
				}
			case typ != wire.FrameLogRecord:
				err = fmt.Errorf("cluster: unexpected frame %#x in replication stream", typ)
			default:
				// A sampled commit's context arrived just ahead of its record:
				// the mirror's leg of the trace covers the record's apply.
				var rt *reqtrace.T
				if hasTC && tc.Sampled && trRec != nil {
					rt = trRec.StartCtx(tc)
				}
				hasTC = false
				err = n.applyRecord(payload, &dec, &snap, peerIdx, target, m, rt)
			}
		}
		if err == nil && br.Buffered() > 0 && m.version()-acked < maxUnacked {
			continue // more of the stream is already here: apply it before acking
		}
		if v := m.version(); v > acked {
			ack = wire.AppendSubAck(ack[:0], v)
			werr := wire.WriteFrame(bw, wire.FrameSubAck, ack)
			if werr == nil {
				werr = bw.Flush()
			}
			if err == nil {
				err = werr
			}
			acked = v
		}
		if err != nil {
			return err
		}
	}
}

// applyRecord checks one LogRecord payload's epoch, decodes its record and
// applies it to the mirror — or, for a snapshot, joins its pieces in snap
// and installs it once the last arrives. rt, when non-nil, is the mirror's
// leg of a sampled commit's trace: the apply is its replica-apply span. A
// relation born on the peer invalidates the cached statements touching it,
// exactly as after a local create.
func (n *Node) applyRecord(payload []byte, dec *archive.Decoder, snap *[]byte, peerIdx, target int, m *mirror, rt *reqtrace.T) error {
	epoch, form, raw, err := wire.DecodeLogRecord(payload)
	if err != nil {
		return err
	}
	known := n.slots.epochOf(peerIdx)
	if epoch < known {
		// A deposed primary still streaming its old epoch: drop the stream
		// and re-resolve to the real owner.
		return fmt.Errorf("cluster: stale epoch %d on slot %d stream (know %d)", epoch, peerIdx, known)
	}
	if epoch > known {
		// The stream knows of a promotion gossip has not yet delivered: the
		// node we dialed serves this epoch.
		n.slots.noteStreamEpoch(peerIdx, target, epoch)
	}
	switch form {
	case archive.FormSnapshotPart:
		*snap = append(*snap, raw...)
		return nil
	case archive.FormSnapshot:
		if len(*snap) > 0 {
			raw, *snap = append(*snap, raw...), nil
		}
		return n.installSnapshot(raw, m)
	}
	r, err := dec.Decode(form, raw)
	if err != nil {
		return err
	}
	var start time.Time
	if rt != nil {
		start = time.Now()
	}
	if err := m.apply(&r); err != nil {
		return err
	}
	if rt != nil {
		rt.Span(reqtrace.StageReplicaApply, start, time.Now())
		n.TraceRecorder().Finish(rt)
	}
	if r.Kind == core.KindCreate {
		n.cache.InvalidateRel(r.Rel)
	}
	return nil
}

// installSnapshot decodes a snapshot record and publishes it as the
// mirror's version: a version past the mirror's, since the mirror
// subscribed from below it — or, on a resync, whatever version the peer's
// log floor holds. Every relation the mirror did not hold before
// is born here, so the cached statements touching it are invalidated, as
// after a create record.
func (n *Node) installSnapshot(raw []byte, m *mirror) error {
	db, err := database.DecodeSnapshot(raw)
	if err != nil {
		return err
	}
	old := m.db.Load()
	if db.Version() <= old.Version() && !m.resync {
		return errReplicationGap
	}
	m.resync = false
	m.db.Store(db)
	m.records.Inc()
	for _, rel := range db.RelationNames() {
		if _, ok := old.RelationFast(rel); !ok {
			n.cache.InvalidateRel(rel)
		}
	}
	return nil
}

// trackConn registers a replication dial for Close to sever. It reports
// false — refusing the conn — when Close has already swept the list: a
// dial completing after the sweep would otherwise outlive the node and
// wedge Close's wg.Wait on a read nobody will ever unblock.
func (n *Node) trackConn(c closable) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closing.Load() {
		return false
	}
	n.subConns = append(n.subConns, c)
	return true
}

func (n *Node) untrackConn(c closable) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, have := range n.subConns {
		if have == c {
			n.subConns = append(n.subConns[:i], n.subConns[i+1:]...)
			return
		}
	}
}
