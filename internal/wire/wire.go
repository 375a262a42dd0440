// Package wire is the framed network protocol between funcdb clients,
// fdbserver and cluster peers: the session layer's statement/response
// stream, and the replication log, given a byte encoding.
//
// Every frame has the archive's record layout — the archive writes its
// files with BeginFrame/SealFrame and AppendFrame and reads them with
// ReadFrame — so one discipline survives both torn writes and corrupt
// links:
//
//	frame := type:uint8 length:uint32le payload crc:uint32le
//
// The CRC (IEEE 802.3) covers the type byte and the payload, so a frame
// whose length field is corrupted fails its checksum instead of being
// misparsed, and a length limit bounds allocation on corrupt lengths.
//
// There is one protocol revision (Version) and every frame type has
// exactly one payload layout with one encoder and one decoder. Nothing is
// optional inside a payload: a field a sender has no value for is written
// as its zero (a Redirect's unknown epoch is 0, a Request without an
// epoch claim clears FwdEpoch and writes epoch 0).
//
// Every request frame carries a client-chosen request id, echoed on the
// response frame. Ids make pipelining out-of-order-safe: a client may
// have any number of requests in flight and match responses by id, in
// whatever order they arrive — the server happens to reply in admission
// order, but nothing in the protocol depends on it.
//
// A sampled request carries its trace context as a FrameTraceCtx written
// immediately before it (AppendTraceFrame); the receiver applies the
// context to the next frame, which must be a request or, on the
// replication stream, a log record.
//
// Conversation shape:
//
//	client → FrameHello  (magic, protocol version, origin, database)
//	server → FrameWelcome (protocol version, lanes, durable, origin, database)
//	client → [FrameTraceCtx] FrameRequest ...  (pipelined freely)
//	server → FrameResponse | FrameBatchResponse | FrameError | FrameRedirect ...
//	client → FrameQuit, then closes
//
// Statements travel in one frame type, FrameRequest: a list of statements,
// each text or a prepared template plus arguments, tagged either by the
// sender (FwdTagged) or by the receiving session. A prepared template is
// addressed by the FNV-1a hash of its text, and its text rides along until
// the receiver is known to hold it — a rule Conn keeps per connection;
// there is no separate prepare exchange.
// One request is one admission batch: the server resolves the whole list
// and feeds it to the store in a single lane-split SubmitBatch, so a
// network-sized batch pays one arbitration, exactly like an in-process
// ExecBatch.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame types. Values deliberately do not overlap the archive's record
// types (1–4): a frame stream fed to an archive reader (or vice versa)
// fails fast on type, not just CRC. 0x12, 0x13, 0x18, 0x21, 0x22, 0x23,
// 0x24, 0x25, 0x27 and 0x28 belonged to retired protocol revisions and are
// never sent.
const (
	// FrameHello opens a connection (client → server).
	FrameHello byte = 0x10
	// FrameWelcome acknowledges Hello (server → client).
	FrameWelcome byte = 0x11
	// FrameResponse answers a one-statement request: request id, encoded
	// response.
	FrameResponse byte = 0x14
	// FrameBatchResponse answers a request of any other statement count:
	// request id, count, encoded responses in statement order.
	FrameBatchResponse byte = 0x15
	// FrameError reports a request that was never admitted (resolution,
	// translation or bind failure), or a refused handshake or subscription
	// (id 0): request id, failing statement index (-1 when no one
	// statement failed), message.
	FrameError byte = 0x16
	// FrameQuit announces a clean client close.
	FrameQuit byte = 0x17
	// FrameRedirect answers a tagged request for a relation this node
	// does not own when the sender asked not to chain (FwdNoForward):
	// request id, owner address, relation, owner epoch. Clients cache the
	// placement and chase at most one redirect.
	FrameRedirect byte = 0x19
	// FrameSubscribe switches a connection into a slot's replication
	// stream: the versions after after, as FrameLogRecord frames, until
	// either side closes. The subscriber acks what it applied with
	// FrameSubAck.
	FrameSubscribe byte = 0x1a
	// FrameLogRecord carries one archive log record — a single write, or
	// an insert run's consecutive versions: the serving node's epoch for
	// the streamed slot, the record's form, then the record's payload
	// verbatim — the replication stream is the durability log, reframed for
	// the wire, one frame per record. A subscriber behind the serving
	// node's log floor is sent that floor's snapshot first, in pieces of
	// the snapshot forms. A subscriber that knows a higher epoch drops the
	// stream.
	FrameLogRecord byte = 0x1b
	// FrameIntrospect asks the server for an introspection document:
	// request id, kind (IntrospectStats or IntrospectTraces).
	FrameIntrospect byte = 0x1c
	// FrameIntrospectResponse answers FrameIntrospect: request id, then
	// the JSON document. JSON rather than a bespoke binary layout: this is
	// introspection, not a hot path, its schema grows with every
	// instrumented layer, and the same bytes feed fdbrepl, the benchmark
	// and the --debug-addr HTTP endpoints.
	FrameIntrospectResponse byte = 0x1d
	// FrameHeartbeat carries one node's failover view (epoch, owner,
	// applied-seq and promotion-base vectors) to a peer. Answered by
	// FrameHeartbeatAck; either direction refreshes the peer's lease.
	FrameHeartbeat byte = 0x1e
	// FrameHeartbeatAck answers FrameHeartbeat with the receiver's own
	// view — the same payload encoding.
	FrameHeartbeatAck byte = 0x1f
	// FrameSubAck flows from a log subscriber back to the serving node:
	// the last version the subscriber has applied. It is the only frame a
	// subscriber sends after Subscribe, and the primary's write-ack gate
	// waits on it.
	FrameSubAck byte = 0x20
	// FrameRequest submits a list of statements as one admission batch
	// (see Stmt and AppendRequest). With FwdTagged the receiver executes
	// the statements under the sender's tags and routes them by
	// placement — cluster clients and peers own their tag space, which is
	// what keeps a forwarded statement's response byte-identical to local
	// execution; without it the receiving session tags them. A statement
	// the receiver cannot resolve (a hash it never saw or has evicted, sent
	// without text) fails the request with query.ErrUnknownStmt's text —
	// never a stale plan — so the sender re-sends with text.
	// Answered by FrameResponse (one statement), FrameBatchResponse (any
	// other count), FrameError, or FrameRedirect.
	FrameRequest byte = 0x26
	// FrameTraceCtx carries the trace context of the frame that follows
	// it: trace id, hop, flags. Only sampled requests send one, so one
	// trace id stitches client → gateway → owner → mirror.
	FrameTraceCtx byte = 0x29
)

// Request flag bits. FwdTagged selects the tagged path; the other bits
// apply to tagged requests only.
const (
	// FwdNoForward asks the receiver to answer a misrouted statement with
	// FrameRedirect instead of forwarding it onward — set by cluster
	// clients (which chase redirects and cache placement) and on
	// node-to-node forwards (bounding any chain at one hop).
	FwdNoForward byte = 1 << 0
	// FwdReadLocal lets a non-owner serve read-only statements from its
	// local replica, stamping Response.Version with the replica's applied
	// version so the client observes its staleness bound.
	FwdReadLocal byte = 1 << 1
	// FwdEpoch says the sender claims the payload's epoch as the slot's
	// serving epoch. A receiver with a higher epoch rejects the frame —
	// the fence that stops a deposed primary's gateway traffic. Without
	// the bit the epoch field is not a claim and is not fenced on.
	FwdEpoch byte = 1 << 2
	// FwdTagged says the statements carry their final (origin, seq) tags:
	// the receiver keeps them instead of drawing from its session.
	FwdTagged byte = 1 << 3
)

const (
	// Magic identifies a funcdb wire connection ("fDBw"; the archive
	// files use "fDBa").
	Magic = "fDBw"
	// Version is the protocol revision Hello and Welcome carry; a peer
	// announcing any other is refused at the handshake. Revisions 1–5
	// layered optional payload suffixes on one another; 6 replaced them
	// with one layout per frame and the trace context as its own frame; 7
	// replaced six statement-carrying frames with FrameRequest; 8 retired
	// Prepare/Prepared and dense statement ids, so a prepared statement is
	// named by its text hash alone; 9 ships one LogRecord per archive
	// record — an insert run is one — with the record's form ahead of its
	// bytes; 10 adds the snapshot forms, whose pieces start the stream of
	// a subscriber below the serving node's log floor.
	Version = 10
	// MaxFrameLen caps a frame's payload: large enough for any realistic
	// batch or scan response, small enough to bound what a corrupt
	// length field can make a peer allocate.
	MaxFrameLen = 1 << 26 // 64 MiB
	// FrameOverhead is the framing cost per frame: type + length + CRC.
	FrameOverhead = 1 + 4 + 4
)

// ErrCorrupt reports an undecodable frame or payload.
var ErrCorrupt = errors.New("wire: corrupt frame")

// ErrTruncated reports a stream that ends inside a frame: a peer that
// closed mid-write, or an archive file torn by a crash mid-append. It is
// an ErrCorrupt; readers that tolerate a torn tail test for it first.
var ErrTruncated = fmt.Errorf("%w: truncated frame", ErrCorrupt)

// ErrTooLarge reports a frame the protocol refuses to carry.
var ErrTooLarge = errors.New("wire: frame exceeds size limit")

// typCRCSeed[t] is the frame checksum state after hashing just the type
// byte, precomputed for every possible type. The hot path must not
// materialize a 1-byte slice for the type: hash/crc32 dispatches Update
// through an indirect function, so escape analysis heap-allocates any
// stack array passed to it — exactly the per-frame garbage this codec
// exists to remove.
var typCRCSeed = func() (seeds [256]uint32) {
	b := make([]byte, 1)
	for i := range seeds {
		b[0] = byte(i)
		seeds[i] = crc32.Update(0, crc32.IEEETable, b)
	}
	return
}()

// FrameCRC computes the frame checksum over the type byte and payload
// against the IEEE table directly — no digest object, no temporary
// []byte{typ}, nothing the steady state has to allocate.
func FrameCRC(typ byte, payload []byte) uint32 {
	return crc32.Update(typCRCSeed[typ], crc32.IEEETable, payload)
}

// AppendFrame appends one framed message to dst.
func AppendFrame(dst []byte, typ byte, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrameLen {
		return dst, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, FrameCRC(typ, payload)), nil
}

// BeginFrame opens a frame in dst: the type byte and a length placeholder
// are appended, and the caller then appends the payload bytes directly —
// no staging buffer, no payload copy. The returned mark is the frame's
// offset in dst; seal it with EndFrame(dst, mark), or with SealFrame under
// a limit of the caller's own. Frames nest head to tail: a caller may
// Begin/End several frames in one buffer and hand the whole batch to a
// single Write.
func BeginFrame(dst []byte, typ byte) ([]byte, int) {
	mark := len(dst)
	dst = append(dst, typ, 0, 0, 0, 0)
	return dst, mark
}

// EndFrame seals a frame opened by BeginFrame under the wire's limit:
// SealFrame(dst, mark, MaxFrameLen).
func EndFrame(dst []byte, mark int) ([]byte, error) { return SealFrame(dst, mark, MaxFrameLen) }

// SealFrame seals a frame opened by BeginFrame: everything appended to dst
// since is the payload, of at most limit bytes (the archive passes its own
// record limit, as it does to ReadFrame). The length field is patched in
// place and the CRC appended. On error (payload over limit) the frame is
// removed from dst — the returned slice is the buffer exactly as it was
// before BeginFrame, so the caller's batch stays well-formed.
func SealFrame(dst []byte, mark, limit int) ([]byte, error) {
	payload := dst[mark+FrameOverhead-4:]
	if len(payload) > limit {
		return dst[:mark], fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	binary.LittleEndian.PutUint32(dst[mark+1:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, FrameCRC(dst[mark], payload)), nil
}

// WriteFrame writes one framed message through a pooled encode buffer:
// the steady state — including a nil or empty payload (FrameQuit) —
// allocates nothing.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	b := GetBuf()
	defer PutBuf(b)
	var err error
	if b.B, err = AppendFrame(b.B, typ, payload); err != nil {
		return err
	}
	_, err = w.Write(b.B)
	return err
}

// ReadFrame reads one framed message of at most limit payload bytes into
// a fresh buffer (MaxFrameLen on the wire; the archive passes its own
// record limit). io.EOF means the stream ended cleanly between frames;
// ErrTruncated means it ended inside one; a length over limit is
// ErrTooLarge and a checksum mismatch ErrCorrupt.
//
// ReadFrame allocates a body buffer per call and is deliberately kept as
// the naive reference decoder: FuzzReadFrameReuse pins the pooled Reader
// byte-identical against it, so the two read and buffer frames
// independently (they share only FrameCRC, which the archive tests check
// against crc32.ChecksumIEEE). Per-connection read loops use a Reader,
// which reuses one body buffer across frames; the archive reads its files
// with ReadFrame.
func ReadFrame(r io.Reader, limit int) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: read: %w", err)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, ErrTruncated
		}
		return 0, nil, fmt.Errorf("wire: read: %w", err)
	}
	typ = hdr[0]
	length := binary.LittleEndian.Uint32(hdr[1:])
	if int64(length) > int64(limit) {
		return 0, nil, fmt.Errorf("%w: length %d", ErrTooLarge, length)
	}
	// Grow the body buffer only as bytes actually arrive: a corrupted
	// length field must cost a truncation error, not a giant allocation.
	var body bytes.Buffer
	if _, err := io.CopyN(&body, r, int64(length)+4); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, ErrTruncated
		}
		return 0, nil, fmt.Errorf("wire: read: %w", err)
	}
	b := body.Bytes()
	payload, sum := b[:length], binary.LittleEndian.Uint32(b[length:])
	if FrameCRC(typ, payload) != sum {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return typ, payload, nil
}
