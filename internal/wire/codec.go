package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"funcdb/internal/core"
	"funcdb/internal/value"
)

// Message payload codecs, built on the internal/value primitives (the
// same self-delimiting strings, items and tuples the archive logs).
// Every decoder consumes its payload exactly: trailing bytes are corrupt.

// DefaultDatabase is the store a server binds a Hello with an empty
// database field to, and the name a single-store server hosts its store
// under.
const DefaultDatabase = "main"

// errTrailing reports bytes left over after a payload's last field.
func errTrailing(rest []byte) error {
	return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
}

// Hello is the client's opening message.
type Hello struct {
	// Origin is the tag the server stamps on the connection's
	// transactions ("" lets the server pick one).
	Origin string
	// Database names the store this connection executes against (""
	// means DefaultDatabase).
	Database string
}

// AppendHello encodes a Hello payload:
//
//	hello := magic:"fDBw" version:uint8 origin:string database:string
func AppendHello(dst []byte, h Hello) []byte {
	dst = append(dst, Magic...)
	dst = append(dst, Version)
	dst = value.AppendString(dst, h.Origin)
	return value.AppendString(dst, h.Database)
}

// DecodeHello decodes a Hello payload, refusing any protocol version but
// Version.
func DecodeHello(buf []byte) (Hello, error) {
	if len(buf) < len(Magic)+1 || string(buf[:len(Magic)]) != Magic {
		return Hello{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if ver := buf[len(Magic)]; ver != Version {
		return Hello{}, fmt.Errorf("wire: protocol version %d not supported", ver)
	}
	var h Hello
	var err error
	if h.Origin, buf, err = value.DecodeString(buf[len(Magic)+1:]); err != nil {
		return Hello{}, fmt.Errorf("%w: bad hello origin", ErrCorrupt)
	}
	if h.Database, buf, err = value.DecodeString(buf); err != nil || len(buf) != 0 {
		return Hello{}, fmt.Errorf("%w: bad hello database", ErrCorrupt)
	}
	return h, nil
}

// Welcome is the server's handshake acknowledgment.
type Welcome struct {
	// Lanes is the server store's admission lane count.
	Lanes int
	// Durable reports whether the server store writes an archive.
	Durable bool
	// Origin echoes the tag the server assigned to the connection.
	Origin string
	// Database echoes the store name the connection was bound to.
	Database string
}

// AppendWelcome encodes a Welcome payload:
//
//	welcome := version:uint8 lanes:varint durable:uint8 origin:string database:string
func AppendWelcome(dst []byte, w Welcome) []byte {
	dst = append(dst, Version)
	dst = binary.AppendVarint(dst, int64(w.Lanes))
	if w.Durable {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = value.AppendString(dst, w.Origin)
	return value.AppendString(dst, w.Database)
}

// DecodeWelcome decodes a Welcome payload, refusing any protocol version
// but Version.
func DecodeWelcome(buf []byte) (Welcome, error) {
	if len(buf) < 1 {
		return Welcome{}, fmt.Errorf("%w: empty welcome", ErrCorrupt)
	}
	if buf[0] != Version {
		return Welcome{}, fmt.Errorf("wire: protocol version %d not supported", buf[0])
	}
	buf = buf[1:]
	lanes, n := binary.Varint(buf)
	if n <= 0 || len(buf[n:]) < 1 || buf[n] > 1 {
		return Welcome{}, fmt.Errorf("%w: bad welcome", ErrCorrupt)
	}
	w := Welcome{Lanes: int(lanes), Durable: buf[n] == 1}
	var err error
	if w.Origin, buf, err = value.DecodeString(buf[n+1:]); err != nil {
		return Welcome{}, fmt.Errorf("%w: bad welcome origin", ErrCorrupt)
	}
	if w.Database, buf, err = value.DecodeString(buf); err != nil || len(buf) != 0 {
		return Welcome{}, fmt.Errorf("%w: bad welcome database", ErrCorrupt)
	}
	return w, nil
}

// Handshake opens a connection from the dialing side: it writes h as a
// Hello frame to w in one Write (so w is the connection, not a buffer
// awaiting a flush) and reads the answer from rd. A Welcome comes back
// decoded; a server's refusal — an Error frame, such as for a protocol
// version it does not speak — comes back as an error whose text is the
// server's message. Deadlines and buffering stay with the caller.
func Handshake(w io.Writer, rd *Reader, h Hello) (Welcome, error) {
	if err := WriteFrame(w, FrameHello, AppendHello(nil, h)); err != nil {
		return Welcome{}, err
	}
	typ, payload, err := rd.Next()
	switch {
	case err != nil:
		return Welcome{}, err
	case typ == FrameError:
		_, _, msg, err := DecodeErrorMsg(payload)
		if err == nil {
			err = errors.New(msg)
		}
		return Welcome{}, err
	case typ != FrameWelcome:
		return Welcome{}, fmt.Errorf("wire: Hello answered with frame %#x", typ)
	}
	return DecodeWelcome(payload)
}

// AppendErrorMsg encodes a FrameError payload: request id, failing
// statement index (-1 when no one statement failed), message text.
func AppendErrorMsg(dst []byte, id uint64, index int, msg string) []byte {
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendVarint(dst, int64(index))
	return value.AppendString(dst, msg)
}

// DecodeErrorMsg decodes a FrameError payload.
func DecodeErrorMsg(buf []byte) (id uint64, index int, msg string, err error) {
	id, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, "", fmt.Errorf("%w: bad request id", ErrCorrupt)
	}
	buf = buf[n:]
	idx, n := binary.Varint(buf)
	if n <= 0 {
		return 0, 0, "", fmt.Errorf("%w: bad error index", ErrCorrupt)
	}
	msg, rest, err := value.DecodeString(buf[n:])
	if err != nil || len(rest) != 0 {
		return 0, 0, "", fmt.Errorf("%w: bad error message", ErrCorrupt)
	}
	return id, int(idx), msg, nil
}

// Response flag bits.
const (
	respFound  = 1 << 0
	respErr    = 1 << 1
	respNote   = 1 << 2
	respTuple  = 1 << 3
	respTuples = 1 << 4
	respFlags  = respFound | respErr | respNote | respTuple | respTuples
)

// appendResponse encodes one core.Response:
//
//	resp := origin:string seq:varint kind:uint8 flags:uint8
//	        count:varint version:varint
//	        [tuple] [ntuples:uvarint tuples] [err:string] [note:string]
//
// An operation-level error crosses the wire as its text; the client
// rebuilds an opaque error with identical text, so a response renders
// byte-identically on both sides of the connection (error *identity* —
// errors.Is against sentinel values — does not cross, and is documented
// as a local-only affordance).
func appendResponse(dst []byte, r core.Response) ([]byte, error) {
	dst = value.AppendString(dst, r.Origin)
	dst = binary.AppendVarint(dst, int64(r.Seq))
	dst = append(dst, byte(r.Kind))
	var flags byte
	if r.Found {
		flags |= respFound
	}
	if r.Err != nil {
		flags |= respErr
	}
	if r.Note != "" {
		flags |= respNote
	}
	if !r.Tuple.IsZero() {
		flags |= respTuple
	}
	if len(r.Tuples) > 0 {
		flags |= respTuples
	}
	dst = append(dst, flags)
	dst = binary.AppendVarint(dst, int64(r.Count))
	dst = binary.AppendVarint(dst, r.Version)
	var err error
	if flags&respTuple != 0 {
		if dst, err = value.AppendTuple(dst, r.Tuple); err != nil {
			return dst, err
		}
	}
	if flags&respTuples != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(r.Tuples)))
		for _, tu := range r.Tuples {
			if dst, err = value.AppendTuple(dst, tu); err != nil {
				return dst, err
			}
		}
	}
	if flags&respErr != 0 {
		dst = value.AppendString(dst, r.Err.Error())
	}
	if flags&respNote != 0 {
		dst = value.AppendString(dst, r.Note)
	}
	return dst, nil
}

// decodeResponse decodes one response from the front of buf, a suffix of
// b's payload, returning the remaining bytes (responses concatenate inside
// a batch frame). left is how many responses the frame holds from this one
// on, which sizes b's item block for a batch of one-tuple replies. A flag
// announcing an empty section is corrupt: the encoder never sets one.
func decodeResponse(b *value.Block, buf []byte, left int) (core.Response, []byte, error) {
	fail := func(what string) (core.Response, []byte, error) {
		return core.Response{}, buf, fmt.Errorf("%w: response: bad %s", ErrCorrupt, what)
	}
	var r core.Response
	origin, buf, err := b.String(buf)
	if err != nil {
		return fail("origin")
	}
	r.Origin = origin
	seq, n := binary.Varint(buf)
	if n <= 0 {
		return fail("seq")
	}
	buf = buf[n:]
	if len(buf) < 2 || buf[1]&^respFlags != 0 {
		return fail("kind")
	}
	r.Seq = int(seq)
	r.Kind = core.Kind(buf[0])
	flags := buf[1]
	buf = buf[2:]
	count, n := binary.Varint(buf)
	if n <= 0 {
		return fail("count")
	}
	buf = buf[n:]
	r.Count = int(count)
	if r.Version, n = binary.Varint(buf); n <= 0 {
		return fail("version")
	}
	buf = buf[n:]
	r.Found = flags&respFound != 0
	if flags&respTuple != 0 {
		if r.Tuple, buf, err = b.Tuple(buf, left); err != nil || r.Tuple.IsZero() {
			return fail("tuple")
		}
	}
	if flags&respTuples != 0 {
		ntuples, n := binary.Uvarint(buf)
		if n <= 0 || ntuples == 0 || ntuples > uint64(len(buf)) {
			return fail("tuple count")
		}
		buf = buf[n:]
		r.Tuples = make([]value.Tuple, ntuples)
		for i := range r.Tuples {
			if r.Tuples[i], buf, err = b.Tuple(buf, len(r.Tuples)-i); err != nil {
				return fail("tuples")
			}
		}
	}
	if flags&respErr != 0 {
		var msg string
		if msg, buf, err = b.String(buf); err != nil {
			return fail("error")
		}
		r.Err = errors.New(msg)
	}
	if flags&respNote != 0 {
		if r.Note, buf, err = b.String(buf); err != nil || r.Note == "" {
			return fail("note")
		}
	}
	return r, buf, nil
}

// AppendSingleResponse encodes a FrameResponse payload: id + response.
func AppendSingleResponse(dst []byte, id uint64, r core.Response) ([]byte, error) {
	dst = binary.AppendUvarint(dst, id)
	return appendResponse(dst, r)
}

// DecodeSingleResponse decodes a FrameResponse payload. Its strings and
// tuples share one copy of buf (see value.Block).
func DecodeSingleResponse(buf []byte) (uint64, core.Response, error) {
	id, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, core.Response{}, fmt.Errorf("%w: bad request id", ErrCorrupt)
	}
	var b value.Block
	b.Reset(buf)
	r, rest, err := decodeResponse(&b, buf[n:], 1)
	if err != nil {
		return 0, core.Response{}, err
	}
	if len(rest) != 0 {
		return 0, core.Response{}, errTrailing(rest)
	}
	return id, r, nil
}

// AppendResponses encodes a FrameBatchResponse payload: request id,
// count, responses.
func AppendResponses(dst []byte, id uint64, resps []core.Response) ([]byte, error) {
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, uint64(len(resps)))
	var err error
	for _, r := range resps {
		if dst, err = appendResponse(dst, r); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// DecodeResponses decodes a FrameBatchResponse payload. The strings and
// tuples of every response share one copy of buf (see value.Block).
func DecodeResponses(buf []byte) (id uint64, resps []core.Response, err error) {
	id, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad request id", ErrCorrupt)
	}
	rest := buf[n:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad response count", ErrCorrupt)
	}
	rest = rest[n:]
	// A response is at least 6 bytes; a count beyond that is corrupt (and
	// the check guards allocation on corrupt counts).
	if count > uint64(len(rest))/6+1 {
		return 0, nil, fmt.Errorf("%w: response count %d exceeds buffer", ErrCorrupt, count)
	}
	var b value.Block
	b.Reset(buf)
	resps = make([]core.Response, count)
	for i := range resps {
		if resps[i], rest, err = decodeResponse(&b, rest, len(resps)-i); err != nil {
			return 0, nil, err
		}
	}
	if len(rest) != 0 {
		return 0, nil, errTrailing(rest)
	}
	return id, resps, nil
}

// AppendRedirect encodes a FrameRedirect payload:
//
//	redirect := id:uvarint addr:string rel:string epoch:uvarint
//
// epoch is the owner's serving epoch for the relation's slot (0 when the
// redirecting node knows none — epoch numbering starts at 1 on the first
// promotion); the receiver updates its placement cache only when it is at
// least as new as what it already knows.
func AppendRedirect(dst []byte, id uint64, addr, rel string, epoch uint64) []byte {
	dst = binary.AppendUvarint(dst, id)
	dst = value.AppendString(dst, addr)
	dst = value.AppendString(dst, rel)
	return binary.AppendUvarint(dst, epoch)
}

// DecodeRedirect decodes a FrameRedirect payload.
func DecodeRedirect(buf []byte) (id uint64, addr, rel string, epoch uint64, err error) {
	id, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, "", "", 0, fmt.Errorf("%w: bad redirect id", ErrCorrupt)
	}
	if addr, buf, err = value.DecodeString(buf[n:]); err != nil {
		return 0, "", "", 0, fmt.Errorf("%w: bad redirect address", ErrCorrupt)
	}
	if rel, buf, err = value.DecodeString(buf); err != nil {
		return 0, "", "", 0, fmt.Errorf("%w: bad redirect relation", ErrCorrupt)
	}
	if epoch, n = binary.Uvarint(buf); n <= 0 || n != len(buf) {
		return 0, "", "", 0, fmt.Errorf("%w: bad redirect epoch", ErrCorrupt)
	}
	return id, addr, rel, epoch, nil
}

// AppendSubscribe encodes a FrameSubscribe payload:
//
//	subscribe := after:varint slot:varint subscriber:varint
//
// after is the subscriber's position (stream records with sequence >
// after), slot the original owner's node index whose log is wanted (under
// failover a slot's log may be served by its promoted winner), and
// subscriber the subscriber's own node index, which keys the serving
// node's replication-ack gate.
func AppendSubscribe(dst []byte, after int64, slot, subscriber int) []byte {
	dst = binary.AppendVarint(dst, after)
	dst = binary.AppendVarint(dst, int64(slot))
	return binary.AppendVarint(dst, int64(subscriber))
}

// DecodeSubscribe decodes a FrameSubscribe payload.
func DecodeSubscribe(buf []byte) (after int64, slot, subscriber int, err error) {
	var v [3]int64
	for i := range v {
		var n int
		if v[i], n = binary.Varint(buf); n <= 0 {
			return 0, 0, 0, fmt.Errorf("%w: bad subscribe field %d", ErrCorrupt, i)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		return 0, 0, 0, errTrailing(buf)
	}
	return v[0], int(v[1]), int(v[2]), nil
}

// AppendSubAck encodes a FrameSubAck payload: the last version the
// subscriber has applied — the end of the last record it applied, however
// many versions that record covered.
func AppendSubAck(dst []byte, seq int64) []byte {
	return binary.AppendVarint(dst, seq)
}

// DecodeSubAck decodes a FrameSubAck payload.
func DecodeSubAck(buf []byte) (seq int64, err error) {
	seq, n := binary.Varint(buf)
	if n <= 0 || n != len(buf) {
		return 0, fmt.Errorf("%w: bad subscriber ack", ErrCorrupt)
	}
	return seq, nil
}

// AppendLogRecord encodes a FrameLogRecord payload: the serving epoch for
// the streamed slot (0 without failover), the record's form (the archive's
// record type: a log record's, or a snapshot piece's for a catch-up that
// starts below the log floor), then the archive record bytes unchanged.
//
//	logrecord := epoch:uvarint form:uint8 record
func AppendLogRecord(dst []byte, epoch uint64, form byte, record []byte) []byte {
	dst = binary.AppendUvarint(dst, epoch)
	dst = append(dst, form)
	return append(dst, record...)
}

// MaxLogRecord is the largest archive record one FrameLogRecord carries:
// the frame limit less the epoch and form ahead of the record.
const MaxLogRecord = MaxFrameLen - binary.MaxVarintLen64 - 1

// DecodeLogRecord splits a FrameLogRecord payload into its epoch, the
// record's form and the record bytes (decoded by an archive.Decoder).
// record aliases buf.
func DecodeLogRecord(buf []byte) (epoch uint64, form byte, record []byte, err error) {
	epoch, n := binary.Uvarint(buf)
	if n <= 0 || n == len(buf) {
		return 0, 0, nil, fmt.Errorf("%w: bad log record header", ErrCorrupt)
	}
	return epoch, buf[n], buf[n+1:], nil
}

// Heartbeat is one node's failover view, exchanged peer to peer: for
// every slot (original owner index) the newest epoch the node knows, who
// serves that slot in that epoch, the newest record sequence the node
// has applied for the slot, and the promotion base (the sequence the
// slot's current epoch started from — a rejoining node rewinds to it).
// A heartbeat in either direction refreshes the sender's lease at the
// receiver.
type Heartbeat struct {
	From    int      // sender's node index
	Epochs  []uint64 // per slot: newest known epoch
	Owners  []int    // per slot: serving node in that epoch
	Applied []int64  // per slot: sender's applied record sequence
	Bases   []int64  // per slot: promotion base of the current epoch
}

// AppendHeartbeat encodes a FrameHeartbeat / FrameHeartbeatAck payload:
//
//	hb := from:varint slots:uvarint
//	      (epoch:uvarint owner:varint applied:varint base:varint)*
func AppendHeartbeat(dst []byte, hb Heartbeat) []byte {
	dst = binary.AppendVarint(dst, int64(hb.From))
	dst = binary.AppendUvarint(dst, uint64(len(hb.Epochs)))
	for i := range hb.Epochs {
		dst = binary.AppendUvarint(dst, hb.Epochs[i])
		dst = binary.AppendVarint(dst, int64(hb.Owners[i]))
		dst = binary.AppendVarint(dst, hb.Applied[i])
		dst = binary.AppendVarint(dst, hb.Bases[i])
	}
	return dst
}

// DecodeHeartbeat decodes a FrameHeartbeat / FrameHeartbeatAck payload.
func DecodeHeartbeat(buf []byte) (Heartbeat, error) {
	var hb Heartbeat
	from, n := binary.Varint(buf)
	if n <= 0 {
		return hb, fmt.Errorf("%w: bad heartbeat sender", ErrCorrupt)
	}
	hb.From = int(from)
	buf = buf[n:]
	slots, n := binary.Uvarint(buf)
	// Each slot entry is at least 4 bytes; a count beyond that is corrupt
	// (and the check bounds allocation on hostile counts).
	if n <= 0 || slots > uint64(len(buf))/4+1 {
		return hb, fmt.Errorf("%w: bad heartbeat slot count", ErrCorrupt)
	}
	buf = buf[n:]
	hb.Epochs = make([]uint64, 0, slots)
	hb.Owners = make([]int, 0, slots)
	hb.Applied = make([]int64, 0, slots)
	hb.Bases = make([]int64, 0, slots)
	for i := uint64(0); i < slots; i++ {
		epoch, n := binary.Uvarint(buf)
		if n <= 0 {
			return hb, fmt.Errorf("%w: bad heartbeat epoch", ErrCorrupt)
		}
		buf = buf[n:]
		owner, n := binary.Varint(buf)
		if n <= 0 {
			return hb, fmt.Errorf("%w: bad heartbeat owner", ErrCorrupt)
		}
		buf = buf[n:]
		applied, n := binary.Varint(buf)
		if n <= 0 {
			return hb, fmt.Errorf("%w: bad heartbeat applied seq", ErrCorrupt)
		}
		buf = buf[n:]
		base, n := binary.Varint(buf)
		if n <= 0 {
			return hb, fmt.Errorf("%w: bad heartbeat base", ErrCorrupt)
		}
		buf = buf[n:]
		hb.Epochs = append(hb.Epochs, epoch)
		hb.Owners = append(hb.Owners, int(owner))
		hb.Applied = append(hb.Applied, applied)
		hb.Bases = append(hb.Bases, base)
	}
	if len(buf) != 0 {
		return hb, errTrailing(buf)
	}
	return hb, nil
}

// Introspection document kinds, the FrameIntrospect request's kind byte.
const (
	// IntrospectStats asks for the metrics snapshot (internal/metrics
	// Snapshot).
	IntrospectStats byte = 0
	// IntrospectTraces asks for the published request traces (a
	// []internal/reqtrace.Trace), newest first.
	IntrospectTraces byte = 1
)

// AppendIntrospect encodes a FrameIntrospect payload: request id, kind.
func AppendIntrospect(dst []byte, id uint64, kind byte) []byte {
	dst = binary.AppendUvarint(dst, id)
	return append(dst, kind)
}

// DecodeIntrospect decodes a FrameIntrospect payload; an unknown kind is
// corrupt.
func DecodeIntrospect(buf []byte) (id uint64, kind byte, err error) {
	id, n := binary.Uvarint(buf)
	if n <= 0 || len(buf) != n+1 || buf[n] > IntrospectTraces {
		return 0, 0, fmt.Errorf("%w: bad introspect request", ErrCorrupt)
	}
	return id, buf[n], nil
}

// AppendIntrospectResponse encodes a FrameIntrospectResponse payload:
//
//	introspect-response := id:uvarint doc:bytes…
//
// doc is JSON and runs to the end of the payload (the frame length
// delimits it), so the document needs no length prefix and its schema can
// grow without a codec change.
func AppendIntrospectResponse(dst []byte, id uint64, doc []byte) []byte {
	dst = binary.AppendUvarint(dst, id)
	return append(dst, doc...)
}

// DecodeIntrospectResponse decodes a FrameIntrospectResponse payload. The
// returned doc aliases buf.
func DecodeIntrospectResponse(buf []byte) (id uint64, doc []byte, err error) {
	id, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad introspect id", ErrCorrupt)
	}
	return id, buf[n:], nil
}
