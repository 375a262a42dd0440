package archive

import (
	"encoding/binary"
	"fmt"

	"funcdb/internal/core"
	"funcdb/internal/relation"
	"funcdb/internal/value"
)

// Transaction record codec. A recTxn payload is:
//
//	txn := seq:varint        engine sequence of the version it produced
//	       origin:string     tag of Section 2.4
//	       oseq:varint       per-origin sequence
//	       query:string      symbolic source text ("" when submitted as a
//	                         constructed Transaction)
//	       kind:uint8
//	       rel:string
//	       kind-specific:    insert: tuple | delete: key | create: rep
//
// Replay applies the structural fields: translate ran once, on the node
// that admitted the query, and the record carries its result. The query
// text is kept beside them for reports and forwards, not re-parsed.

// AppendTxnRecord encodes one committed transaction as a recTxn payload:
// the exact bytes a log record carries, exported so the cluster layer can
// reframe the durability log as its replication stream (wire
// FrameLogRecord payloads are these bytes verbatim).
func AppendTxnRecord(dst []byte, seq int64, tx core.Transaction) ([]byte, error) {
	return appendTxn(dst, seq, tx)
}

// DecodeTxnRecord decodes a recTxn payload back into the engine sequence
// it committed as and the replayable transaction: the receiving end of
// the log-shipping stream. Trailing bytes beyond the record are corrupt;
// a subscriber that negotiated protocol version 5 — where the primary may
// stamp a trace-context suffix onto stream records — must use
// DecodeTxnRecordTail instead.
func DecodeTxnRecord(payload []byte) (seq int64, tx core.Transaction, err error) {
	lt, rest, err := decodeTxnTail(payload)
	if err != nil {
		return 0, core.Transaction{}, err
	}
	if len(rest) != 0 {
		return 0, core.Transaction{}, fmt.Errorf("%w: transaction record: trailing bytes", ErrCorrupt)
	}
	return lt.Seq, lt.Tx, nil
}

// DecodeTxnRecordTail decodes a recTxn payload and returns any unconsumed
// trailing bytes instead of rejecting them. The log records on disk never
// have a tail; records on a version-5 replication stream may carry the
// 10-byte wire trace-context suffix, which the subscriber splits off here
// and interprets with wire.DecodeTraceCtx.
func DecodeTxnRecordTail(payload []byte) (seq int64, tx core.Transaction, rest []byte, err error) {
	lt, rest, err := decodeTxnTail(payload)
	if err != nil {
		return 0, core.Transaction{}, nil, err
	}
	return lt.Seq, lt.Tx, rest, nil
}

// Encodable reports whether a committed transaction has a log-record wire
// form (custom transactions do not: they snapshot instead, and never
// appear in a subscription stream).
func Encodable(tx core.Transaction) bool { return encodable(tx) }

// loggedTxn is one decoded log entry.
type loggedTxn struct {
	// Seq is the engine sequence number of the version the commit
	// produced.
	Seq int64
	// Tx is the replayable transaction.
	Tx core.Transaction
}

// encodable reports whether a committed transaction can be carried by a
// recTxn record. Custom transactions carry arbitrary Go closures, which
// have no wire form — the archive snapshots the resulting version instead.
func encodable(tx core.Transaction) bool {
	switch tx.Kind {
	case core.KindInsert, core.KindDelete, core.KindCreate:
		return true
	default:
		return false
	}
}

// appendTxn appends the payload for one committed transaction.
func appendTxn(dst []byte, seq int64, tx core.Transaction) ([]byte, error) {
	dst = binary.AppendVarint(dst, seq)
	dst = value.AppendString(dst, tx.Origin)
	dst = binary.AppendVarint(dst, int64(tx.Seq))
	dst = value.AppendString(dst, tx.Query)
	dst = append(dst, byte(tx.Kind))
	dst = value.AppendString(dst, tx.Rel)
	switch tx.Kind {
	case core.KindInsert:
		return value.AppendTuple(dst, tx.Tuple)
	case core.KindDelete:
		return value.AppendItem(dst, tx.Key)
	case core.KindCreate:
		return append(dst, byte(tx.Rep)), nil
	default:
		return dst, fmt.Errorf("archive: transaction kind %v has no wire form", tx.Kind)
	}
}

// appendTxnFrame appends tx's framed recTxn record to dst, encoding the
// payload in place — the length field is patched once it is known — so a
// log append builds no intermediate slice. It returns the extended buffer
// and the payload's bytes within it; on error dst comes back unextended.
func appendTxnFrame(dst []byte, seq int64, tx core.Transaction) (out, payload []byte, err error) {
	start := len(dst)
	out = append(dst, recTxn, 0, 0, 0, 0)
	if out, err = appendTxn(out, seq, tx); err != nil {
		return dst, nil, err
	}
	if err := checkRecordLen(out[start+frameHeader:]); err != nil {
		return dst, nil, err
	}
	binary.LittleEndian.PutUint32(out[start+1:], uint32(len(out)-start-frameHeader))
	out = binary.LittleEndian.AppendUint32(out, recordCRC(recTxn, out[start+frameHeader:]))
	return out, out[start+frameHeader : len(out)-4], nil
}

// decodeTxn decodes one transaction payload, rejecting trailing bytes.
func decodeTxn(payload []byte) (loggedTxn, error) {
	lt, rest, err := decodeTxnTail(payload)
	if err != nil {
		return loggedTxn{}, err
	}
	if len(rest) != 0 {
		return loggedTxn{}, fmt.Errorf("%w: transaction record: trailing bytes", ErrCorrupt)
	}
	return lt, nil
}

// decodeTxnTail decodes one transaction payload and returns the
// unconsumed tail: the shared core of the strict decoder (log files, where
// a tail is corruption) and the suffix-tolerant stream decoder (where the
// tail is a trace context).
func decodeTxnTail(payload []byte) (loggedTxn, []byte, error) {
	fail := func(what string) (loggedTxn, []byte, error) {
		return loggedTxn{}, nil, fmt.Errorf("%w: transaction record: bad %s", ErrCorrupt, what)
	}
	seq, n := binary.Varint(payload)
	if n <= 0 {
		return fail("sequence")
	}
	payload = payload[n:]
	origin, payload, err := value.DecodeString(payload)
	if err != nil {
		return fail("origin")
	}
	oseq, n := binary.Varint(payload)
	if n <= 0 {
		return fail("origin sequence")
	}
	payload = payload[n:]
	src, payload, err := value.DecodeString(payload)
	if err != nil {
		return fail("query text")
	}
	if len(payload) == 0 {
		return fail("kind")
	}
	kind := core.Kind(payload[0])
	payload = payload[1:]
	rel, payload, err := value.DecodeString(payload)
	if err != nil {
		return fail("relation name")
	}

	tx := core.Transaction{Kind: kind, Rel: rel}
	switch kind {
	case core.KindInsert:
		tu, rest, err := value.DecodeTuple(payload)
		if err != nil {
			return fail("tuple")
		}
		tx.Tuple = tu
		payload = rest
	case core.KindDelete:
		key, rest, err := value.DecodeItem(payload)
		if err != nil {
			return fail("key")
		}
		tx.Key = key
		payload = rest
	case core.KindCreate:
		if len(payload) == 0 {
			return fail("representation")
		}
		rep := relation.Rep(payload[0])
		switch rep {
		case relation.RepList, relation.RepAVL, relation.Rep23, relation.RepPaged:
			tx.Rep = rep
		default:
			return fail("representation")
		}
		payload = payload[1:]
	default:
		return fail("kind")
	}

	// The structural fields are the authoritative form (ROADMAP item 3):
	// they are what the committing node's translate produced from the
	// text, so replay takes them as decoded and never parses again. The
	// source text rides along for reports and forwards.
	tx.Origin, tx.Seq, tx.Query = origin, int(oseq), src
	return loggedTxn{Seq: seq, Tx: tx}, payload, nil
}
