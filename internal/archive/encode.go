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
// reframe the durability log as its replication stream (a wire
// FrameLogRecord payload is the slot epoch, then these bytes verbatim).
func AppendTxnRecord(dst []byte, seq int64, tx core.Transaction) ([]byte, error) {
	return appendTxn(dst, seq, tx)
}

// DecodeTxnRecord decodes one recTxn payload back into the engine sequence
// it committed as and the replayable transaction. Trailing bytes beyond
// the record are corrupt. Whoever decodes a stream of records — a log
// replay, a replication subscription — keeps a TxnDecoder instead.
func DecodeTxnRecord(payload []byte) (seq int64, tx core.Transaction, err error) {
	return (*TxnDecoder)(nil).Decode(payload)
}

// TxnDecoder decodes the recTxn payloads of one stream: a replication
// subscription, the replay of one log segment. A stream names a handful of
// origins and relations over and over, so the decoder hands every record
// the same string for the same name instead of a fresh copy each: two
// allocations fewer per record once it has seen them. The zero value is
// ready to use; a nil *TxnDecoder decodes without remembering anything. Not
// safe for concurrent use.
type TxnDecoder struct {
	names map[string]string
}

// internedNames bounds a decoder's memory: a stream with more distinct
// names than this (origins are client-chosen) decodes the rest by copying.
const internedNames = 256

// name returns b as a string, shared with earlier records that carried it.
func (d *TxnDecoder) name(b []byte) string {
	if d == nil {
		return string(b)
	}
	if s, ok := d.names[string(b)]; ok { // no allocation: the conversion is only a map key
		return s
	}
	s := string(b)
	if len(d.names) < internedNames {
		if d.names == nil {
			d.names = make(map[string]string)
		}
		d.names[s] = s
	}
	return s
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
// payload in place (openRecord, sealRecord), so a log append builds no
// intermediate slice. It returns the extended buffer and the payload's
// bytes within it; on error dst comes back unextended.
func appendTxnFrame(dst []byte, seq int64, tx core.Transaction) (out, payload []byte, err error) {
	if out, err = appendTxn(openRecord(dst, recTxn), seq, tx); err != nil {
		return dst, nil, err
	}
	return sealRecord(out, len(dst))
}

// decode decodes one transaction payload as a log entry.
func (d *TxnDecoder) decode(payload []byte) (loggedTxn, error) {
	seq, tx, err := d.Decode(payload)
	return loggedTxn{Seq: seq, Tx: tx}, err
}

// Decode decodes one recTxn payload into the engine sequence it committed
// as and the replayable transaction. Trailing bytes beyond the record are
// corrupt. Everything returned is copied out of payload.
func (d *TxnDecoder) Decode(payload []byte) (seq int64, tx core.Transaction, err error) {
	fail := func(what string) (int64, core.Transaction, error) {
		return 0, core.Transaction{}, fmt.Errorf("%w: transaction record: bad %s", ErrCorrupt, what)
	}
	seq, n := binary.Varint(payload)
	if n <= 0 {
		return fail("sequence")
	}
	payload = payload[n:]
	origin, payload, err := value.DecodeStringBytes(payload)
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
	rel, payload, err := value.DecodeStringBytes(payload)
	if err != nil {
		return fail("relation name")
	}

	tx = core.Transaction{Kind: kind, Rel: d.name(rel)}
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
	if len(payload) != 0 {
		return 0, core.Transaction{}, fmt.Errorf("%w: transaction record: trailing bytes", ErrCorrupt)
	}
	tx.Origin, tx.Seq, tx.Query = d.name(origin), int(oseq), src
	return seq, tx, nil
}
