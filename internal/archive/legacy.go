package archive

import (
	"encoding/binary"
	"fmt"

	"funcdb/internal/core"
	"funcdb/internal/value"
)

// decodeLegacy reads a FormLegacy record: the one-transaction record, with
// its source text, that log segments held before FormRun. Nothing writes
// the form any more, and this is the only function that reads it — a
// segment written earlier still recovers, answers every version, and ships
// to a mirror as the bytes it holds. The layout was:
//
//	txn := seq:varint origin:string oseq:varint query:string kind:uint8
//	       rel:string  insert: tuple | delete: key | create: rep
//
// The source text is skipped: replay never parsed it. The items are laid
// out as a run's (decodeItems), and the record decodes as a run of one.
func decodeLegacy(d *Decoder, payload []byte) (Record, error) {
	fail := func(what string) (Record, error) {
		return Record{}, fmt.Errorf("%w: transaction record: bad %s", ErrCorrupt, what)
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
	if _, payload, err = value.DecodeStringBytes(payload[n:]); err != nil {
		return fail("query text")
	}
	if len(payload) == 0 {
		return fail("kind")
	}
	kind := core.Kind(payload[0])
	rel, payload, err := value.DecodeStringBytes(payload[1:])
	if err != nil {
		return fail("relation name")
	}
	r := Record{First: seq, Seq: int(oseq), Kind: kind, Rel: d.name(rel)}
	payload, what := d.decodeItems(&r, 1, payload)
	if what != "" {
		return fail(what)
	}
	if len(payload) != 0 {
		return Record{}, fmt.Errorf("%w: transaction record: trailing bytes", ErrCorrupt)
	}
	r.Origin = d.name(origin)
	return r, nil
}
