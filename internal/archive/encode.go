package archive

import (
	"encoding/binary"
	"fmt"

	"funcdb/internal/core"
	"funcdb/internal/relation"
	"funcdb/internal/value"
	"funcdb/internal/wire"
)

// Log record codec. A log segment holds one record form, FormRun, written
// for every commit; segments written before it may also hold FormLegacy
// records, which only legacy.go reads. A FormRun payload is structural
// only — no source text:
//
//	run := first:varint     version the record's first write produced
//	       count:uvarint    versions it covers: first … first+count-1
//	       origin:string    the tag of Section 2.4, one origin per record
//	       oseq:varint      origin sequence of version first; version
//	                        first+i carries oseq+i (the sequences are
//	                        delta-encoded against the versions)
//	       kind:uint8
//	       rel:string       absent in a custom record
//	       items:           insert: count tuples, in admission order
//	                        delete: key   (count is 1)
//	                        create: rep   (count is 1)
//	                        custom: rels:uvarint, then per relation
//	                                rel:string ups:uvarint tuple*
//	                                dels:uvarint key*   (count is 1)
//
// An insert run the engine committed as one publication is one record, or
// several where its tags break — another origin, or sequence numbers that
// do not step by one — so every version keeps its tag exactly. A single
// write is a run of one. A custom commit — a Go closure, which has no
// record form of its own — is logged as its effect: per relation it
// changed, the tuples it inserted or replaced and the keys it deleted,
// which is all the next version needs of it. Replay applies the structural
// fields: translate, or the closure, ran once, on the node that admitted
// the statement, and the record carries its result.

// Record is one decoded log record: versions First … Last() of one
// relation, written by Origin under the sequence numbers Seq, Seq+1, …; or,
// for a custom commit, one version's effect on each relation it changed.
type Record struct {
	First   int64
	Origin  string
	Seq     int
	Kind    core.Kind
	Rel     string
	Tuples  []value.Tuple // insert: one per version, in admission order
	Key     value.Item    // delete
	Rep     relation.Rep  // create
	Effects []Effect      // custom
}

// Effect is what a custom commit did to one relation.
type Effect struct {
	Rel     string
	Upserts []value.Tuple // inserted or replaced, in key order
	Deletes []value.Item  // keys removed, in key order
}

// Count returns how many versions the record covers.
func (r *Record) Count() int {
	if r.Kind == core.KindInsert {
		return len(r.Tuples)
	}
	return 1
}

// Last returns the last version the record covers.
func (r *Record) Last() int64 { return r.First + int64(r.Count()) - 1 }

// Txn returns the write that produced the record's i-th version.
func (r *Record) Txn(i int) core.Transaction {
	tx := core.Transaction{Origin: r.Origin, Seq: r.Seq + i, Kind: r.Kind, Rel: r.Rel, Key: r.Key, Rep: r.Rep}
	if r.Kind == core.KindInsert {
		tx.Tuple = r.Tuples[i]
	}
	return tx
}

// AppendRun encodes r as a FormRun payload: the bytes a log record carries
// and a wire LogRecord ships behind its form byte.
func AppendRun(dst []byte, r Record) ([]byte, error) {
	dst = binary.AppendVarint(dst, r.First)
	dst = binary.AppendUvarint(dst, uint64(r.Count()))
	dst = value.AppendString(dst, r.Origin)
	dst = binary.AppendVarint(dst, int64(r.Seq))
	dst = append(dst, byte(r.Kind))
	if r.Kind == core.KindCustom {
		return appendEffects(dst, r.Effects)
	}
	dst = value.AppendString(dst, r.Rel)
	switch r.Kind {
	case core.KindInsert:
		var err error
		for _, tu := range r.Tuples {
			if dst, err = value.AppendTuple(dst, tu); err != nil {
				return dst, err
			}
		}
		return dst, nil
	case core.KindDelete:
		return value.AppendItem(dst, r.Key)
	case core.KindCreate:
		return append(dst, byte(r.Rep)), nil
	default:
		return dst, fmt.Errorf("archive: transaction kind %v has no record form", r.Kind)
	}
}

// appendEffects encodes a custom record's items.
func appendEffects(dst []byte, effects []Effect) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(effects)))
	var err error
	for _, e := range effects {
		dst = value.AppendString(dst, e.Rel)
		dst = binary.AppendUvarint(dst, uint64(len(e.Upserts)))
		for _, tu := range e.Upserts {
			if dst, err = value.AppendTuple(dst, tu); err != nil {
				return dst, err
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(e.Deletes)))
		for _, k := range e.Deletes {
			if dst, err = value.AppendItem(dst, k); err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
}

// commitRecord returns the record of commit c that starts at its i-th
// version and how many versions it covers: for a single write the one
// record (one backs its tuple, so framing a write allocates nothing), for a
// custom commit its effect (customEffects), and for a run the longest
// stretch from i written by one origin under consecutive sequence numbers.
func commitRecord(c *core.Commit, i int, one *[1]value.Tuple) (Record, int, error) {
	if c.Run == nil {
		tx := &c.Tx
		r := Record{First: c.Seq, Origin: tx.Origin, Seq: tx.Seq, Kind: tx.Kind, Rel: tx.Rel, Key: tx.Key, Rep: tx.Rep}
		var err error
		switch tx.Kind {
		case core.KindInsert:
			one[0] = tx.Tuple
			r.Tuples = one[:]
		case core.KindCustom:
			r.Effects, err = customEffects(c)
		}
		return r, 1, err
	}
	run := c.Run
	n := len(run.Tuples) - i
	var tag core.Tag
	if run.Tags != nil {
		tag = run.Tags[i]
		n = 1
		for i+n < len(run.Tuples) && run.Tags[i+n] == (core.Tag{Origin: tag.Origin, Seq: tag.Seq + n}) {
			n++
		}
	}
	return Record{First: c.First() + int64(i), Origin: tag.Origin, Seq: tag.Seq, Kind: core.KindInsert, Rel: run.Rel, Tuples: run.Tuples[i : i+n]}, n, nil
}

// customEffects diffs each relation a custom commit wrote against the
// version before the commit (core.Commit.Written, relation.Diff): one
// Effect per relation the commit changed, none for one it left as it was.
func customEffects(c *core.Commit) ([]Effect, error) {
	var effects []Effect
	ok := c.Written(func(rel string, before, after relation.Relation) {
		e := Effect{Rel: rel}
		relation.Diff(before, after, func(old, next value.Tuple) {
			if next.IsZero() {
				e.Deletes = append(e.Deletes, old.Key())
			} else {
				e.Upserts = append(e.Upserts, next)
			}
		})
		if len(e.Upserts) > 0 || len(e.Deletes) > 0 {
			effects = append(effects, e)
		}
	})
	if !ok {
		return nil, fmt.Errorf("archive: custom commit of version %d has no version before it to diff against", c.Seq)
	}
	return effects, nil
}

// appendRunFrame appends r's framed FormRun record to dst, encoding the
// payload in place behind wire.BeginFrame, so a log append builds no
// intermediate slice. It returns the extended buffer and the payload's
// bytes within it; on error dst comes back unextended.
func appendRunFrame(dst []byte, r Record) (out, payload []byte, err error) {
	out, mark := wire.BeginFrame(dst, FormRun)
	start := len(out)
	if out, err = AppendRun(out, r); err != nil {
		return dst, nil, err
	}
	end := len(out)
	if out, err = wire.SealFrame(out, mark, maxRecordLen); err != nil {
		return dst, nil, fmt.Errorf("archive: record: %w", err)
	}
	return out, out[start:end], nil
}

// recordAfter hands fn what a subscriber positioned at version after still
// needs of the log record covering versions first … last: nothing when the
// record ends by after, the record as it is when it starts past after, and
// otherwise the versions after after, re-encoded as a FormRun run of their
// own.
func recordAfter(after, first, last int64, form byte, payload []byte, fn func(first int64, form byte, payload []byte) error) error {
	switch {
	case last <= after:
		return nil
	case first > after:
		return fn(first, form, payload)
	}
	r, err := DecodeRecord(form, payload)
	if err != nil {
		return err
	}
	skip := int(after - r.First + 1)
	r.First, r.Seq, r.Tuples = after+1, r.Seq+skip, r.Tuples[skip:]
	suffix, err := AppendRun(nil, r)
	if err != nil {
		return err
	}
	return fn(after+1, FormRun, suffix)
}

// DecodeRecord decodes one log record of either form. Trailing bytes beyond
// the record are corrupt. Whoever decodes a stream of records — a log
// replay, a replication subscription — keeps a Decoder instead.
func DecodeRecord(form byte, payload []byte) (Record, error) {
	return (*Decoder)(nil).Decode(form, payload)
}

// Decoder decodes the records of one stream: a replication subscription,
// the replay of one log segment. A stream names a handful of origins and
// relations over and over, so the decoder hands every record the same
// string for the same name instead of a fresh copy each, and it decodes
// every record's tuples into one reused slice: a record's Tuples are valid
// until the next Decode. The zero value is ready to use; a nil *Decoder
// decodes without remembering anything, into slices of the record's own.
// Not safe for concurrent use.
type Decoder struct {
	names  map[string]string
	tuples []value.Tuple
}

// internedNames bounds a decoder's memory: a stream with more distinct
// names than this (origins are client-chosen) decodes the rest by copying.
const internedNames = 256

// name returns b as a string, shared with earlier records that carried it.
func (d *Decoder) name(b []byte) string {
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

// Decode decodes one log record of either form. Everything returned is
// copied out of payload.
func (d *Decoder) Decode(form byte, payload []byte) (Record, error) {
	switch form {
	case FormRun:
		return d.decodeRun(payload)
	case FormLegacy:
		return decodeLegacy(d, payload)
	default:
		return Record{}, fmt.Errorf("%w: record form %d", ErrCorrupt, form)
	}
}

// runSpan reads the versions a FormRun payload covers from its head,
// decoding nothing else.
func runSpan(payload []byte) (first, last int64, rest []byte, err error) {
	first, n := binary.Varint(payload)
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: run record: bad first version", ErrCorrupt)
	}
	payload = payload[n:]
	count, n := binary.Uvarint(payload)
	// Every version needs at least a byte of its own: a longer count is
	// refused before anything is sized by it.
	if n <= 0 || count == 0 || count > uint64(len(payload)) {
		return 0, 0, nil, fmt.Errorf("%w: run record: bad count", ErrCorrupt)
	}
	return first, first + int64(count) - 1, payload[n:], nil
}

func (d *Decoder) decodeRun(payload []byte) (Record, error) {
	fail := func(what string) (Record, error) {
		return Record{}, fmt.Errorf("%w: run record: bad %s", ErrCorrupt, what)
	}
	first, last, payload, err := runSpan(payload)
	if err != nil {
		return Record{}, err
	}
	count := int(last - first + 1)
	origin, payload, err := value.DecodeStringBytes(payload)
	if err != nil {
		return fail("origin")
	}
	oseq, n := binary.Varint(payload)
	if n <= 0 {
		return fail("origin sequence")
	}
	payload = payload[n:]
	if len(payload) == 0 {
		return fail("kind")
	}
	kind := core.Kind(payload[0])
	if kind != core.KindInsert && count != 1 {
		return fail("count")
	}
	r := Record{First: first, Seq: int(oseq), Kind: kind}
	var what string
	if kind == core.KindCustom {
		payload, what = d.decodeEffects(&r, payload[1:])
	} else {
		var rel []byte
		if rel, payload, err = value.DecodeStringBytes(payload[1:]); err != nil {
			return fail("relation name")
		}
		r.Rel = d.name(rel)
		payload, what = d.decodeItems(&r, count, payload)
	}
	if what != "" {
		return fail(what)
	}
	if len(payload) != 0 {
		return Record{}, fmt.Errorf("%w: run record: trailing bytes", ErrCorrupt)
	}
	r.Origin = d.name(origin)
	return r, nil
}

// decodeItems decodes a record's items into r — count tuples for an
// insert, into the decoder's reused slice; a key for a delete; a
// representation for a create — and returns the bytes that follow them.
// The items are laid out alike in both forms. what names the item that did
// not decode, "" when all did.
func (d *Decoder) decodeItems(r *Record, count int, payload []byte) (rest []byte, what string) {
	var err error
	switch r.Kind {
	case core.KindInsert:
		var tuples []value.Tuple
		if d != nil {
			tuples = d.tuples[:0]
		} else {
			tuples = make([]value.Tuple, 0, count)
		}
		for range count {
			var tu value.Tuple
			if tu, payload, err = value.DecodeTuple(payload); err != nil || tu.IsZero() {
				return nil, "tuple"
			}
			tuples = append(tuples, tu)
		}
		if d != nil {
			d.tuples = tuples
		}
		r.Tuples = tuples
	case core.KindDelete:
		if r.Key, payload, err = value.DecodeItem(payload); err != nil {
			return nil, "key"
		}
	case core.KindCreate:
		if r.Rep, payload, err = decodeRep(payload); err != nil {
			return nil, "representation"
		}
	default:
		return nil, "kind"
	}
	return payload, ""
}

// decodeEffects decodes a custom record's items into r and returns the bytes
// that follow them; what names the item that did not decode, "" when all
// did. No count is trusted beyond the bytes left (countOf), and every
// relation, tuple and key takes bytes of its own, so a hostile count fails
// before it sizes anything.
func (d *Decoder) decodeEffects(r *Record, payload []byte) (rest []byte, what string) {
	rels, payload, ok := countOf(payload)
	if !ok {
		return nil, "relation count"
	}
	for range rels {
		name, rest, err := value.DecodeStringBytes(payload)
		if err != nil {
			return nil, "relation name"
		}
		e := Effect{Rel: d.name(name)}
		n, rest, ok := countOf(rest)
		if !ok {
			return nil, "upsert count"
		}
		if n > 0 {
			e.Upserts = make([]value.Tuple, n)
		}
		for i := range e.Upserts {
			if e.Upserts[i], rest, err = value.DecodeTuple(rest); err != nil || e.Upserts[i].IsZero() {
				return nil, "tuple"
			}
		}
		if n, rest, ok = countOf(rest); !ok {
			return nil, "delete count"
		}
		if n > 0 {
			e.Deletes = make([]value.Item, n)
		}
		for i := range e.Deletes {
			if e.Deletes[i], rest, err = value.DecodeItem(rest); err != nil {
				return nil, "key"
			}
		}
		r.Effects = append(r.Effects, e)
		payload = rest
	}
	return payload, ""
}

// countOf reads a count from the head of payload, refusing one larger than
// the bytes that follow it: every item counted takes at least a byte.
func countOf(payload []byte) (n int, rest []byte, ok bool) {
	c, k := binary.Uvarint(payload)
	if k <= 0 || c > uint64(len(payload)-k) {
		return 0, nil, false
	}
	return int(c), payload[k:], true
}

// decodeRep decodes a create record's representation byte.
func decodeRep(payload []byte) (relation.Rep, []byte, error) {
	if len(payload) == 0 {
		return 0, payload, ErrCorrupt
	}
	switch rep := relation.Rep(payload[0]); rep {
	case relation.RepList, relation.RepAVL, relation.Rep23, relation.RepPaged:
		return rep, payload[1:], nil
	default:
		return 0, payload, ErrCorrupt
	}
}
