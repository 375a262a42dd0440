package value

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary wire format for items and tuples, so the data model can cross a
// real network or be spooled to the "complete archives" of Section 3.3.
//
//	item  := kind:uint8 payload
//	        KindInt:    zigzag varint
//	        KindString: uvarint length + bytes
//	tuple := uvarint arity, then that many items
//
// The format is self-delimiting: decoders return the remaining buffer, so
// streams of tuples concatenate.

// ErrCorrupt reports undecodable bytes.
var ErrCorrupt = errors.New("value: corrupt encoding")

// AppendString appends a length-prefixed string (uvarint length + bytes),
// the building block the framed archive records use for names, origins and
// query text.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeString decodes one length-prefixed string from the front of buf,
// returning it and the remaining bytes.
func DecodeString(buf []byte) (string, []byte, error) {
	b, rest, err := DecodeStringBytes(buf)
	return string(b), rest, err
}

// DecodeStringBytes is DecodeString without the copy: the string's bytes
// as a sub-slice of buf, for a caller that may not need a string of its own
// (it can look the bytes up in a table first).
func DecodeStringBytes(buf []byte) (b, rest []byte, err error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < l {
		return nil, buf, fmt.Errorf("%w: bad string length", ErrCorrupt)
	}
	return buf[n : n+int(l)], buf[n+int(l):], nil
}

// AppendItem appends the wire form of it to dst and returns the extended
// slice. Only valid items (Int, Str) are encodable.
func AppendItem(dst []byte, it Item) ([]byte, error) {
	switch it.kind {
	case KindInt:
		dst = append(dst, byte(KindInt))
		return binary.AppendVarint(dst, it.i), nil
	case KindString:
		dst = append(dst, byte(KindString))
		dst = binary.AppendUvarint(dst, uint64(len(it.s)))
		return append(dst, it.s...), nil
	default:
		return dst, fmt.Errorf("value: cannot encode item of kind %v", it.kind)
	}
}

// DecodeItem decodes one item from the front of buf, returning it and the
// remaining bytes.
func DecodeItem(buf []byte) (Item, []byte, error) {
	it, s, rest, err := decodeItem(buf)
	if it.kind == KindString {
		it.s = string(s)
	}
	return it, rest, err
}

// decodeItem is the item grammar: it decodes one item from the front of
// buf, leaving a string item's bytes in s, a sub-slice of buf, for the
// caller to make its text from.
func decodeItem(buf []byte) (it Item, s, rest []byte, err error) {
	if len(buf) == 0 {
		return Item{}, nil, buf, fmt.Errorf("%w: empty buffer", ErrCorrupt)
	}
	kind := Kind(buf[0])
	buf = buf[1:]
	switch kind {
	case KindInt:
		v, n := binary.Varint(buf)
		if n <= 0 {
			return Item{}, nil, buf, fmt.Errorf("%w: bad varint", ErrCorrupt)
		}
		return Int(v), nil, buf[n:], nil
	case KindString:
		if s, buf, err = DecodeStringBytes(buf); err != nil {
			return Item{}, nil, buf, err
		}
		return Item{kind: KindString}, s, buf, nil
	default:
		return Item{}, nil, buf, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
}

// AppendTuple appends the wire form of t to dst.
func AppendTuple(dst []byte, t Tuple) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(t.fields)))
	var err error
	for _, f := range t.fields {
		if dst, err = AppendItem(dst, f); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// DecodeTuple decodes one tuple from the front of buf, returning it and
// the remaining bytes. The tuple owns its fields and strings, so it can
// enter a long-lived relation version without keeping buf alive.
func DecodeTuple(buf []byte) (Tuple, []byte, error) {
	arity, rest, err := decodeArity(buf)
	if err != nil {
		return Tuple{}, buf, err
	}
	fields := make([]Item, 0, arity)
	for i := 0; i < arity; i++ {
		var it Item
		if it, rest, err = DecodeItem(rest); err != nil {
			return Tuple{}, rest, err
		}
		fields = append(fields, it)
	}
	return Tuple{fields: fields}, rest, nil
}

// decodeArity decodes a tuple's arity from the front of buf. Each item
// takes at least two bytes (a kind and a varint or a length), so an arity
// beyond half of what follows is corrupt; the check guards allocation.
func decodeArity(buf []byte) (int, []byte, error) {
	arity, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, buf, fmt.Errorf("%w: bad arity", ErrCorrupt)
	}
	rest := buf[n:]
	if arity > uint64(len(rest))/2 {
		return 0, buf, fmt.Errorf("%w: arity %d exceeds buffer", ErrCorrupt, arity)
	}
	return int(arity), rest, nil
}

// EncodeTuples encodes a tuple stream (uvarint count then tuples).
func EncodeTuples(tuples []Tuple) ([]byte, error) {
	out := binary.AppendUvarint(nil, uint64(len(tuples)))
	var err error
	for _, t := range tuples {
		if out, err = AppendTuple(out, t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecodeTuples decodes a tuple stream encoded by EncodeTuples.
func DecodeTuples(buf []byte) ([]Tuple, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad count", ErrCorrupt)
	}
	if count > uint64(len(buf)) {
		return nil, fmt.Errorf("%w: count %d exceeds buffer", ErrCorrupt, count)
	}
	buf = buf[n:]
	out := make([]Tuple, 0, count)
	for i := uint64(0); i < count; i++ {
		var t Tuple
		var err error
		if t, buf, err = DecodeTuple(buf); err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(buf))
	}
	return out, nil
}
