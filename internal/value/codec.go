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
	if len(buf) == 0 {
		return Item{}, buf, fmt.Errorf("%w: empty buffer", ErrCorrupt)
	}
	kind := Kind(buf[0])
	buf = buf[1:]
	switch kind {
	case KindInt:
		v, n := binary.Varint(buf)
		if n <= 0 {
			return Item{}, buf, fmt.Errorf("%w: bad varint", ErrCorrupt)
		}
		return Int(v), buf[n:], nil
	case KindString:
		l, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < l {
			return Item{}, buf, fmt.Errorf("%w: bad string length", ErrCorrupt)
		}
		s := string(buf[n : n+int(l)])
		return Str(s), buf[n+int(l):], nil
	default:
		return Item{}, buf, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
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
// the remaining bytes.
func DecodeTuple(buf []byte) (Tuple, []byte, error) {
	arity, n := binary.Uvarint(buf)
	if n <= 0 {
		return Tuple{}, buf, fmt.Errorf("%w: bad arity", ErrCorrupt)
	}
	if arity > uint64(len(buf)) {
		// Each item needs at least one byte; an arity beyond the buffer
		// length is corrupt (and guards allocation).
		return Tuple{}, buf, fmt.Errorf("%w: arity %d exceeds buffer", ErrCorrupt, arity)
	}
	buf = buf[n:]
	fields := make([]Item, 0, arity)
	for i := uint64(0); i < arity; i++ {
		var it Item
		var err error
		if it, buf, err = DecodeItem(buf); err != nil {
			return Tuple{}, buf, err
		}
		fields = append(fields, it)
	}
	return Tuple{fields: fields}, buf, nil
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
