package wire

import (
	"encoding/binary"
	"fmt"

	"funcdb/internal/value"
)

// The one statement-carrying payload codec, FrameRequest.
//
// The request decoder appends into caller-owned scratch (DecodeRequestInto
// reuses the Request it is handed, mirroring the frame reader's
// discipline), so a connection's steady state decodes with zero amortized
// allocations; a zero Request decodes into fresh slices. Decoded strings
// are always fresh (value.DecodeString copies), so only the slices are
// loans on the caller's scratch.

// appendItems encodes a count-prefixed positional-argument list.
func appendItems(dst []byte, args []value.Item) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(args)))
	var err error
	for _, it := range args {
		if dst, err = value.AppendItem(dst, it); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// decodeItemsInto decodes a count-prefixed argument list, appending into
// scratch (which may be nil). The smallest item is 2 bytes (kind byte +
// one varint byte); the count guard bounds what a hostile count can make
// the decoder allocate before per-item validation.
func decodeItemsInto(buf []byte, scratch []value.Item) ([]value.Item, []byte, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 || count > uint64(len(buf))/2+1 {
		return nil, buf, fmt.Errorf("%w: bad arg count", ErrCorrupt)
	}
	buf = buf[n:]
	args := scratch
	var err error
	for i := uint64(0); i < count; i++ {
		var it value.Item
		if it, buf, err = value.DecodeItem(buf); err != nil {
			return nil, buf, fmt.Errorf("%w: bad arg item", ErrCorrupt)
		}
		args = append(args, it)
	}
	return args, buf, nil
}

// Stmt is one statement of a FrameRequest. It resolves at the receiver
// by, in order: Hash (the FNV-1a hash of a prepared template's text, 0 for
// plain text), then Text when HasText — prepared as a template when Hash
// is set, translated as a plain statement when it is not. Args are the
// template's positional arguments. A sender includes a template's text on
// first contact or after an ErrUnknownStmt refusal, and the text must hash
// to Hash: a receiver refuses a statement whose two names disagree.
//
// Origin and Seq are the statement's final tag when the request has
// FwdTagged: the receiver executes without retagging, so the response
// carries the tag the originating client expects. Untagged senders write
// "" and 0.
type Stmt struct {
	Origin  string
	Seq     int
	Hash    uint64
	Text    string
	HasText bool
	Args    []value.Item

	nargs int // decode side: len(Args), sliced once the item scratch stops growing
}

// Request is a decoded FrameRequest payload.
type Request struct {
	ID    uint64
	Flags byte
	Epoch uint64
	Stmts []Stmt

	items []value.Item // every statement's Args, back to back
}

// AppendRequest encodes a FrameRequest payload:
//
//	request := id:uvarint flags:uint8 epoch:uvarint count:uvarint
//	           (origin:string seq:varint hash:uint64le
//	            textflag:uint8 [text:string] nargs:uvarint item*)*
//
// epoch is the sender's belief about the statements' slot epoch, a claim
// only when flags has FwdEpoch (senders without one write 0). Encoding
// fails only on an argument item that is not a valid value.
func AppendRequest(dst []byte, id uint64, flags byte, epoch uint64, stmts []Stmt) ([]byte, error) {
	dst = binary.AppendUvarint(dst, id)
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, uint64(len(stmts)))
	var err error
	for _, st := range stmts {
		dst = value.AppendString(dst, st.Origin)
		dst = binary.AppendVarint(dst, int64(st.Seq))
		dst = binary.LittleEndian.AppendUint64(dst, st.Hash)
		if st.HasText {
			dst = append(dst, 1)
			dst = value.AppendString(dst, st.Text)
		} else {
			dst = append(dst, 0)
		}
		if dst, err = appendItems(dst, st.Args); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// DecodeRequestInto decodes a FrameRequest payload into r, reusing r's
// statement and argument scratch: every statement's Args slice aliases
// that scratch, a loan valid until the next decode into r — exactly like
// the frame reader's payloads. On error r holds no valid request.
func DecodeRequestInto(buf []byte, r *Request) error {
	id, n := binary.Uvarint(buf)
	if n <= 0 || len(buf[n:]) < 1 {
		return fmt.Errorf("%w: bad request id", ErrCorrupt)
	}
	r.ID, r.Flags = id, buf[n]
	buf = buf[n+1:]
	if r.Epoch, n = binary.Uvarint(buf); n <= 0 {
		return fmt.Errorf("%w: bad request epoch", ErrCorrupt)
	}
	buf = buf[n:]
	// A statement is at least 12 bytes: empty origin, seq, fixed 8-byte
	// hash, text flag, zero-arg count. Refusing a count beyond that bounds
	// the allocation a hostile count can force before per-statement
	// validation.
	count, n := binary.Uvarint(buf)
	if n <= 0 || count > uint64(len(buf))/12+1 {
		return fmt.Errorf("%w: bad request count", ErrCorrupt)
	}
	buf = buf[n:]
	r.Stmts, r.items = r.Stmts[:0], r.items[:0]
	for i := uint64(0); i < count; i++ {
		var st Stmt
		var err error
		if st.Origin, buf, err = value.DecodeString(buf); err != nil {
			return fmt.Errorf("%w: bad request origin", ErrCorrupt)
		}
		seq, n := binary.Varint(buf)
		if n <= 0 || len(buf[n:]) < 9 {
			return fmt.Errorf("%w: bad request seq", ErrCorrupt)
		}
		st.Seq = int(seq)
		buf = buf[n:]
		st.Hash = binary.LittleEndian.Uint64(buf)
		switch buf[8] {
		case 0:
			buf = buf[9:]
		case 1:
			st.HasText = true
			if st.Text, buf, err = value.DecodeString(buf[9:]); err != nil {
				return fmt.Errorf("%w: bad request text", ErrCorrupt)
			}
		default:
			return fmt.Errorf("%w: bad request text flag", ErrCorrupt)
		}
		before := len(r.items)
		if r.items, buf, err = decodeItemsInto(buf, r.items); err != nil {
			return err
		}
		st.nargs = len(r.items) - before
		r.Stmts = append(r.Stmts, st)
	}
	if len(buf) != 0 {
		return errTrailing(buf)
	}
	// Slice the Args views only now: the item scratch has stopped growing,
	// so its backing array is final and no view can be invalidated by a
	// later append.
	off := 0
	for i := range r.Stmts {
		r.Stmts[i].Args = r.items[off : off+r.Stmts[i].nargs]
		off += r.Stmts[i].nargs
	}
	return nil
}
