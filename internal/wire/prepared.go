package wire

import (
	"encoding/binary"
	"fmt"

	"funcdb/internal/value"
)

// Prepared-statement payload codecs.
//
// The hot-path decoders append into caller-owned scratch (the ...Into
// form, mirroring the frame reader's discipline) so a connection's steady
// state decodes with zero amortized allocations; nil scratch decodes into
// fresh slices. Decoded strings are always fresh (value.DecodeString
// copies), so only the slices are loans on the caller's scratch.

// AppendPrepare encodes a FramePrepare payload:
//
//	prepare := id:uvarint text:string
func AppendPrepare(dst []byte, id uint64, text string) []byte {
	dst = binary.AppendUvarint(dst, id)
	return value.AppendString(dst, text)
}

// DecodePrepare decodes a FramePrepare payload.
func DecodePrepare(buf []byte) (id uint64, text string, err error) {
	id, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, "", fmt.Errorf("%w: bad prepare id", ErrCorrupt)
	}
	if text, buf, err = value.DecodeString(buf[n:]); err != nil {
		return 0, "", fmt.Errorf("%w: bad prepare text", ErrCorrupt)
	}
	if len(buf) != 0 {
		return 0, "", errTrailing(buf)
	}
	return id, text, nil
}

// AppendPrepared encodes a FramePrepared payload:
//
//	prepared := id:uvarint stmt:uvarint nparams:uvarint
func AppendPrepared(dst []byte, id, stmt uint64, nparams int) []byte {
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, stmt)
	return binary.AppendUvarint(dst, uint64(nparams))
}

// DecodePrepared decodes a FramePrepared payload.
func DecodePrepared(buf []byte) (id, stmt uint64, nparams int, err error) {
	id, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, 0, fmt.Errorf("%w: bad prepared id", ErrCorrupt)
	}
	buf = buf[n:]
	stmt, n = binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, 0, fmt.Errorf("%w: bad prepared stmt", ErrCorrupt)
	}
	buf = buf[n:]
	np, n := binary.Uvarint(buf)
	if n <= 0 || np > uint64(MaxFrameLen) {
		return 0, 0, 0, fmt.Errorf("%w: bad prepared nparams", ErrCorrupt)
	}
	if len(buf[n:]) != 0 {
		return 0, 0, 0, errTrailing(buf[n:])
	}
	return id, stmt, int(np), nil
}

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

// AppendExecPrepared encodes a FrameExecPrepared payload:
//
//	execp := id:uvarint stmt:uvarint nargs:uvarint item*
func AppendExecPrepared(dst []byte, id, stmt uint64, args []value.Item) ([]byte, error) {
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, stmt)
	return appendItems(dst, args)
}

// DecodeExecPreparedInto decodes a FrameExecPrepared payload, appending
// the arguments into scratch — the per-connection form: a warmed scratch
// slice makes the steady-state decode allocation-free (string arguments
// still copy their text, as every decoder here does).
func DecodeExecPreparedInto(buf []byte, scratch []value.Item) (id, stmt uint64, args []value.Item, err error) {
	id, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: bad exec-prepared id", ErrCorrupt)
	}
	buf = buf[n:]
	stmt, n = binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: bad exec-prepared stmt", ErrCorrupt)
	}
	if args, buf, err = decodeItemsInto(buf[n:], scratch); err != nil {
		return 0, 0, nil, err
	}
	if len(buf) != 0 {
		return 0, 0, nil, errTrailing(buf)
	}
	return id, stmt, args, nil
}

// PreparedCall is one (statement id, args) pair inside a
// FrameBatchPrepared payload.
type PreparedCall struct {
	Stmt uint64
	Args []value.Item

	argStart, argEnd int // decode-side offsets into the shared item scratch
}

// AppendBatchPrepared encodes a FrameBatchPrepared payload:
//
//	batchp := id:uvarint count:uvarint (stmt:uvarint nargs:uvarint item*)*
func AppendBatchPrepared(dst []byte, id uint64, calls []PreparedCall) ([]byte, error) {
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, uint64(len(calls)))
	var err error
	for _, c := range calls {
		dst = binary.AppendUvarint(dst, c.Stmt)
		if dst, err = appendItems(dst, c.Args); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// DecodeBatchPreparedInto decodes a FrameBatchPrepared payload, reusing
// the caller's call and item scratch. Every call's Args slice aliases the
// returned item slice — they are loans valid until the caller's next
// decode into the same scratch, exactly like the frame reader's payloads.
func DecodeBatchPreparedInto(buf []byte, calls []PreparedCall, items []value.Item) (id uint64, outCalls []PreparedCall, outItems []value.Item, err error) {
	id, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, nil, fmt.Errorf("%w: bad batch-prepared id", ErrCorrupt)
	}
	buf = buf[n:]
	count, n := binary.Uvarint(buf)
	// A call is at least 2 bytes (stmt varint + zero-arg count).
	if n <= 0 || count > uint64(len(buf))/2+1 {
		return 0, nil, nil, fmt.Errorf("%w: bad batch-prepared count", ErrCorrupt)
	}
	buf = buf[n:]
	calls, items = calls[:0], items[:0]
	for i := uint64(0); i < count; i++ {
		stmt, n := binary.Uvarint(buf)
		if n <= 0 {
			return 0, nil, nil, fmt.Errorf("%w: bad batch-prepared stmt", ErrCorrupt)
		}
		start := len(items)
		if items, buf, err = decodeItemsInto(buf[n:], items); err != nil {
			return 0, nil, nil, err
		}
		calls = append(calls, PreparedCall{Stmt: stmt, argStart: start, argEnd: len(items)})
	}
	if len(buf) != 0 {
		return 0, nil, nil, errTrailing(buf)
	}
	// Slice the Args views only now: items has stopped growing, so the
	// backing array is final and the views cannot be invalidated by a
	// later append.
	for i := range calls {
		calls[i].Args = items[calls[i].argStart:calls[i].argEnd]
	}
	return id, calls, items, nil
}

// PreparedFwdStmt is one pre-tagged statement inside a
// FrameForwardPrepared payload. The tag (Origin, Seq) follows
// ForwardStmt's contract: the receiver executes without retagging. The
// statement itself resolves by, in order: Stmt (the receiver's dense id,
// 0 when unknown), Hash (FNV-1a of the text, 0 for a plain text
// statement), then Text when HasText — the sender includes the text on
// first contact or after an ErrUnknownStmt re-prepare demand.
type PreparedFwdStmt struct {
	Origin  string
	Seq     int
	Stmt    uint64
	Hash    uint64
	Text    string
	HasText bool
	Args    []value.Item

	argStart, argEnd int // decode-side offsets into the shared item scratch
}

// AppendForwardPrepared encodes a FrameForwardPrepared payload, opening
// like FrameForward (epoch and FwdEpoch included):
//
//	fwdp := id:uvarint flags:uint8 epoch:uvarint count:uvarint
//	        (origin:string seq:varint stmt:uvarint hash:uint64le
//	         textflag:uint8 [text:string] nargs:uvarint item*)*
func AppendForwardPrepared(dst []byte, id uint64, flags byte, epoch uint64, stmts []PreparedFwdStmt) ([]byte, error) {
	dst = appendForwardHead(dst, id, flags, epoch, len(stmts))
	var err error
	for _, st := range stmts {
		dst = value.AppendString(dst, st.Origin)
		dst = binary.AppendVarint(dst, int64(st.Seq))
		dst = binary.AppendUvarint(dst, st.Stmt)
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

// DecodeForwardPreparedInto decodes a FrameForwardPrepared payload,
// reusing the caller's statement and item scratch; Args slices alias the
// returned item slice under the same loan contract as
// DecodeBatchPreparedInto.
func DecodeForwardPreparedInto(buf []byte, stmts []PreparedFwdStmt, items []value.Item) (id uint64, flags byte, epoch uint64, outStmts []PreparedFwdStmt, outItems []value.Item, err error) {
	// A statement is at least 13 bytes: empty origin, seq, stmt, fixed
	// 8-byte hash, text flag, zero-arg count.
	id, flags, epoch, count, buf, err := decodeForwardHead(buf, 13)
	if err != nil {
		return 0, 0, 0, nil, nil, err
	}
	stmts, items = stmts[:0], items[:0]
	for i := uint64(0); i < count; i++ {
		var st PreparedFwdStmt
		if st.Origin, buf, err = value.DecodeString(buf); err != nil {
			return 0, 0, 0, nil, nil, fmt.Errorf("%w: bad forward-prepared origin", ErrCorrupt)
		}
		seq, n := binary.Varint(buf)
		if n <= 0 {
			return 0, 0, 0, nil, nil, fmt.Errorf("%w: bad forward-prepared seq", ErrCorrupt)
		}
		st.Seq = int(seq)
		buf = buf[n:]
		st.Stmt, n = binary.Uvarint(buf)
		if n <= 0 || len(buf[n:]) < 9 {
			return 0, 0, 0, nil, nil, fmt.Errorf("%w: bad forward-prepared stmt", ErrCorrupt)
		}
		buf = buf[n:]
		st.Hash = binary.LittleEndian.Uint64(buf)
		switch buf[8] {
		case 0:
			buf = buf[9:]
		case 1:
			st.HasText = true
			if st.Text, buf, err = value.DecodeString(buf[9:]); err != nil {
				return 0, 0, 0, nil, nil, fmt.Errorf("%w: bad forward-prepared text", ErrCorrupt)
			}
		default:
			return 0, 0, 0, nil, nil, fmt.Errorf("%w: bad forward-prepared text flag", ErrCorrupt)
		}
		st.argStart = len(items)
		if items, buf, err = decodeItemsInto(buf, items); err != nil {
			return 0, 0, 0, nil, nil, err
		}
		st.argEnd = len(items)
		stmts = append(stmts, st)
	}
	if len(buf) != 0 {
		return 0, 0, 0, nil, nil, errTrailing(buf)
	}
	for i := range stmts {
		stmts[i].Args = items[stmts[i].argStart:stmts[i].argEnd]
	}
	return id, flags, epoch, stmts, items, nil
}
