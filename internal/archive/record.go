// Package archive makes the version stream durable: an append-only log of
// structural write records plus periodic full-version snapshots, in the
// binary wire format of internal/value. It is the on-disk form of the
// paper's Section 3.3 "complete archives" — the immutable version stream is
// the database's history, and retaining it durably buys restart recovery
// and on-disk time travel for free.
//
// An archive directory contains two kinds of files:
//
//	snap-<seq>.fdba   one full database version (the version numbered seq)
//	log-<seq>.fdba    log records of the versions after seq, in order: one
//	                  per write, per insert run, or per custom commit's
//	                  effect (encode.go)
//
// Every file is a stream of framed records; every snapshot starts a new log
// segment. Recovery loads the newest decodable snapshot and replays the
// log records behind it; a torn final record (a crash mid-append) is
// detected by the frame CRC and treated as the end of the durable stream.
package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"funcdb/internal/wire"
)

// Records are wire frames (internal/wire), written by the wire's frame
// writer (BeginFrame/SealFrame, AppendFrame) and read by wire.ReadFrame —
// the same bytes, the same CRC —
//
//	record := type:uint8 length:uint32le payload crc:uint32le
//
// — with maxRecordLen as the length limit instead of the wire's.

// Record types. A log record's type is its form, which a wire LogRecord
// carries ahead of the record's bytes.
const (
	// recHeader opens every archive file: magic, format version, and the
	// base sequence number of the file.
	recHeader byte = 1
	// FormSnapshot carries one full database version: a snapshot file's
	// record, and the end of the snapshot that starts a log subscription
	// below the oldest retained segment (SubscribeTxns).
	FormSnapshot byte = 2
	// FormLegacy carries one committed transaction and its source text. It
	// is read-only: segments written before FormRun hold it, and only
	// decodeLegacy reads it.
	FormLegacy byte = 3
	// FormRun carries one run of consecutive versions of one relation, in
	// structural form only (encode.go). Every log record written is one.
	FormRun byte = 4
	// FormSnapshotPart carries a leading piece of a subscription's
	// snapshot, which a FormSnapshot record ends; no file holds one.
	FormSnapshotPart byte = 5
)

const (
	// magic identifies archive files ("fDBa", format 1, in the header
	// payload).
	magic = "fDBa"
	// formatVersion is the on-disk format revision.
	formatVersion = 1
	// maxRecordLen caps a single record's payload (a full snapshot of a
	// very large database is the biggest record we write).
	maxRecordLen = 1 << 30
)

// ErrCorrupt reports an undecodable archive. A frame cut short by a crash
// mid-append is one too, and also wire.ErrTruncated: readers test for
// that first and treat it as the end of the durable stream when it is
// the final frame.
var ErrCorrupt = errors.New("archive: corrupt record")

// record is one decoded frame.
type record struct {
	typ     byte
	payload []byte
}

// reader decodes framed records from an io.Reader, tracking the byte
// offset of the last fully valid frame so a torn tail can be truncated
// before appending resumes.
type reader struct {
	r io.Reader
	// off is the offset just past the last successfully read record.
	off int64
}

// next reads one record. io.EOF means a clean end of stream;
// wire.ErrTruncated means the stream ends inside a frame; every other
// ErrCorrupt means the frame is present but fails its checksum or length
// bound.
func (rd *reader) next() (record, error) {
	typ, payload, err := wire.ReadFrame(rd.r, maxRecordLen)
	switch {
	case err == io.EOF:
		return record{}, io.EOF
	case errors.Is(err, wire.ErrCorrupt) || errors.Is(err, wire.ErrTooLarge):
		return record{}, fmt.Errorf("%w: %w", ErrCorrupt, err)
	case err != nil:
		return record{}, fmt.Errorf("archive: %w", err)
	}
	rd.off += int64(len(payload)) + wire.FrameOverhead
	return record{typ: typ, payload: payload}, nil
}

// headerPayload encodes a file header: magic, format version, file kind
// (FormSnapshot, or a log form: FormRun for segments written now, FormLegacy
// for earlier ones, which FormRun records may follow once such an archive
// reopens), and its base sequence number.
func headerPayload(kind byte, baseSeq int64) []byte {
	out := append([]byte(magic), formatVersion, kind)
	return binary.AppendVarint(out, baseSeq)
}

// headerFrame frames a file header: a dozen bytes, never over the limit.
func headerFrame(kind byte, baseSeq int64) []byte {
	out, _ := wire.AppendFrame(nil, recHeader, headerPayload(kind, baseSeq))
	return out
}

// decodeHeader validates a header payload and returns the file kind and
// base sequence.
func decodeHeader(payload []byte) (kind byte, baseSeq int64, err error) {
	if len(payload) < len(magic)+2 || string(payload[:len(magic)]) != magic {
		return 0, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rest := payload[len(magic):]
	if rest[0] != formatVersion {
		return 0, 0, fmt.Errorf("archive: format version %d not supported", rest[0])
	}
	kind = rest[1]
	baseSeq, n := binary.Varint(rest[2:])
	if n <= 0 || n != len(rest[2:]) {
		return 0, 0, fmt.Errorf("%w: bad header sequence", ErrCorrupt)
	}
	return kind, baseSeq, nil
}
