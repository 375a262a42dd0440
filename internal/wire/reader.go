package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// maxRetainedBody caps the body buffer a Reader keeps between
	// frames. One oversized scan response may grow it; the next small
	// frame shrinks it back so a long-lived connection does not pin the
	// high-water mark forever.
	maxRetainedBody = 1 << 20
	// readBodyChunk bounds how much the body buffer grows per read:
	// bytes are requested only as they actually arrive, so a corrupted
	// length field costs a truncation error, never a giant allocation.
	readBodyChunk = 64 << 10
)

// Reader decodes a frame stream into one reusable body buffer: the
// header lands in a fixed array, the body in a slice grown once to the
// connection's working size, so the steady state allocates nothing.
//
// The payload returned by Next aliases the Reader's internal buffer and
// is valid only until the next call to Next. Callers that keep payload
// bytes past that point must copy them — every decoder in this package
// and internal/value already copies what it extracts (a reply frame's
// decoders copy the whole payload once, into a value.Block).
//
// A Reader is not safe for concurrent use; each connection's read loop
// owns one.
type Reader struct {
	r    io.Reader
	body []byte
	// hdr lives on the Reader, not Next's stack: a stack array handed
	// through the io.Reader interface escapes and would cost one
	// allocation per frame.
	hdr [5]byte
}

// NewReader returns a Reader decoding frames from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Next reads one framed message. io.EOF means the peer closed cleanly
// between frames; a close mid-frame surfaces as ErrTruncated. The returned
// payload is valid only until the next call to Next.
func (rd *Reader) Next() (typ byte, payload []byte, err error) {
	hdr := rd.hdr[:]
	if _, err := io.ReadFull(rd.r, hdr[:1]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: read: %w", err)
	}
	if _, err := io.ReadFull(rd.r, hdr[1:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, ErrTruncated
		}
		return 0, nil, fmt.Errorf("wire: read: %w", err)
	}
	typ = hdr[0]
	length := binary.LittleEndian.Uint32(hdr[1:])
	if length > MaxFrameLen {
		return 0, nil, fmt.Errorf("%w: length %d", ErrTooLarge, length)
	}
	need := int(length) + 4 // payload + trailing CRC
	if cap(rd.body) > maxRetainedBody && need <= maxRetainedBody {
		rd.body = nil // shed a one-off high-water mark
	}
	// Grow the body buffer only as bytes actually arrive: a corrupted
	// length field must cost a truncation error, not a giant allocation.
	rd.body = rd.body[:0]
	for len(rd.body) < need {
		n := need - len(rd.body)
		if n > readBodyChunk {
			n = readBodyChunk
		}
		if cap(rd.body)-len(rd.body) < n {
			grown := cap(rd.body) * 2
			if grown < len(rd.body)+n {
				grown = len(rd.body) + n
			}
			if grown > need {
				grown = need
			}
			next := make([]byte, len(rd.body), grown)
			copy(next, rd.body)
			rd.body = next
		}
		chunk := rd.body[len(rd.body) : len(rd.body)+n]
		got, err := io.ReadFull(rd.r, chunk)
		rd.body = rd.body[:len(rd.body)+got]
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return 0, nil, ErrTruncated
			}
			return 0, nil, fmt.Errorf("wire: read: %w", err)
		}
	}
	payload = rd.body[:length]
	sum := binary.LittleEndian.Uint32(rd.body[length:])
	if FrameCRC(typ, payload) != sum {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return typ, payload, nil
}
