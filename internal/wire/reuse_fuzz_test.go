package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// errClass buckets a decode error so the two decoders can be compared on
// semantics rather than message text.
func errClass(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, io.EOF):
		return 1
	case errors.Is(err, ErrCorrupt):
		return 2
	case errors.Is(err, ErrTooLarge):
		return 3
	default:
		return 4
	}
}

// decodeAll drains a stream with one decoder, copying each payload (the
// Reader invalidates its payload on the next read) and recording the
// terminating error class.
func decodeAll(next func() (byte, []byte, error)) (typs []byte, payloads [][]byte, final int) {
	for {
		typ, payload, err := next()
		if err != nil {
			return typs, payloads, errClass(err)
		}
		typs = append(typs, typ)
		payloads = append(payloads, append([]byte(nil), payload...))
	}
}

// FuzzReadFrameReuse pins the pooled Reader byte-identical to the naive
// ReadFrame on arbitrary streams: same frames, same payload bytes, same
// terminating error class. The two are deliberately independent
// implementations — this harness is what lets the zero-allocation decoder
// replace the reference one at every call site.
func FuzzReadFrameReuse(f *testing.F) {
	var seed []byte
	seed, _ = AppendFrame(seed, FrameRequest, []byte("find 1 in R"))
	seed, _ = AppendFrame(seed, FrameQuit, nil)
	seed, _ = AppendFrame(seed, FrameResponse, bytes.Repeat([]byte("tuple "), 100))
	f.Add(seed)
	f.Add(seed[:len(seed)-3])                               // torn tail
	f.Add([]byte{FrameRequest, 0, 0, 0})                    // truncated header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // oversize length
	corrupt := append([]byte(nil), seed...)
	corrupt[7] ^= 0x40 // flip a payload bit: CRC must catch it
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		naiveSrc := bytes.NewReader(data)
		nTyps, nPayloads, nErr := decodeAll(func() (byte, []byte, error) {
			return ReadFrame(naiveSrc, MaxFrameLen)
		})
		rd := NewReader(bytes.NewReader(data))
		rTyps, rPayloads, rErr := decodeAll(rd.Next)

		if nErr != rErr {
			t.Fatalf("error class diverged: naive=%d reader=%d", nErr, rErr)
		}
		if !bytes.Equal(nTyps, rTyps) {
			t.Fatalf("frame types diverged: naive=%x reader=%x", nTyps, rTyps)
		}
		for i := range nPayloads {
			if !bytes.Equal(nPayloads[i], rPayloads[i]) {
				t.Fatalf("payload %d diverged:\nnaive  %x\nreader %x", i, nPayloads[i], rPayloads[i])
			}
		}
	})
}
