package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"funcdb/internal/reqtrace"
)

// loopSource replays one framed byte stream forever without allocating:
// the zero-noise input for steady-state decode measurement.
type loopSource struct {
	data []byte
	off  int
}

func (l *loopSource) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// sampleStream frames a mix of payload shapes — empty, small, and a
// response-sized body — as one contiguous stream.
func sampleStream(tb testing.TB) []byte {
	tb.Helper()
	var stream []byte
	var err error
	payloads := [][]byte{
		nil,
		[]byte("find 1 in R"),
		bytes.Repeat([]byte("response payload "), 40),
	}
	for i, p := range payloads {
		if stream, err = AppendFrame(stream, FrameResponse+byte(i%3), p); err != nil {
			tb.Fatal(err)
		}
	}
	return stream
}

// TestDecodeAllocGate is the regression gate the CI bench-smoke job runs:
// once the Reader's body buffer is warm, decoding frames allocates
// NOTHING, amortized. The tolerance absorbs a GC happening to land
// inside the measured window.
func TestDecodeAllocGate(t *testing.T) {
	rd := NewReader(&loopSource{data: sampleStream(t)})
	for i := 0; i < 16; i++ { // warm the body buffer to the stream's high-water mark
		if _, _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if avg >= 0.5 {
		t.Fatalf("steady-state decode allocates %.2f/frame, want 0 amortized", avg)
	}
}

// TestEncodeAllocGate: the pooled write path allocates at most one object
// per frame, steady state — and in practice zero, since the encode buffer
// comes from the pool. Gated at ≤1 so a pool miss under GC pressure is
// not a flake.
func TestEncodeAllocGate(t *testing.T) {
	payload := []byte("insert (1, \"v\") into R")
	avg := testing.AllocsPerRun(200, func() {
		if err := WriteFrame(io.Discard, FrameRequest, payload); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1.0 {
		t.Fatalf("steady-state encode allocates %.2f/frame, want <= 1", avg)
	}
}

// TestWriteFrameNilPayloadNoAlloc: control frames with no payload
// (FrameQuit) must not allocate at all.
func TestWriteFrameNilPayloadNoAlloc(t *testing.T) {
	avg := testing.AllocsPerRun(200, func() {
		if err := WriteFrame(io.Discard, FrameQuit, nil); err != nil {
			t.Fatal(err)
		}
	})
	if avg >= 0.5 {
		t.Fatalf("nil-payload WriteFrame allocates %.2f/frame, want 0", avg)
	}
}

// TestBeginEndFrameNoAlloc: in-place frame assembly into a pre-grown
// buffer allocates nothing — the contract the server's per-connection
// response buffer depends on.
func TestBeginEndFrameNoAlloc(t *testing.T) {
	buf := make([]byte, 0, 4096)
	payload := []byte("response bytes")
	avg := testing.AllocsPerRun(200, func() {
		b, mark := BeginFrame(buf[:0], FrameResponse)
		b = append(b, payload...)
		var err error
		if b, err = EndFrame(b, mark); err != nil {
			t.Fatal(err)
		}
		_ = b
	})
	if avg >= 0.5 {
		t.Fatalf("Begin/EndFrame allocates %.2f/frame, want 0", avg)
	}
}

// TestBeginEndFrameMatchesAppendFrame: the two encoders are
// byte-identical for every payload shape.
func TestBeginEndFrameMatchesAppendFrame(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 1000)} {
		want, err := AppendFrame(nil, FrameRequest, payload)
		if err != nil {
			t.Fatal(err)
		}
		got, mark := BeginFrame(nil, FrameRequest)
		got = append(got, payload...)
		if got, err = EndFrame(got, mark); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Begin/EndFrame diverged from AppendFrame for %d-byte payload:\n got %x\nwant %x",
				len(payload), got, want)
		}
	}
}

// TestEndFrameOversizeRemovesFrame: a payload over MaxFrameLen is refused
// and the buffer comes back exactly as it was before BeginFrame — the
// caller's batch stays well-formed. (Asserted on the mark arithmetic with
// a fabricated length rather than a real 64 MiB payload: EndFrame's only
// size input is len(dst)-mark.) SealFrame holds a limit of the caller's
// own the same way, and a payload exactly at it seals and reads back.
func TestEndFrameOversizeRemovesFrame(t *testing.T) {
	prefix, err := AppendFrame(nil, FrameRequest, []byte("ok"))
	if err != nil {
		t.Fatal(err)
	}
	n := len(prefix)
	buf, mark := BeginFrame(prefix, FrameRequest)
	buf = append(buf, make([]byte, MaxFrameLen+1)...)
	buf, err = EndFrame(buf, mark)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize EndFrame err = %v, want ErrTooLarge", err)
	}
	if len(buf) != n {
		t.Fatalf("oversize EndFrame left %d bytes, want the %d-byte prefix", len(buf), n)
	}

	const limit = 16
	buf, mark = BeginFrame(prefix, FrameRequest)
	buf = append(buf, make([]byte, limit+1)...)
	buf, err = SealFrame(buf, mark, limit)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("SealFrame one byte over its limit: err = %v, want ErrTooLarge", err)
	}
	if !bytes.Equal(buf, prefix) {
		t.Fatalf("oversize SealFrame left %x, want the prefix %x", buf, prefix)
	}
	payload := bytes.Repeat([]byte{0x5A}, limit)
	buf, mark = BeginFrame(prefix, FrameRequest)
	buf = append(buf, payload...)
	if buf, err = SealFrame(buf, mark, limit); err != nil {
		t.Fatalf("SealFrame at its limit: %v", err)
	}
	typ, got, err := ReadFrame(bytes.NewReader(buf[n:]), limit)
	if err != nil || typ != FrameRequest || !bytes.Equal(got, payload) {
		t.Fatalf("ReadFrame under the limit = type %#x, %x, %v; want %#x, %x", typ, got, err, FrameRequest, payload)
	}
}

// TestReaderPayloadInvalidation pins the Reader's ownership rule: the
// payload aliases the reader's buffer and the next Next() overwrites it.
// A caller that copied in time keeps the original bytes; the aliased
// slice observably changes — the failure a violating caller would hit.
func TestReaderPayloadInvalidation(t *testing.T) {
	first := bytes.Repeat([]byte("A"), 64)
	second := bytes.Repeat([]byte("B"), 64)
	var stream []byte
	var err error
	if stream, err = AppendFrame(stream, FrameRequest, first); err != nil {
		t.Fatal(err)
	}
	if stream, err = AppendFrame(stream, FrameRequest, second); err != nil {
		t.Fatal(err)
	}
	rd := NewReader(bytes.NewReader(stream))
	_, p1, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), p1...)
	_, p2, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, first) {
		t.Fatal("copy taken before the next read was corrupted")
	}
	if !bytes.Equal(p2, second) {
		t.Fatalf("second payload = %q, want %q", p2, second)
	}
	if bytes.Equal(p1, saved) {
		t.Fatal("first payload survived the next read: buffer was not reused (aliasing contract untested)")
	}
	if !bytes.Equal(p1, second) {
		t.Fatalf("stale payload alias = %q, want it overwritten by the second frame", p1)
	}
}

// TestReaderShedsOversizeBuffer: one giant frame must not pin its buffer
// for the connection's lifetime.
func TestReaderShedsOversizeBuffer(t *testing.T) {
	big := make([]byte, maxRetainedBody+4096)
	var stream []byte
	var err error
	if stream, err = AppendFrame(stream, FrameResponse, big); err != nil {
		t.Fatal(err)
	}
	if stream, err = AppendFrame(stream, FrameRequest, []byte("small")); err != nil {
		t.Fatal(err)
	}
	rd := NewReader(bytes.NewReader(stream))
	if _, _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	if cap(rd.body) <= maxRetainedBody {
		t.Fatalf("big frame read into %d-byte buffer, expected it above the retention cap", cap(rd.body))
	}
	if _, _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	if cap(rd.body) > maxRetainedBody {
		t.Fatalf("reader retained %d-byte buffer past the %d cap", cap(rd.body), maxRetainedBody)
	}
}

// TestExecPreparedDecodeAllocGate is the regression gate CI's bench-smoke
// job runs: decoding a one-statement prepared request into warm
// per-connection scratch allocates NOTHING, amortized — the property that
// lets the server's hot path run parse-free and allocation-free.
func TestExecPreparedDecodeAllocGate(t *testing.T) {
	preparedDecodeAllocGate(t, samplePreparedStmts()[:1], false)
}

// TestExecPreparedDecodeTAllocGate: a traced request decodes its
// FrameTraceCtx first; tracing must not cost the path its zero-allocation
// property either.
func TestExecPreparedDecodeTAllocGate(t *testing.T) {
	preparedDecodeAllocGate(t, samplePreparedStmts()[:1], true)
}

// TestBatchPreparedDecodeNoAlloc: an n-statement request reuses both the
// statement and the argument scratch with zero steady-state allocation,
// Args views included, traced or not.
func TestBatchPreparedDecodeNoAlloc(t *testing.T) {
	preparedDecodeAllocGate(t, samplePreparedStmts(), false)
	preparedDecodeAllocGate(t, samplePreparedStmts(), true)
}

// samplePreparedStmts is an untagged prepared run: statements by text hash
// with positional arguments, as a plain client's Stmt sends them once the
// server holds the statement.
func samplePreparedStmts() []Stmt {
	return []Stmt{
		{Hash: 17, Args: samplePreparedArgs()},
		{Hash: 17, Args: samplePreparedArgs()[:1]},
		{Hash: 18},
	}
}

func preparedDecodeAllocGate(t *testing.T, stmts []Stmt, traced bool) {
	payload, err := AppendRequest(nil, 11, 0, 0, stmts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := AppendTraceCtx(nil, sampleTraceCtx())
	var r Request
	decode := func() {
		if traced {
			if c, err := DecodeTraceCtx(ctx); err != nil || c != sampleTraceCtx() {
				t.Fatalf("trace context: %+v, %v", c, err)
			}
		}
		if err := DecodeRequestInto(payload, &r); err != nil || len(r.Stmts) != len(stmts) {
			t.Fatalf("decode: %d statements, %v", len(r.Stmts), err)
		}
	}
	for i := 0; i < 16; i++ { // warm the scratch to the payload's width
		decode()
	}
	if avg := testing.AllocsPerRun(200, decode); avg >= 0.5 {
		t.Fatalf("steady-state %d-statement prepared decode (traced=%v) allocates %.2f/frame, want 0 amortized",
			len(stmts), traced, avg)
	}
}

// TestExecPreparedEncodeAllocGate: assembling one- and n-statement
// prepared requests into a pre-grown request buffer allocates at most one
// object per frame (and in practice zero) — the client-side half of the
// parse-free hot path, with and without the trace-context frame.
func TestExecPreparedEncodeAllocGate(t *testing.T) {
	all := samplePreparedStmts()
	buf := make([]byte, 0, 256)
	for _, stmts := range [][]Stmt{all[:1], all} {
		for _, tc := range []reqtrace.Ctx{{}, sampleTraceCtx()} {
			avg := testing.AllocsPerRun(200, func() {
				b := AppendTraceFrame(buf[:0], tc)
				b, mark := BeginFrame(b, FrameRequest)
				var err error
				if b, err = AppendRequest(b, 11, 0, 0, stmts); err != nil {
					t.Fatal(err)
				}
				if _, err = EndFrame(b, mark); err != nil {
					t.Fatal(err)
				}
			})
			if avg > 1.0 {
				t.Fatalf("steady-state %d-statement prepared encode (traced=%v) allocates %.2f/frame, want <= 1",
					len(stmts), tc.Sampled, avg)
			}
		}
	}
}

func BenchmarkAppendFrame(b *testing.B) {
	b.ReportAllocs()
	payload := []byte("insert (12345, \"value\") into R")
	buf := make([]byte, 0, 256)
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = AppendFrame(buf[:0], FrameRequest, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteFramePooled(b *testing.B) {
	b.ReportAllocs()
	payload := []byte("insert (12345, \"value\") into R")
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(io.Discard, FrameRequest, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReaderNext(b *testing.B) {
	b.ReportAllocs()
	rd := NewReader(&loopSource{data: sampleStream(b)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rd.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadFrameNaive(b *testing.B) {
	b.ReportAllocs()
	src := &loopSource{data: sampleStream(b)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadFrame(src, MaxFrameLen); err != nil {
			b.Fatal(err)
		}
	}
}
