// The contracts the retired cross-version interop tests pinned, restated
// for the one version-8 layout. Each test keeps its namesake's name and
// checks what survives of its contract: TestWireV2V3Equivalence the
// optional failover epoch, TestWireV3V4Equivalence the request decoder's
// scratch reuse, TestWireV4V5Equivalence the trace context. The bytes of
// every frame are pinned by TestGoldenFrames.
package wire

import (
	"bytes"
	"io"
	"testing"

	"funcdb/internal/value"
)

// sameStmts reports whether two statement lists carry the same fields.
func sameStmts(t *testing.T, got, want []Stmt) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d statements, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.Origin != b.Origin || a.Seq != b.Seq || a.Hash != b.Hash ||
			a.Text != b.Text || a.HasText != b.HasText || len(a.Args) != len(b.Args) {
			t.Fatalf("stmt %d diverged:\n got %+v\nwant %+v", i, b, a)
		}
		for j := range a.Args {
			if a.Args[j] != b.Args[j] {
				t.Fatalf("stmt %d arg %d diverged: %v vs %v", i, j, b.Args[j], a.Args[j])
			}
		}
	}
}

// TestWireV2V3Equivalence: a failover epoch never disturbs the frame's
// other fields. An unstamped frame carries epoch 0 in the epoch's fixed
// place, and a stamped one differs from it only there (and, for requests,
// in the FwdEpoch bit).
func TestWireV2V3Equivalence(t *testing.T) {
	stmts := []Stmt{
		{Origin: "c0", Seq: 3, Text: `insert (1, "x") into R`, HasText: true},
		{Origin: "c0", Seq: 4, Hash: 0xdeadbeefcafe, Args: samplePreparedArgs()},
	}

	// Request: flags byte right after the 1-byte id, epoch varint after it.
	plain := must(AppendRequest(nil, 9, FwdTagged|FwdNoForward, 0, stmts))
	stamped := must(AppendRequest(nil, 9, FwdTagged|FwdNoForward|FwdEpoch, 77, stmts))
	patched := append([]byte(nil), plain...)
	patched[1] |= FwdEpoch
	patched[2] = 77
	if !bytes.Equal(patched, stamped) {
		t.Fatalf("epoch disturbed the other request bytes:\n got %x\nwant %x", stamped, patched)
	}
	for _, c := range []struct {
		buf   []byte
		flags byte
		epoch uint64
	}{{plain, FwdTagged | FwdNoForward, 0}, {stamped, FwdTagged | FwdNoForward | FwdEpoch, 77}} {
		var r Request
		if err := DecodeRequestInto(c.buf, &r); err != nil || r.ID != 9 || r.Flags != c.flags || r.Epoch != c.epoch {
			t.Fatalf("request decode: id=%d flags=%x epoch=%d err=%v", r.ID, r.Flags, r.Epoch, err)
		}
		sameStmts(t, r.Stmts, stmts)
	}

	// Redirect: the epoch is the last field; 0 means unstamped.
	r0 := AppendRedirect(nil, 5, "10.0.0.7:4150", "R", 0)
	r12 := AppendRedirect(nil, 5, "10.0.0.7:4150", "R", 12)
	if !bytes.Equal(r0[:len(r0)-1], r12[:len(r12)-1]) {
		t.Fatalf("redirect epoch disturbed the other bytes: %x vs %x", r0, r12)
	}
	for _, c := range []struct {
		buf   []byte
		epoch uint64
	}{{r0, 0}, {r12, 12}} {
		id, addr, rel, epoch, err := DecodeRedirect(c.buf)
		if err != nil || id != 5 || addr != "10.0.0.7:4150" || rel != "R" || epoch != c.epoch {
			t.Fatalf("redirect fields diverged (%x): %d %q %q %d %v", c.buf, id, addr, rel, epoch, err)
		}
	}

	// Subscribe: one layout, (after, slot, subscriber), for failover and
	// plain mirrors alike; a bare position is refused.
	for _, c := range [][3]int{{41, 2, 0}, {41, 1, 1}} {
		after, slot, sub, err := DecodeSubscribe(AppendSubscribe(nil, int64(c[0]), c[1], c[2]))
		if err != nil || after != int64(c[0]) || slot != c[1] || sub != c[2] {
			t.Fatalf("subscribe %v: %d %d %d %v", c, after, slot, sub, err)
		}
	}
	if _, _, _, err := DecodeSubscribe(AppendSubAck(nil, 41)); err == nil {
		t.Fatal("subscribe without slot and subscriber accepted")
	}

	// LogRecord: an epoch and the record's form ahead of the archive record
	// bytes; a payload without a form byte is refused.
	record := []byte("archive-record-bytes")
	epoch, form, rec, err := DecodeLogRecord(AppendLogRecord(nil, 3, 4, record))
	if err != nil || epoch != 3 || form != 4 || !bytes.Equal(rec, record) {
		t.Fatalf("log record: epoch=%d form=%d rec=%q err=%v", epoch, form, rec, err)
	}
	if un := AppendLogRecord(nil, 0, 3, record); un[0] != 0 || un[1] != 3 || !bytes.Equal(un[2:], record) {
		t.Fatal("epoch-0 log record does not wrap the record bytes unchanged")
	}
	if _, _, _, err := DecodeLogRecord([]byte{3}); err == nil {
		t.Fatal("log record without a form accepted")
	}
}

// TestWireV3V4Equivalence: the request decoder agrees with itself whatever
// scratch it is handed — zero or warm, grown or reused — and Args views
// stay valid when the shared item scratch grows mid-decode.
func TestWireV3V4Equivalence(t *testing.T) {
	args := samplePreparedArgs()
	lists := [][]Stmt{
		{{Hash: 17, Args: args}},
		{
			{Hash: 1, Args: args},
			{Text: "count R", HasText: true},
			{Hash: 0xdeadbeefcafe, Text: "find ? in R", HasText: true, Args: []value.Item{
				value.Str("long-enough-to-force-item-growth"), value.Int(1), value.Int(2), value.Int(3)}},
		},
	}
	warm := warmScratch()
	for _, stmts := range lists {
		payload := must(AppendRequest(nil, 13, 0, 0, stmts))
		var fresh Request
		if err := DecodeRequestInto(payload, &fresh); err != nil || fresh.ID != 13 {
			t.Fatalf("nil-scratch decode: id=%d err=%v", fresh.ID, err)
		}
		sameStmts(t, fresh.Stmts, stmts)
		small := Request{items: make([]value.Item, 0, 1)}
		for round, r := range []*Request{&small, &warm.req, &warm.req} {
			if err := DecodeRequestInto(payload, r); err != nil || r.ID != fresh.ID || r.Flags != fresh.Flags {
				t.Fatalf("scratch decode diverged round %d: %v", round, err)
			}
			sameStmts(t, r.Stmts, fresh.Stmts)
		}
	}
}

// TestWireV4V5Equivalence: tracing never changes a request's own bytes. A
// traced request is exactly the FrameTraceCtx frame followed by the frame
// an untraced sender writes, the context reads back unchanged, and a
// context glued onto a payload (the retired suffix form) is refused.
func TestWireV4V5Equivalence(t *testing.T) {
	if Version != 10 {
		t.Fatalf("wire.Version = %d, expected 10", Version)
	}
	tc := sampleTraceCtx()

	// The context is fixed-width little-endian: id, hop, flags.
	if got, want := AppendTraceCtx(nil, tc), []byte("\x88\x77\x66\x55\x44\x33\x22\x11\x01\x01"); !bytes.Equal(got, want) {
		t.Fatalf("trace-context encoding changed:\n got %x\nwant %x", got, want)
	}
	back, err := DecodeTraceCtx(AppendTraceCtx(nil, tc))
	if err != nil || back != tc {
		t.Fatalf("trace-context round-trip: %+v err=%v", back, err)
	}

	requests := []frame{{FrameLogRecord, AppendLogRecord(nil, 2, 4, []byte("record"))}}
	for _, p := range sampleRequests() {
		requests = append(requests, frame{FrameRequest, p})
	}
	for _, req := range requests {
		untraced := must(AppendFrame(nil, req.typ, req.payload))
		traced := must(AppendFrame(AppendTraceFrame(nil, tc), req.typ, req.payload))
		ctxFrame := must(AppendFrame(nil, FrameTraceCtx, AppendTraceCtx(nil, tc)))
		if !bytes.Equal(traced, append(ctxFrame, untraced...)) {
			t.Fatalf("traced frame %#x is not TraceCtx frame + untraced frame:\n got %x", req.typ, traced)
		}

		rd := NewReader(bytes.NewReader(traced))
		typ, p, err := rd.Next()
		if err != nil || typ != FrameTraceCtx {
			t.Fatalf("frame %#x: first frame %#x, %v", req.typ, typ, err)
		}
		if c, err := DecodeTraceCtx(p); err != nil || c != tc {
			t.Fatalf("frame %#x: context %+v, %v", req.typ, c, err)
		}
		if typ, p, err = rd.Next(); err != nil || typ != req.typ || !bytes.Equal(p, req.payload) {
			t.Fatalf("frame %#x: annotated frame %#x %x, %v", req.typ, typ, p, err)
		}
		if _, _, err = rd.Next(); err != io.EOF {
			t.Fatalf("frame %#x: stream did not end: %v", req.typ, err)
		}

		// The log record's payload ends in opaque record bytes, so only the
		// request frames can tell a glued-on context from their own fields.
		if req.typ == FrameLogRecord {
			continue
		}
		if _, err := frameCodecs[req.typ](AppendTraceCtx(append([]byte(nil), req.payload...), tc), &scratch{}); err == nil {
			t.Fatalf("frame %#x accepted a trace-context suffix", req.typ)
		}
	}
}
