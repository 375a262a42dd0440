// The contracts the retired cross-version interop tests pinned, restated
// for the one version-6 layout. Each test keeps its namesake's name and
// checks what survives of its contract: TestWireV2V3Equivalence the
// optional failover epoch, TestWireV3V4Equivalence the prepared frames'
// scratch decoders, TestWireV4V5Equivalence the trace context. The bytes
// of every frame are pinned by TestGoldenFrames.
package wire

import (
	"bytes"
	"io"
	"testing"

	"funcdb/internal/value"
)

// TestWireV2V3Equivalence: a failover epoch never disturbs the frame's
// other fields. An unstamped frame carries epoch 0 in the epoch's fixed
// place, and a stamped one differs from it only there (and, for forwards,
// in the FwdEpoch bit).
func TestWireV2V3Equivalence(t *testing.T) {
	stmts := []ForwardStmt{
		{Origin: "c0", Seq: 3, Query: `insert (1, "x") into R`},
		{Origin: "c0", Seq: 4, Query: "count R"},
	}

	// Forward: flags byte right after the 1-byte id, epoch varint after it.
	plain := AppendForward(nil, 9, FwdNoForward, 0, stmts)
	stamped := AppendForward(nil, 9, FwdNoForward|FwdEpoch, 77, stmts)
	patched := append([]byte(nil), plain...)
	patched[1] |= FwdEpoch
	patched[2] = 77
	if !bytes.Equal(patched, stamped) {
		t.Fatalf("epoch disturbed the other forward bytes:\n got %x\nwant %x", stamped, patched)
	}
	for _, c := range []struct {
		buf   []byte
		flags byte
		epoch uint64
	}{{plain, FwdNoForward, 0}, {stamped, FwdNoForward | FwdEpoch, 77}} {
		id, flags, epoch, got, err := DecodeForward(c.buf)
		if err != nil || id != 9 || flags != c.flags || epoch != c.epoch || len(got) != len(stmts) {
			t.Fatalf("forward decode: id=%d flags=%x epoch=%d err=%v", id, flags, epoch, err)
		}
		for i := range got {
			if got[i] != stmts[i] {
				t.Fatalf("stmt %d diverged: %+v vs %+v", i, got[i], stmts[i])
			}
		}
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

	// LogRecord: an epoch prefix ahead of the archive record bytes.
	record := []byte("archive-record-bytes")
	epoch, rec, err := DecodeLogRecord(AppendLogRecord(nil, 3, record))
	if err != nil || epoch != 3 || !bytes.Equal(rec, record) {
		t.Fatalf("log record: epoch=%d rec=%q err=%v", epoch, rec, err)
	}
	if un := AppendLogRecord(nil, 0, record); un[0] != 0 || !bytes.Equal(un[1:], record) {
		t.Fatal("epoch-0 log record does not wrap the record bytes unchanged")
	}
}

// TestWireV3V4Equivalence: the prepared frames' scratch decoders agree
// whatever scratch they are handed — nil or warm, grown or reused — and
// the forward-prepared epoch follows TestWireV2V3Equivalence's discipline.
func TestWireV3V4Equivalence(t *testing.T) {
	id, text, err := DecodePrepare(AppendPrepare(nil, 3, "find ? in R"))
	if err != nil || id != 3 || text != "find ? in R" {
		t.Fatalf("prepare round-trip: id=%d text=%q err=%v", id, text, err)
	}
	rid, stmt, np, err := DecodePrepared(AppendPrepared(nil, 3, 17, 1))
	if err != nil || rid != 3 || stmt != 17 || np != 1 {
		t.Fatalf("prepared round-trip: %d %d %d %v", rid, stmt, np, err)
	}

	// ExecPrepared: scratch reuse across decodes never bleeds earlier
	// arguments in.
	args := samplePreparedArgs()
	ep, err := AppendExecPrepared(nil, 11, 17, args)
	if err != nil {
		t.Fatal(err)
	}
	nid, nstmt, nargs, err := DecodeExecPreparedInto(ep, nil)
	if err != nil || nid != 11 || nstmt != 17 || len(nargs) != len(args) {
		t.Fatalf("nil-scratch exec-prepared decode: %d %d %d %v", nid, nstmt, len(nargs), err)
	}
	warm := warmScratch().items
	for round := 0; round < 3; round++ {
		sid, sstmt, sargs, err := DecodeExecPreparedInto(ep, warm[:0])
		if err != nil || sid != nid || sstmt != nstmt || len(sargs) != len(nargs) {
			t.Fatalf("scratch decode diverged round %d: %v", round, err)
		}
		for i := range nargs {
			if sargs[i] != nargs[i] || sargs[i] != args[i] {
				t.Fatalf("arg %d diverged: %+v vs %+v", i, sargs[i], nargs[i])
			}
		}
		warm = sargs
	}

	// BatchPrepared: Args views stay valid and correct when the shared
	// item scratch grows (append-realloc safety).
	calls := []PreparedCall{
		{Stmt: 1, Args: args},
		{Stmt: 2, Args: nil},
		{Stmt: 1, Args: []value.Item{value.Str("long-enough-to-force-item-growth"), value.Int(1), value.Int(2), value.Int(3)}},
	}
	bp, err := AppendBatchPrepared(nil, 13, calls)
	if err != nil {
		t.Fatal(err)
	}
	sc := warmScratch()
	for _, items := range [][]value.Item{nil, make([]value.Item, 0, 1), sc.items} {
		bid, got, _, err := DecodeBatchPreparedInto(bp, sc.calls, items)
		if err != nil || bid != 13 || len(got) != len(calls) {
			t.Fatalf("batch-prepared decode: %d %d %v", bid, len(got), err)
		}
		for i := range calls {
			if got[i].Stmt != calls[i].Stmt || len(got[i].Args) != len(calls[i].Args) {
				t.Fatalf("call %d diverged: %+v vs %+v", i, got[i], calls[i])
			}
			for j := range calls[i].Args {
				if got[i].Args[j] != calls[i].Args[j] {
					t.Fatalf("call %d arg %d diverged", i, j)
				}
			}
		}
	}

	// ForwardPrepared: the epoch sits where it does in a Forward, and the
	// hash/text resolution fields survive nil and warm scratch alike.
	stmts := []PreparedFwdStmt{
		{Origin: "c0", Seq: 3, Hash: 0xdeadbeefcafe, Text: "find ? in R", HasText: true, Args: args[:1]},
		{Origin: "c0", Seq: 4, Stmt: 9, Hash: 0xdeadbeefcafe, Args: args[1:]},
	}
	plain, err := AppendForwardPrepared(nil, 21, FwdNoForward, 0, stmts)
	if err != nil {
		t.Fatal(err)
	}
	stamped, err := AppendForwardPrepared(nil, 21, FwdNoForward|FwdEpoch, 77, stmts)
	if err != nil {
		t.Fatal(err)
	}
	patched := append([]byte(nil), plain...)
	patched[1] |= FwdEpoch
	patched[2] = 77
	if !bytes.Equal(patched, stamped) {
		t.Fatalf("epoch disturbed the other forward-prepared bytes:\n got %x\nwant %x", stamped, patched)
	}
	sc = warmScratch()
	for _, s := range []*scratch{{}, sc} {
		fid, fflags, fepoch, got, _, err := DecodeForwardPreparedInto(stamped, s.fwd, s.items)
		if err != nil || fid != 21 || fflags != FwdNoForward|FwdEpoch || fepoch != 77 || len(got) != len(stmts) {
			t.Fatalf("forward-prepared decode: id=%d flags=%x epoch=%d n=%d err=%v", fid, fflags, fepoch, len(got), err)
		}
		for i := range stmts {
			a, b := stmts[i], got[i]
			if a.Origin != b.Origin || a.Seq != b.Seq || a.Stmt != b.Stmt || a.Hash != b.Hash ||
				a.Text != b.Text || a.HasText != b.HasText || len(a.Args) != len(b.Args) {
				t.Fatalf("forward-prepared stmt %d diverged:\n%+v\n%+v", i, a, b)
			}
			for j := range a.Args {
				if a.Args[j] != b.Args[j] {
					t.Fatalf("forward-prepared stmt %d arg %d diverged", i, j)
				}
			}
		}
	}
}

// TestWireV4V5Equivalence: tracing never changes a request's own bytes. A
// traced request is exactly the FrameTraceCtx frame followed by the frame
// an untraced sender writes, the context reads back unchanged, and a
// context glued onto a payload (the retired suffix form) is refused.
func TestWireV4V5Equivalence(t *testing.T) {
	if Version != 6 {
		t.Fatalf("wire.Version = %d, expected 6", Version)
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

	args := samplePreparedArgs()
	requests := []frame{
		{FrameExec, AppendExec(nil, 7, "count R")},
		{FrameBatch, AppendBatch(nil, 7, []string{"count R", "insert 1 into R"})},
		{FrameExecPrepared, must(AppendExecPrepared(nil, 11, 17, args))},
		{FrameBatchPrepared, must(AppendBatchPrepared(nil, 13, []PreparedCall{{Stmt: 1, Args: args}, {Stmt: 2}}))},
		{FrameForward, AppendForward(nil, 9, FwdNoForward|FwdEpoch, 5, []ForwardStmt{{Origin: "c0", Seq: 3, Query: "count R"}})},
		{FrameLogRecord, AppendLogRecord(nil, 2, []byte("record"))},
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
