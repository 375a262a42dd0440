package server

import (
	"bytes"
	"testing"

	"funcdb/internal/archive"
	"funcdb/internal/reqtrace"
	"funcdb/internal/wire"
)

// TestRecQueueFramesInPlace: the log stream's queue frames records straight
// into its buffer — a sampled commit's TraceCtx frame ahead of its
// LogRecord, each record's form ahead of its bytes — hands the writer
// everything queued since its last pop as one slice, and in the steady
// state allocates nothing per record.
func TestRecQueueFramesInPlace(t *testing.T) {
	q := &recQueue{}
	q.cond.L = &q.mu
	sampled := reqtrace.Ctx{ID: 9, Sampled: true}
	q.push(reqtrace.Ctx{}, 3, 4, []byte("one"))
	q.push(sampled, 3, 3, []byte("two"))
	q.push(reqtrace.Ctx{}, 4, 4, []byte("three"))
	frames, open := q.pop()
	if !open {
		t.Fatal("queue closed")
	}
	rd := wire.NewReader(bytes.NewReader(frames))
	want := []struct {
		typ    byte
		epoch  uint64
		form   byte
		record string
	}{
		{wire.FrameLogRecord, 3, 4, "one"},
		{wire.FrameTraceCtx, 0, 0, ""},
		{wire.FrameLogRecord, 3, 3, "two"},
		{wire.FrameLogRecord, 4, 4, "three"},
	}
	for i, w := range want {
		typ, payload, err := rd.Next()
		if err != nil || typ != w.typ {
			t.Fatalf("frame %d: type %#x, err %v; want %#x", i, typ, err, w.typ)
		}
		if typ == wire.FrameTraceCtx {
			if tc, err := wire.DecodeTraceCtx(payload); err != nil || tc != sampled {
				t.Fatalf("frame %d: trace context %+v, %v; want %+v", i, tc, err, sampled)
			}
			continue
		}
		epoch, form, record, err := wire.DecodeLogRecord(payload)
		if err != nil || epoch != w.epoch || form != w.form || string(record) != w.record {
			t.Fatalf("frame %d: epoch %d form %d record %q, %v; want %d %d %q", i, epoch, form, record, err, w.epoch, w.form, w.record)
		}
	}
	if _, _, err := rd.Next(); err == nil {
		t.Fatal("more frames than records pushed")
	}

	record := bytes.Repeat([]byte("r"), 40)
	q.push(reqtrace.Ctx{}, 1, 4, record)
	q.pop() // both buffers have grown
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			q.push(reqtrace.Ctx{}, 1, 4, record)
		}
		q.pop()
	}); allocs != 0 {
		t.Errorf("8 records pushed and popped = %.1f allocs, want 0", allocs)
	}

	q.closeQueue()
	q.push(reqtrace.Ctx{}, 1, 4, record)
	if frames, open := q.pop(); open || len(frames) != 0 {
		t.Fatalf("closed queue popped %d bytes, open %v", len(frames), open)
	}
}

// TestRecQueueBoundClosesTheStream: a push that finds more than
// wire.MaxFrameLen bytes queued — a subscriber that stopped reading —
// closes the queue instead of growing it. What was queued before still
// pops, so the stream ends cleanly, and later pushes are ignored; the
// subscriber reconnects and catches up from the archive.
func TestRecQueueBoundClosesTheStream(t *testing.T) {
	const recLen = 17 << 20 // four records queued are past the bound
	q := &recQueue{buf: make([]byte, 0, 70<<20)}
	q.cond.L = &q.mu
	record := bytes.Repeat([]byte("r"), recLen)
	for i := 0; i < 4; i++ {
		q.push(reqtrace.Ctx{}, 1, 4, record)
		if q.closed {
			t.Fatalf("queue closed after %d records (%d bytes queued)", i+1, len(q.buf))
		}
	}
	queued := len(q.buf)
	if queued <= wire.MaxFrameLen {
		t.Fatalf("only %d bytes queued, want more than the bound %d", queued, wire.MaxFrameLen)
	}
	q.push(reqtrace.Ctx{}, 1, 4, record)
	if !q.closed || len(q.buf) != queued {
		t.Fatalf("push past the bound: closed %v, %d bytes queued (was %d)", q.closed, len(q.buf), queued)
	}
	q.push(reqtrace.Ctx{}, 1, 4, []byte("later"))
	frames, open := q.pop()
	if open || len(frames) != queued {
		t.Fatalf("pop after the bound: %d bytes, open %v; want the %d queued, closed", len(frames), open, queued)
	}
	rd := wire.NewReader(bytes.NewReader(frames))
	for i := 0; i < 4; i++ {
		if _, payload, err := rd.Next(); err != nil {
			t.Fatalf("queued record %d: %v", i, err)
		} else if _, _, rec, err := wire.DecodeLogRecord(payload); err != nil || len(rec) != recLen {
			t.Fatalf("queued record %d: %d bytes, %v", i, len(rec), err)
		}
	}
	frames, q.buf, q.spare, record = nil, nil, nil, nil

	// Below the bound the check is one comparison: still no allocation.
	small := &recQueue{}
	small.cond.L = &small.mu
	rec := bytes.Repeat([]byte("s"), 40)
	small.push(reqtrace.Ctx{}, 1, 4, rec)
	small.pop()
	if allocs := testing.AllocsPerRun(100, func() {
		small.push(reqtrace.Ctx{}, 1, 4, rec)
		small.pop()
	}); allocs != 0 {
		t.Errorf("push and pop below the bound = %.1f allocs, want 0", allocs)
	}
}

// TestRecQueueBoundKeepsSnapshotWhole: a snapshot's pieces are queued
// whatever is queued already — a subscriber sent only part of a snapshot
// could never advance by reconnecting — and the first record after them
// that finds the queue past the bound closes it.
func TestRecQueueBoundKeepsSnapshotWhole(t *testing.T) {
	const pieceLen = 17 << 20 // four pieces queued are past the bound
	q := &recQueue{buf: make([]byte, 0, 90<<20)}
	q.cond.L = &q.mu
	piece := bytes.Repeat([]byte("s"), pieceLen)
	forms := []byte{archive.FormSnapshotPart, archive.FormSnapshotPart, archive.FormSnapshotPart, archive.FormSnapshotPart, archive.FormSnapshot}
	for _, form := range forms {
		q.push(reqtrace.Ctx{}, 1, form, piece)
	}
	queued := len(q.buf)
	if q.closed || queued < len(forms)*pieceLen {
		t.Fatalf("after a %d-byte snapshot: closed %v, %d bytes queued", len(forms)*pieceLen, q.closed, queued)
	}
	q.push(reqtrace.Ctx{}, 1, archive.FormRun, []byte("after"))
	frames, open := q.pop()
	if open || len(frames) != queued {
		t.Fatalf("the record after the snapshot: %d bytes popped, open %v; want the %d queued, closed", len(frames), open, queued)
	}
	rd := wire.NewReader(bytes.NewReader(frames))
	for i, want := range forms {
		if _, payload, err := rd.Next(); err != nil {
			t.Fatalf("snapshot piece %d: %v", i, err)
		} else if _, form, rec, err := wire.DecodeLogRecord(payload); err != nil || form != want || len(rec) != pieceLen {
			t.Fatalf("snapshot piece %d: form %d, %d bytes, %v; want form %d, %d bytes", i, form, len(rec), err, want, pieceLen)
		}
	}
}
