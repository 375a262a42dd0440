package server

import (
	"bytes"
	"testing"

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
