package reqtrace

import (
	"sync"
	"testing"
	"time"
)

// TestRingConcurrencyExactTotals hammers one recorder from many
// goroutines — every request sampled, every trace carrying the same
// span shape — and checks the accounting is exact: no trace lost, no
// span lost, no double admission. Run under -race this is also the
// recorder's concurrency proof.
func TestRingConcurrencyExactTotals(t *testing.T) {
	const workers, per, spansEach = 8, 50, 3
	r := New("n0", Config{
		SampleEvery:   1,
		SlowThreshold: -1, // reservoir off: everything goes through the ring
		Ring:          workers * per,
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr := r.Start()
				now := time.Now().UnixNano()
				tr.SpanNS(StageConnRead, now, 10)
				tr.SpanNS(StageDecode, now+10, 5)
				tr.SpanNS(StageLaneCommit, now+15, 20)
				r.Finish(tr)
			}
		}()
	}
	wg.Wait()

	st := r.Stats()
	if st.Started != workers*per || st.Sampled != workers*per || st.Slow != 0 {
		t.Fatalf("stats = %+v, want started=sampled=%d slow=0", st, workers*per)
	}
	ts := r.Traces()
	if len(ts) != workers*per {
		t.Fatalf("published %d traces, want %d", len(ts), workers*per)
	}
	seen := make(map[string]bool, len(ts))
	for _, tr := range ts {
		if len(tr.Spans) != spansEach {
			t.Fatalf("trace %s has %d spans, want %d", tr.ID, len(tr.Spans), spansEach)
		}
		if tr.Dropped != 0 || tr.Slow || !tr.Sampled || tr.Node != "n0" {
			t.Fatalf("trace %s published wrong: %+v", tr.ID, tr)
		}
		if seen[tr.ID] {
			t.Fatalf("trace %s published twice", tr.ID)
		}
		seen[tr.ID] = true
	}
}

// TestRingEviction fills a small ring past capacity and checks the
// newest survive, newest first.
func TestRingEviction(t *testing.T) {
	r := New("n0", Config{SampleEvery: 1, SlowThreshold: -1, Ring: 4})
	var ids []uint64
	for i := 0; i < 10; i++ {
		tr := r.Start()
		ids = append(ids, tr.ID())
		r.Finish(tr)
	}
	ts := r.Traces()
	if len(ts) != 4 {
		t.Fatalf("ring kept %d traces, want 4", len(ts))
	}
	for i, tr := range ts {
		want := FormatID(ids[len(ids)-1-i])
		if tr.ID != want {
			t.Fatalf("trace[%d] = %s, want %s (newest first)", i, tr.ID, want)
		}
	}
}

// TestSlowReservoirNeverEvicted admits slow traces, floods the recorder
// with fast head-sampled ones, and checks every slow trace is still
// published — the reservoir is separate storage that ring churn cannot
// touch.
func TestSlowReservoirNeverEvicted(t *testing.T) {
	r := New("n0", Config{SampleEvery: 1, SlowThreshold: time.Millisecond, Ring: 4, SlowRing: 8})
	slowIDs := make(map[string]bool)
	for i := 0; i < 3; i++ {
		tr := r.Start()
		slowIDs[FormatID(tr.ID())] = true
		time.Sleep(2 * time.Millisecond)
		r.Finish(tr)
	}
	for i := 0; i < 500; i++ {
		r.Finish(r.Start()) // sub-microsecond total: head-sampled, not slow
	}
	if st := r.Stats(); st.Slow != 3 {
		t.Fatalf("slow count = %d, want 3", st.Slow)
	}
	ts := r.Traces()
	found := 0
	for _, tr := range ts {
		if slowIDs[tr.ID] {
			if !tr.Slow {
				t.Fatalf("trace %s not flagged slow", tr.ID)
			}
			if tr.Total < time.Millisecond.Nanoseconds() {
				t.Fatalf("slow trace %s total %dns under the threshold", tr.ID, tr.Total)
			}
			found++
		}
	}
	if found != 3 {
		t.Fatalf("%d of 3 slow traces survived the flood", found)
	}
	// Slow entries lead the listing so the tail is visible at a glance.
	for i := 0; i < found; i++ {
		if !ts[i].Slow {
			t.Fatalf("trace[%d] is not slow; slow reservoir must be listed first", i)
		}
	}
}

// TestDisabledZeroAllocs is the disabled-path gate: a nil recorder's
// whole per-request lifecycle — start, spans, finish, context — must
// not allocate.
func TestDisabledZeroAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		tr := r.Start()
		tr.SpanNS(StageConnRead, 0, 1)
		tr.Span(StageDecode, time.Time{}, time.Time{})
		_ = tr.Ctx()
		_ = tr.Sampled()
		r.Finish(tr)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing costs %.1f allocs/request, want 0", allocs)
	}
}

// TestSampledAllocBudget is the enabled-path gate: a fully sampled
// request costs at most 2 allocations for its whole lifecycle (the one
// trace handle, plus slack for the ring append), and recording a span
// on a live handle costs zero.
func TestSampledAllocBudget(t *testing.T) {
	r := New("n0", Config{SampleEvery: 1, SlowThreshold: -1, Ring: 8})
	lifecycle := testing.AllocsPerRun(100, func() {
		tr := r.Start()
		now := time.Now().UnixNano()
		tr.SpanNS(StageConnRead, now, 1)
		tr.SpanNS(StageDecode, now, 1)
		tr.SpanNS(StageLaneCommit, now, 1)
		tr.SpanNS(StageFlush, now, 1)
		r.Finish(tr)
	})
	if lifecycle > 2 {
		t.Fatalf("sampled trace lifecycle costs %.1f allocs, want <= 2", lifecycle)
	}
	tr := r.Start()
	perSpan := testing.AllocsPerRun(100, func() {
		tr.SpanNS(StageLaneWait, 0, 1)
	})
	if perSpan != 0 {
		t.Fatalf("recording a span costs %.1f allocs, want 0", perSpan)
	}
}

// TestStartCtx checks hop continuation: same id, hop+1, the origin's
// sampling decision — and the fallback to a fresh local trace when the
// context is invalid.
func TestStartCtx(t *testing.T) {
	r := New("n1", Config{SampleEvery: 1 << 30, SlowThreshold: -1}) // local sampling ~never fires
	tr := r.StartCtx(Ctx{ID: 42, Hop: 1, Sampled: true})
	if tr.ID() != 42 || tr.Ctx().Hop != 2 || !tr.Sampled() {
		t.Fatalf("continued trace = %+v, want id 42 hop 2 sampled", tr.Ctx())
	}
	r.Finish(tr)
	if st := r.Stats(); st.Propagated != 1 {
		t.Fatalf("propagated = %d, want 1", st.Propagated)
	}
	ts := r.Traces()
	if len(ts) != 1 || ts[0].ID != FormatID(42) || ts[0].Hop != 2 {
		t.Fatalf("published = %+v, want the propagated trace at hop 2", ts)
	}
	// An unsampled context still records (the slow reservoir needs it)
	// but is not admitted to the ring.
	r.Finish(r.StartCtx(Ctx{ID: 43, Hop: 0, Sampled: false}))
	if got := len(r.Traces()); got != 1 {
		t.Fatalf("unsampled propagated trace admitted: %d published", got)
	}
	// Invalid context: a fresh local trace, not id 0.
	if fresh := r.StartCtx(Ctx{}); fresh.ID() == 0 || fresh.Ctx().Hop != 0 {
		t.Fatalf("invalid ctx continuation = %+v, want a fresh local trace", fresh.Ctx())
	}
}

// TestFinishIdempotent double-finishes one trace and checks it is
// admitted exactly once, and that MaxSpans overflow counts instead of
// corrupting.
func TestFinishIdempotent(t *testing.T) {
	r := New("n0", Config{SampleEvery: 1, SlowThreshold: -1})
	tr := r.Start()
	for i := 0; i < MaxSpans+5; i++ {
		tr.SpanNS(StagePlan, int64(i), 1)
	}
	r.Finish(tr)
	r.Finish(tr)
	ts := r.Traces()
	if len(ts) != 1 {
		t.Fatalf("double Finish published %d traces, want 1", len(ts))
	}
	if len(ts[0].Spans) != MaxSpans || ts[0].Dropped != 5 {
		t.Fatalf("overflow: %d spans dropped %d, want %d/%d", len(ts[0].Spans), ts[0].Dropped, MaxSpans, 5)
	}
}

// TestLateSpanAttaches records a span after Finish and checks a later
// snapshot carries it.
func TestLateSpanAttaches(t *testing.T) {
	r := New("n0", Config{SampleEvery: 1, SlowThreshold: -1})
	tr := r.Start()
	tr.SpanNS(StageLaneCommit, 1, 1)
	r.Finish(tr)
	tr.SpanNS(StageGroupCommitFsync, 2, 3)
	ts := r.Traces()
	if len(ts) != 1 || len(ts[0].Spans) != 2 {
		t.Fatalf("late span lost: %+v", ts)
	}
	if ts[0].Spans[1].Stage != "group-commit-fsync" {
		t.Fatalf("late span stage = %s", ts[0].Spans[1].Stage)
	}
}

// TestIDRoundTrip checks FormatID/ParseID are inverses and StageByName
// resolves the whole catalogue.
func TestIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{1, 42, 0xdeadbeefcafef00d, ^uint64(0)} {
		got, ok := ParseID(FormatID(id))
		if !ok || got != id {
			t.Fatalf("ParseID(FormatID(%d)) = %d, %v", id, got, ok)
		}
	}
	if _, ok := ParseID("xyz"); ok {
		t.Fatal("ParseID accepted garbage")
	}
	for s := Stage(0); s < numStages; s++ {
		back, ok := StageByName(s.String())
		if !ok || back != s {
			t.Fatalf("StageByName(%q) = %v, %v", s.String(), back, ok)
		}
	}
}
