package session

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/lenient"
	"funcdb/internal/query"
	"funcdb/internal/relation"
	"funcdb/internal/value"
)

// engineSubmitter adapts a raw core.Engine to the Submitter interface,
// recording every batch it admits.
type engineSubmitter struct {
	e       *core.Engine
	mu      sync.Mutex
	batches [][]core.Transaction
}

func (es *engineSubmitter) SubmitTagged(txs []core.Transaction, futs []*Future) {
	es.mu.Lock()
	cp := make([]core.Transaction, len(txs))
	copy(cp, txs)
	es.batches = append(es.batches, cp)
	es.mu.Unlock()
	es.e.SubmitBatch(txs, futs)
}

func newSession(t *testing.T, opts ...Option) (*Session, *engineSubmitter) {
	t.Helper()
	es := &engineSubmitter{e: core.NewEngine(database.New(relation.RepList, "R", "S"))}
	return New(es, opts...), es
}

func TestExecTagsOriginAndSeq(t *testing.T) {
	s, _ := newSession(t, WithOrigin("c7"))
	r1, err := s.Exec(`insert (1, "a") into R`)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Exec("find 1 in R")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Tag() != "c7#0" || r2.Tag() != "c7#1" {
		t.Errorf("tags = %s, %s; want c7#0, c7#1", r1.Tag(), r2.Tag())
	}
	if !r2.Found {
		t.Error("session read missed its own write")
	}
}

func TestQueueIsPipelined(t *testing.T) {
	s, es := newSession(t)
	f1, err := s.Queue(`insert (1, "a") into R`)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s.Queue("find 1 in R")
	if err != nil {
		t.Fatal(err)
	}
	f3, err := s.Queue("count R")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Pending(); got != 3 {
		t.Fatalf("pending = %d, want 3", got)
	}
	if len(es.batches) != 0 {
		t.Fatal("queueing admitted transactions before any flush")
	}
	// Forcing ANY queued future flushes the whole pipeline in one batch.
	if resp := f2.Force(); !resp.Found {
		t.Error("pipelined read missed the pipelined write before it")
	}
	if len(es.batches) != 1 || len(es.batches[0]) != 3 {
		t.Fatalf("flush admitted %d batches: %v", len(es.batches), es.batches)
	}
	if resp := f1.Force(); resp.Err != nil {
		t.Errorf("insert response: %v", resp.Err)
	}
	if resp := f3.Force(); resp.Count != 1 {
		t.Errorf("count = %d, want 1", resp.Count)
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("pending after flush = %d", got)
	}
}

func TestFlushBatchesQueuedStatements(t *testing.T) {
	s, es := newSession(t)
	for i := 0; i < 5; i++ {
		if _, err := s.Queue("count R"); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	if len(es.batches) != 1 || len(es.batches[0]) != 5 {
		t.Fatalf("one flush must be one admission: %d batches", len(es.batches))
	}
	s.Flush() // empty flush is a no-op
	if len(es.batches) != 1 {
		t.Error("empty flush submitted a batch")
	}
}

func TestExecBatchReportsFailingIndex(t *testing.T) {
	s, _ := newSession(t)
	_, err := s.ExecBatch([]string{"count R", "count S", "not a query", "count R"})
	if err == nil {
		t.Fatal("bad batch accepted")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *BatchError", err)
	}
	if be.Index != 2 || be.Query != "not a query" || be.Err == nil {
		t.Errorf("BatchError = %+v", be)
	}
	if !strings.Contains(be.Error(), "batch query 2") {
		t.Errorf("Error() = %q", be.Error())
	}
}

func TestExecBatchAllOrNothing(t *testing.T) {
	s, es := newSession(t)
	if _, err := s.ExecBatch([]string{`insert (1, "a") into R`, "garbage"}); err == nil {
		t.Fatal("bad batch accepted")
	}
	if len(es.batches) != 0 {
		t.Error("failed batch still admitted transactions")
	}
}

func TestStatementCacheInvalidatedByCreate(t *testing.T) {
	s, _ := newSession(t)
	// Prime the cache with a statement on a relation that does not exist.
	resp, err := s.Exec("count X")
	if err != nil || resp.Err == nil {
		t.Fatalf("count of absent relation: %v / %+v", err, resp)
	}
	hits0, _ := s.Cache().Stats()
	if _, err := s.Exec("count X"); err != nil {
		t.Fatal(err)
	}
	if hits1, _ := s.Cache().Stats(); hits1 != hits0+1 {
		t.Fatal("second count X did not hit the cache")
	}
	// The create must invalidate every cached statement touching X.
	if resp, err := s.Exec("create X using avl"); err != nil || resp.Err != nil {
		t.Fatalf("create: %v / %v", err, resp.Err)
	}
	before, missesBefore := s.Cache().Stats()
	if resp, err := s.Exec("count X"); err != nil || resp.Err != nil {
		t.Fatalf("count after create: %v / %+v", err, resp)
	}
	after, missesAfter := s.Cache().Stats()
	if after != before || missesAfter != missesBefore+1 {
		t.Errorf("count X after create hit a stale cache entry (hits %d->%d, misses %d->%d)",
			before, after, missesBefore, missesAfter)
	}
}

func TestTranslatePlaceholderArity(t *testing.T) {
	s, _ := newSession(t)
	if _, err := s.Exec("find ? in R"); err == nil {
		t.Error("placeholder query executed without bind arguments")
	}
	// The prepared form is still reachable through the session cache.
	prep, err := s.Prepare("find ? in R")
	if err != nil {
		t.Fatal(err)
	}
	if prep.NumParams() != 1 {
		t.Errorf("NumParams = %d", prep.NumParams())
	}
}

func TestConcurrentSessionsShareOneSubmitter(t *testing.T) {
	es := &engineSubmitter{e: core.NewEngine(database.New(relation.RepAVL, "R"))}
	const sessions, ops = 4, 100
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := New(es, WithOrigin("g"))
			for i := 0; i < ops; i++ {
				k := int64(g*ops + i)
				if _, err := s.Exec(`insert (` + itoa(k) + `, "v") into R`); err != nil {
					t.Errorf("exec: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	es.e.Barrier()
	if got := es.e.Current().TotalTuples(); got != sessions*ops {
		t.Errorf("tuples = %d, want %d", got, sessions*ops)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestScriptHelpers(t *testing.T) {
	qs := ParseScript("# comment\ncreate R;\n\n  insert (1, \"a\") into R\ncount R\n")
	if len(qs) != 3 || qs[0] != "create R" || qs[2] != "count R" {
		t.Errorf("ParseScript = %q", qs)
	}
	if got := SplitQueries(" a ; ; b;c "); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("SplitQueries = %q", got)
	}
}

func TestScriptAsOneBatch(t *testing.T) {
	s, es := newSession(t)
	resps, err := s.ExecBatch(ParseScript("insert (1, \"a\") into R\nfind 1 in R\n# done\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 || !resps[1].Found {
		t.Fatalf("script responses: %+v", resps)
	}
	if len(es.batches) != 1 {
		t.Error("script was not one admission")
	}
	out := Render(resps)
	if lines := strings.Split(out, "\n"); len(lines) != 2 || !strings.Contains(lines[1], "found") {
		t.Errorf("Render = %q", out)
	}
}

// TestQueueTaggedPreservesForeignTags: pre-tagged statements (the
// cluster forward path) keep their Origin/Seq verbatim, never consume
// the session's own sequence numbers, and still flush in one batch with
// the session's untagged statements.
func TestQueueTaggedPreservesForeignTags(t *testing.T) {
	s, es := newSession(t, WithOrigin("gw"))

	local1, err := s.Queue(`insert (1, "a") into R`)
	if err != nil {
		t.Fatal(err)
	}
	fwd := core.Insert("S", mustTuple(2, "b"))
	fwd.Origin, fwd.Seq = "c9", 41
	fwdFut := s.QueueTagged(fwd)
	local2, err := s.Queue("find 1 in R")
	if err != nil {
		t.Fatal(err)
	}
	s.Flush()

	if r := fwdFut.Force(); r.Tag() != "c9#41" {
		t.Errorf("forwarded tag = %s, want c9#41", r.Tag())
	}
	if r1, r2 := local1.Force(), local2.Force(); r1.Tag() != "gw#0" || r2.Tag() != "gw#1" {
		t.Errorf("local tags = %s, %s; want gw#0, gw#1 (forwarded stmt must not consume a seq)", r1.Tag(), r2.Tag())
	}
	es.mu.Lock()
	defer es.mu.Unlock()
	if len(es.batches) != 1 || len(es.batches[0]) != 3 {
		t.Fatalf("expected one 3-statement batch, got %v", es.batches)
	}
	if es.batches[0][1].Tag() != "c9#41" {
		t.Errorf("submitted forwarded tx tagged %s", es.batches[0][1].Tag())
	}
}

// TestQueueTaggedCreateInvalidatesCache: a forwarded create must drop
// cached statements touching the new relation, exactly like a local one.
func TestQueueTaggedCreateInvalidatesCache(t *testing.T) {
	s, _ := newSession(t)
	if _, err := s.Queue("find 1 in N7"); err == nil {
		// Unknown relations translate fine (the error is operational), so
		// prime the cache with a statement touching N7.
	}
	before := s.Cache().Len()
	tx, err := s.Translate("create N7 using avl")
	if err != nil {
		t.Fatal(err)
	}
	tx.Origin, tx.Seq = "c1", 0
	s.QueueTagged(tx)
	s.Flush()
	if after := s.Cache().Len(); after >= before && before > 0 {
		t.Errorf("cache %d -> %d: forwarded create did not invalidate statements on N7", before, after)
	}
}

func mustTuple(k int64, v string) value.Tuple {
	return value.NewTuple(value.Int(k), value.Str(v))
}

// TestTextTrafficDoesNotEvictRegistered: text statements with distinct
// literals share one cache entry per shape, so ten thousand of them leave
// a prepared statement's hash resolving and hit the cache almost every
// time. Before templates each was its own entry: 256 of them evicted the
// prepared statement and every one missed.
func TestTextTrafficDoesNotEvictRegistered(t *testing.T) {
	es := &engineSubmitter{e: core.NewEngine(database.New(relation.RepAVL, "r0"))}
	s := New(es)
	prep, err := s.Prepare("insert (?, ?) into r0")
	if err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := s.Cache().Stats()
	const n = 10000
	for i := 0; i < n; i++ {
		var q string
		switch i % 4 {
		case 0:
			q = `insert (` + itoa(int64(i)) + `, "v` + itoa(int64(i)) + `") into r0`
		case 1:
			q = `find ` + itoa(int64(i-1)) + ` in r0`
		case 2:
			q = `range ` + itoa(int64(i-2)) + ` ` + itoa(int64(i)) + ` in r0`
		case 3:
			q = `delete ` + itoa(int64(i-3)) + ` from r0`
		}
		resp, err := s.Exec(q)
		if err != nil || resp.Err != nil {
			t.Fatalf("%s: %v / %v", q, err, resp.Err)
		}
		if i%4 == 1 && !resp.Found {
			t.Fatalf("%s missed the insert before it", q)
		}
	}
	if got, ok := s.PreparedByHash(query.HashText("insert (?, ?) into r0")); !ok || got != prep {
		t.Error("text traffic evicted a prepared statement")
	}
	const templates = 4
	if got := s.Cache().Len(); got > templates+1 {
		t.Errorf("cache holds %d entries after %d literal texts of %d shapes", got, n, templates)
	}
	hits, misses := s.Cache().Stats()
	hits, misses = hits-hits0, misses-misses0
	if ratio := float64(hits) / float64(hits+misses); ratio <= 0.99 {
		t.Errorf("hit ratio %.4f (%d hits, %d misses), want > 0.99", ratio, hits, misses)
	}
}

// TestCreateInvalidatesTemplateEntry: a literal insert into a relation
// that does not exist yet caches its template; the create that introduces
// the relation must drop that entry, so the next literal insert prepares
// afresh instead of binding a plan that predates the directory change.
func TestCreateInvalidatesTemplateEntry(t *testing.T) {
	s, _ := newSession(t)
	if resp, err := s.Exec(`insert (1, "a") into X`); err != nil || resp.Err == nil {
		t.Fatalf("insert into absent relation: %v / %+v", err, resp)
	}
	stale, err := s.Prepare("insert (?, ?) into X")
	if err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := s.Cache().Stats()
	if _, err := s.Translate(`insert (2, "b") into X`); err != nil {
		t.Fatal(err)
	}
	if hits, misses := s.Cache().Stats(); hits != hits0+1 || misses != misses0 {
		t.Fatal("second literal insert did not hit the template entry")
	}

	if resp, err := s.Exec("create X using avl"); err != nil || resp.Err != nil {
		t.Fatalf("create: %v / %v", err, resp.Err)
	}
	hits0, misses0 = s.Cache().Stats()
	if resp, err := s.Exec(`insert (3, "c") into X`); err != nil || resp.Err != nil {
		t.Fatalf("insert after create: %v / %+v", err, resp)
	}
	if hits, misses := s.Cache().Stats(); hits != hits0 || misses != misses0+1 {
		t.Errorf("insert after create bound a stale template (hits %d->%d, misses %d->%d)", hits0, hits, misses0, misses)
	}
	if fresh, err := s.Prepare("insert (?, ?) into X"); err != nil || fresh == stale {
		t.Errorf("template entry survived the create: %v", err)
	}
}

// nopSubmitter resolves every transaction with one shared ready future:
// what is left is the session's own cost.
type nopSubmitter struct{ fut *Future }

func (n nopSubmitter) SubmitTagged(txs []core.Transaction, futs []*Future) {
	for i := range futs {
		futs[i] = n.fut
	}
}

// TestExecAsyncAllocGate: executing a statement costs its translation and
// nothing else — no pending-statement object, no result slice.
func TestExecAsyncAllocGate(t *testing.T) {
	s := New(nopSubmitter{lenient.Ready(core.Response{})})
	for _, tc := range []struct {
		q   string
		max float64
	}{
		{"find 7 in R", 0},
		{`insert (7, "v") into R`, 1}, // the tuple's items
	} {
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := s.ExecAsync(tc.q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("ExecAsync(%q) = %.1f allocs, want <= %.0f", tc.q, allocs, tc.max)
		}
	}
}

// TestQueueTxAllocGate: a queued statement is one object — the pending
// statement, which is also its own future.
func TestQueueTxAllocGate(t *testing.T) {
	s := New(nopSubmitter{lenient.Ready(core.Response{})})
	tx := core.Find("R", value.Int(7))
	allocs := testing.AllocsPerRun(1000, func() {
		fut := s.QueueTx(tx)
		s.Flush()
		fut.Force()
	})
	if allocs > 1 {
		t.Errorf("QueueTx + Flush + Force = %.1f allocs, want <= 1", allocs)
	}
}
