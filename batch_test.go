// Tests for the batched admission pipeline at the public surface:
// ExecBatch, prepared statements, and group-commit durability semantics.
package funcdb_test

import (
	"errors"
	"fmt"
	"testing"

	"funcdb"
)

func TestExecBatch(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	resps, err := store.ExecBatch([]string{
		`insert (1, "a") into R`,
		`insert (2, "b") into R`,
		"find 1 in R",
		"count R",
		"delete 1 from R",
		"find 1 in R",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 6 {
		t.Fatalf("got %d responses", len(resps))
	}
	if !resps[2].Found || resps[3].Count != 2 || resps[5].Found {
		t.Errorf("batch responses wrong: %+v", resps)
	}
	// Batch sequence numbers are consecutive and in submission order.
	for i := 1; i < len(resps); i++ {
		if resps[i].Seq != resps[i-1].Seq+1 {
			t.Errorf("non-consecutive seqs: %d then %d", resps[i-1].Seq, resps[i].Seq)
		}
	}
}

func TestExecBatchAllOrNothingTranslation(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	_, err := store.ExecBatch([]string{`insert (1, "a") into R`, "not a query"})
	if err == nil {
		t.Fatal("syntax error in batch not surfaced")
	}
	if got := store.Current().TotalTuples(); got != 0 {
		t.Errorf("failed batch still submitted %d writes", got)
	}
}

// TestExecBatchErrorIndex: a rejected batch reports WHICH statement
// failed, programmatically — errors.As recovers the index and query text,
// not just an error string.
func TestExecBatchErrorIndex(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	_, err := store.ExecBatch([]string{
		"count R",
		`insert (1, "a") into R`,
		"definitely not a query",
		"count R",
	})
	if err == nil {
		t.Fatal("bad batch accepted")
	}
	var be *funcdb.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("ExecBatch error is %T, want *funcdb.BatchError", err)
	}
	if be.Index != 2 {
		t.Errorf("failing index = %d, want 2", be.Index)
	}
	if be.Query != "definitely not a query" {
		t.Errorf("failing query = %q", be.Query)
	}
	if be.Unwrap() == nil {
		t.Error("BatchError hides the underlying parse error")
	}
	// All-or-nothing still holds.
	if got := store.Current().TotalTuples(); got != 0 {
		t.Errorf("failed batch submitted %d writes", got)
	}

	// Prepared-statement batches report bind failures the same way.
	ins := mustPrepare(t, store, "insert (?, ?) into R")
	_, err = ins.ExecBatch(
		[]funcdb.Item{funcdb.Int(1), funcdb.Str("a")},
		[]funcdb.Item{funcdb.Int(2)}, // arity mismatch
	)
	if !errors.As(err, &be) || be.Index != 1 {
		t.Errorf("stmt batch error = %v (index %d), want BatchError at 1", err, be.Index)
	}
}

func TestExecBatchMatchesExec(t *testing.T) {
	queries := []string{
		"create X using avl",
		`insert (1, "a") into X`,
		`insert (2, "b") into X`,
		"range 1 2 in X",
		"scan X",
		"find 9 in X",
		"count X",
	}
	one := funcdb.MustOpen(funcdb.WithRelations("R"))
	var oneResps []funcdb.Response
	for _, q := range queries {
		r, err := one.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		oneResps = append(oneResps, r)
	}
	batch := funcdb.MustOpen(funcdb.WithRelations("R"))
	batchResps, err := batch.ExecBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	if !one.Current().Equal(batch.Current()) {
		t.Fatal("batched and one-at-a-time stores diverged")
	}
	for i := range queries {
		a, b := oneResps[i], batchResps[i]
		if a.Found != b.Found || a.Count != b.Count || !a.Tuple.Equal(b.Tuple) {
			t.Errorf("query %q: %+v vs %+v", queries[i], a, b)
		}
	}
}

func TestPreparedStatements(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("parts"))
	ins, err := store.Prepare("insert (?, ?) into parts")
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 2 || ins.Query() != "insert (?, ?) into parts" {
		t.Fatalf("stmt metadata wrong: %d params", ins.NumParams())
	}
	for i := 0; i < 10; i++ {
		resp, err := ins.Exec(funcdb.Int(int64(i)), funcdb.Str(fmt.Sprintf("part-%d", i)))
		if err != nil || resp.Err != nil {
			t.Fatalf("prepared insert %d: %v %v", i, err, resp.Err)
		}
	}
	find, err := store.Prepare("find ? in parts")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := find.Exec(funcdb.Int(7))
	if err != nil || !resp.Found || !resp.Tuple.Field(1).Equal(funcdb.Str("part-7")) {
		t.Fatalf("prepared find: %v %+v", err, resp)
	}
	if _, err := find.Exec(); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestPreparedExecBatch(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	ins := mustPrepare(t, store, "insert (?, ?) into R")
	var sets [][]funcdb.Item
	for i := 0; i < 20; i++ {
		sets = append(sets, []funcdb.Item{funcdb.Int(int64(i)), funcdb.Str("v")})
	}
	resps, err := ins.ExecBatch(sets...)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 20 {
		t.Fatalf("got %d responses", len(resps))
	}
	if got := store.Current().TotalTuples(); got != 20 {
		t.Errorf("tuples = %d, want 20", got)
	}
	// All-or-nothing binding: one bad argument set submits nothing.
	before := store.Current().TotalTuples()
	if _, err := ins.ExecBatch([]funcdb.Item{funcdb.Int(99), funcdb.Str("v")}, []funcdb.Item{funcdb.Int(100)}); err == nil {
		t.Error("bad bind set accepted")
	}
	if got := store.Current().TotalTuples(); got != before {
		t.Errorf("failed batch submitted writes: %d -> %d", before, got)
	}
}

func mustPrepare(t *testing.T, s *funcdb.Store, q string) *funcdb.Stmt {
	t.Helper()
	st, err := s.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestGroupCommitStore(t *testing.T) {
	dir := t.TempDir()
	store, err := funcdb.Open(
		funcdb.WithRelations("R"),
		funcdb.WithDurability(dir, funcdb.SyncEveryWrite()))
	if err != nil {
		t.Fatal(err)
	}
	ins := mustPrepare(t, store, "insert (?, ?) into R")
	for i := 0; i < 30; i++ {
		if _, err := ins.Exec(funcdb.Int(int64(i)), funcdb.Str("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Each Exec returned once its write was flushed: the durable listing
	// holds every commit.
	infos, err := store.ArchivedVersions()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 31 { // initial snapshot + 30 writes
		t.Fatalf("archived versions = %d, want 31", len(infos))
	}
	db, err := store.VersionAt(15)
	if err != nil {
		t.Fatal(err)
	}
	if db.TotalTuples() != 15 {
		t.Errorf("VersionAt(15) sees %d tuples", db.TotalTuples())
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the full stream was durable.
	re, err := funcdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Current().TotalTuples(); got != 30 {
		t.Errorf("recovered %d tuples, want 30", got)
	}
}
