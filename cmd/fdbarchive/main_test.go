package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"funcdb"
	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/eval"
	"funcdb/internal/trace"
)

// buildArchive writes a small durable store and returns its directory.
func buildArchive(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	store, err := funcdb.Open(
		funcdb.WithDurability(dir, funcdb.SnapshotEvery(3)),
		funcdb.WithRelations("R"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		if _, err := store.Exec(fmt.Sprintf("insert (%d, \"v%d\") into R", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var b strings.Builder
	err := run(args, &b)
	return b.String(), err
}

func TestInspectCommand(t *testing.T) {
	dir := buildArchive(t)
	out, err := runCmd(t, "inspect", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "last durable version: 8") {
		t.Fatalf("inspect output:\n%s", out)
	}
	if !strings.Contains(out, "snap-") || !strings.Contains(out, "log-") {
		t.Fatalf("inspect output lists no files:\n%s", out)
	}
}

func TestVersionsCommand(t *testing.T) {
	dir := buildArchive(t)
	out, err := runCmd(t, "versions", dir)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq <= 8; seq++ {
		if !strings.Contains(out, fmt.Sprintf("version %d:", seq)) {
			t.Fatalf("versions output misses %d:\n%s", seq, out)
		}
	}
	if !strings.Contains(out, `insert (3, "v3") into R`) {
		t.Fatalf("versions output lost query text:\n%s", out)
	}
	// Snapshotted versions carry the * marker.
	if !strings.Contains(out, "* version 6") {
		t.Fatalf("versions output misses snapshot marker:\n%s", out)
	}
}

// TestVersionsCommandRendersCustomEffect: a custom commit is listed from
// its log record's structure — each relation it changed, with the tuples
// it inserted or replaced and the keys it deleted — and is no snapshot.
func TestVersionsCommandRendersCustomEffect(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	store, err := funcdb.Open(funcdb.WithDurability(dir), funcdb.WithRelations("R", "S"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := store.Exec(fmt.Sprintf("insert (%d, %d) into R", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Replace 1, add 4, delete 2; S is declared but left as it was.
	body := func(ctx *eval.Ctx, db *database.Database, after trace.TaskID) (core.Response, *database.Database, trace.Op) {
		db, _, _ = db.Insert(ctx, "R", funcdb.NewTuple(funcdb.Int(1), funcdb.Int(100)), after)
		db, _, _ = db.Insert(ctx, "R", funcdb.NewTuple(funcdb.Int(4), funcdb.Int(4)), after)
		db, _, _, _ = db.Delete(ctx, "R", funcdb.Int(2), after)
		return core.Response{}, db, trace.Op{}
	}
	if resp := store.Submit(core.Custom(body, []string{"R"}, []string{"R", "S"})).Force(); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := runCmd(t, "versions", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "  version 4: custom   custom R +2 -1\n") {
		t.Fatalf("versions output does not render the custom commit's effect:\n%s", out)
	}
	if strings.Count(out, "*") != 1 {
		t.Fatalf("versions output marks a snapshot besides version 0:\n%s", out)
	}
}

func TestCompactCommand(t *testing.T) {
	dir := buildArchive(t)
	out, err := runCmd(t, "compact", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "removed") {
		t.Fatalf("compact output:\n%s", out)
	}
	// Idempotent: a second compact has nothing to do.
	out, err = runCmd(t, "compact", dir)
	if err != nil || !strings.Contains(out, "nothing to compact") {
		t.Fatalf("second compact: %v\n%s", err, out)
	}
	// The archive still recovers.
	store, err := funcdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Current().TotalTuples() != 8 {
		t.Fatalf("post-compact tuples = %d", store.Current().TotalTuples())
	}
}

func TestUsageErrors(t *testing.T) {
	if _, err := runCmd(t); err == nil || !strings.Contains(err.Error(), "usage:") {
		t.Errorf("no args: %v", err)
	}
	if _, err := runCmd(t, "bogus", "dir"); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Errorf("bad command: %v", err)
	}
	if _, err := runCmd(t, "versions", t.TempDir()); err == nil {
		t.Error("versions on empty dir succeeded")
	}
}
