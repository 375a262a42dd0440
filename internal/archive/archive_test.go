package archive

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/eval"
	"funcdb/internal/relation"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// newEngineWithArchive opens a fresh engine whose commits stream into a
// new archive in dir.
func newEngineWithArchive(t *testing.T, dir string, initial *database.Database, opts ...Option) (*core.Engine, *Archive) {
	t.Helper()
	a, err := Create(dir, initial, opts...)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(initial, core.WithCommitObserver(a.Observer()), core.WithCommitFlush(a.Flush))
	return e, a
}

func initialDB(names ...string) *database.Database {
	return database.New(relation.RepList, names...)
}

func TestCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R", "S"))
	for i := 0; i < 10; i++ {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v"))))
	}
	e.Submit(core.Delete("R", value.Int(3)))
	e.Submit(core.Insert("S", value.NewTuple(value.Str("k"), value.Int(42))))
	e.Barrier()
	want := e.Current()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("recovered version differs: %d tuples vs %d", got.TotalTuples(), want.TotalTuples())
	}
	if got.Version() != want.Version() {
		t.Fatalf("recovered version %d, want %d", got.Version(), want.Version())
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, initialDB("R")); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, initialDB("R")); !errors.Is(err, ErrExists) {
		t.Fatalf("second Create: %v", err)
	}
	if !Exists(dir) {
		t.Error("Exists = false")
	}
	if Exists(t.TempDir()) {
		t.Error("Exists on empty dir")
	}
}

func TestOpenContinuesStream(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"))
	e.Submit(core.Insert("R", value.NewTuple(value.Int(1))))
	e.Submit(core.Insert("R", value.NewTuple(value.Int(2))))
	e.Barrier()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen, append more, recover again: one continuous stream.
	a2, db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if db.Version() != 2 || db.TotalTuples() != 2 {
		t.Fatalf("reopened at version %d with %d tuples", db.Version(), db.TotalTuples())
	}
	e2 := core.NewEngine(db, core.WithCommitObserver(a2.Observer()))
	e2.Submit(core.Insert("R", value.NewTuple(value.Int(3))))
	e2.Barrier()
	if err := a2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != 3 || got.TotalTuples() != 3 {
		t.Fatalf("final version %d with %d tuples", got.Version(), got.TotalTuples())
	}
}

func TestSnapshotRotationAndVersionAt(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"), SnapshotEvery(4))
	const writes = 11
	for i := 1; i <= writes; i++ {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)))))
	}
	e.Barrier()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Initial snapshot at 0, then rotations at 4 and 8.
	if len(st.snaps) != 3 {
		t.Fatalf("snapshots at %v", st.snaps)
	}

	// Every version of the stream is reachable on disk.
	for seq := int64(0); seq <= writes; seq++ {
		db, err := VersionAt(dir, seq)
		if err != nil {
			t.Fatalf("VersionAt(%d): %v", seq, err)
		}
		if db.Version() != seq || int64(db.TotalTuples()) != seq {
			t.Fatalf("VersionAt(%d): version %d, %d tuples", seq, db.Version(), db.TotalTuples())
		}
	}
	if _, err := VersionAt(dir, writes+1); err == nil {
		t.Error("future version materialized")
	}
}

func TestCustomCommitForcesSnapshot(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"))
	e.Submit(core.Insert("R", value.NewTuple(value.Int(1), value.Int(10))))
	// A custom transaction has no wire form: the archive must snapshot the
	// version it produces.
	double := func(ctx *eval.Ctx, db *database.Database, after trace.TaskID) (core.Response, *database.Database, trace.Op) {
		rel, _, err := db.Relation(ctx, "R", after)
		if err != nil {
			return core.Response{Err: err}, db, trace.Op{}
		}
		next := db
		for _, tu := range rel.Tuples() {
			doubled := tu.WithField(1, value.Int(2*tu.Field(1).AsInt()))
			next, _, _ = next.Insert(ctx, "R", doubled, after)
		}
		return core.Response{}, next, trace.Op{}
	}
	e.Submit(core.Custom(double, []string{"R"}, []string{"R"}))
	e.Submit(core.Insert("R", value.NewTuple(value.Int(2), value.Int(5))))
	e.Barrier()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.snaps) != 2 || st.snaps[1] != 2 {
		t.Fatalf("snapshots at %v, want [0 2]", st.snaps)
	}
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	tu, found, _ := mustRel(t, got, "R").Find(nil, value.Int(1), trace.None)
	if !found || tu.Field(1).AsInt() != 20 {
		t.Fatalf("custom effect lost: %v (found %v)", tu, found)
	}
	if got.Version() != 3 || got.TotalTuples() != 2 {
		t.Fatalf("version %d, %d tuples", got.Version(), got.TotalTuples())
	}
}

func mustRel(t *testing.T, db *database.Database, name string) relation.Relation {
	t.Helper()
	rel, ok := db.RelationFast(name)
	if !ok {
		t.Fatalf("relation %q lost", name)
	}
	return rel
}

func TestTornTailIsTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"))
	for i := 1; i <= 5; i++ {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)))))
	}
	e.Barrier()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record, as a crash mid-append would.
	logPath := filepath.Join(dir, logName(0))
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	a2, db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if db.Version() != 4 || db.TotalTuples() != 4 {
		t.Fatalf("recovered version %d with %d tuples, want 4", db.Version(), db.TotalTuples())
	}
	// The torn bytes must be gone so appends continue a clean stream.
	e2 := core.NewEngine(db, core.WithCommitObserver(a2.Observer()))
	e2.Submit(core.Insert("R", value.NewTuple(value.Int(50))))
	e2.Barrier()
	if err := a2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != 5 || got.TotalTuples() != 5 {
		t.Fatalf("after reopen: version %d, %d tuples", got.Version(), got.TotalTuples())
	}
}

// TestRecoveryFallsBackToOlderSnapshot corrupts the newest snapshot:
// recovery must rebuild the same version from the older snapshot plus the
// chained log segments (every encodable commit is logged across
// rotations, so nothing is lost).
func TestRecoveryFallsBackToOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"), SnapshotEvery(3))
	for i := 1; i <= 8; i++ {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)))))
	}
	e.Barrier()
	want := e.Current()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := st.snaps[len(st.snaps)-1] // snapshots at 0, 3, 6
	buf, err := os.ReadFile(filepath.Join(dir, snapName(newest)))
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-2] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, snapName(newest)), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := Recover(dir)
	if err != nil {
		t.Fatalf("fallback recovery failed: %v", err)
	}
	if !got.Equal(want) || got.Version() != want.Version() {
		t.Fatalf("fallback recovered version %d with %d tuples, want %d/%d",
			got.Version(), got.TotalTuples(), want.Version(), want.TotalTuples())
	}
	// And the archive still opens for appending.
	a2, db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if db.Version() != want.Version() {
		t.Fatalf("reopened at %d", db.Version())
	}
	if err := a2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryReportsUnbridgeableCustomGap corrupts a snapshot that was
// the only record of a custom commit: recovery must fail loudly, not
// silently drop the commit.
func TestRecoveryReportsUnbridgeableCustomGap(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"))
	e.Submit(core.Insert("R", value.NewTuple(value.Int(1))))
	noop := func(ctx *eval.Ctx, db *database.Database, after trace.TaskID) (core.Response, *database.Database, trace.Op) {
		next, _, _ := db.Insert(ctx, "R", value.NewTuple(value.Int(99)), after)
		return core.Response{}, next, trace.Op{}
	}
	e.Submit(core.Custom(noop, []string{"R"}, []string{"R"})) // snapshot at 2
	e.Submit(core.Insert("R", value.NewTuple(value.Int(3))))
	e.Barrier()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, snapName(2)))
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-2] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, snapName(2)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil {
		t.Fatal("recovery silently dropped a custom commit")
	}
}

func TestMidLogCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"))
	for i := 1; i <= 5; i++ {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("some payload"))))
	}
	e.Barrier()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, logName(0))
	buf, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xFF
	if err := os.WriteFile(logPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption: %v", err)
	}
}

func TestVersionsListing(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"), SnapshotEvery(2))
	e.Submit(core.Insert("R", value.NewTuple(value.Int(1), value.Str("widget"))))
	e.Submit(core.Delete("R", value.Int(1)))
	e.Submit(core.Insert("R", value.NewTuple(value.Int(2))))
	e.Barrier()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	infos, err := Versions(dir)
	if err != nil {
		t.Fatal(err)
	}
	// snapshot 0, insert 1, delete 2 (snapshotted), insert 3.
	if len(infos) != 4 {
		t.Fatalf("got %d entries: %+v", len(infos), infos)
	}
	for i, info := range infos {
		if info.Seq != int64(i) {
			t.Fatalf("entry %d has seq %d", i, info.Seq)
		}
	}
	if infos[0].Kind != "snapshot" || infos[1].Kind != "insert" || infos[2].Kind != "delete" {
		t.Fatalf("kinds: %+v", infos)
	}
	if !infos[2].Snapshotted || infos[3].Snapshotted {
		t.Fatalf("snapshot markers wrong: %+v", infos)
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"), SnapshotEvery(3))
	for i := 1; i <= 10; i++ {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)))))
	}
	e.Barrier()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	removed, err := Compact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) == 0 {
		t.Fatal("nothing compacted")
	}
	st, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.snaps) != 1 || len(st.logs) != 1 || st.snaps[0] != st.logs[0] {
		t.Fatalf("after compact: snaps %v logs %v", st.snaps, st.logs)
	}
	// The current version survives compaction...
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != 10 || got.TotalTuples() != 10 {
		t.Fatalf("post-compact version %d, %d tuples", got.Version(), got.TotalTuples())
	}
	// ...old versions are gone (the space/history trade).
	if _, err := VersionAt(dir, 2); err == nil {
		t.Error("compacted version still readable")
	}
	if _, err := VersionAt(dir, 10); err != nil {
		t.Errorf("newest version lost: %v", err)
	}
}

func TestAppendDirectCommits(t *testing.T) {
	// Feed an archive through NewCommit, without an engine: the bulk
	// import path.
	dir := t.TempDir()
	db := initialDB("R")
	a, err := Create(dir, db)
	if err != nil {
		t.Fatal(err)
	}
	cur := db
	for i := 1; i <= 3; i++ {
		tx := core.Insert("R", value.NewTuple(value.Int(int64(i))))
		next, _, err := cur.Insert(nil, "R", tx.Tuple, trace.None)
		if err != nil {
			t.Fatal(err)
		}
		cur = next.AtVersion(int64(i))
		pinned := cur
		if err := a.Append(core.NewCommit(int64(i), tx, func() *database.Database { return pinned })); err != nil {
			t.Fatal(err)
		}
	}
	if a.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d", a.LastSeq())
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(cur) {
		t.Fatal("direct commits lost")
	}
}

func TestRecoverEmptyDirFails(t *testing.T) {
	if _, err := Recover(t.TempDir()); !errors.Is(err, ErrNoArchive) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := Open("/nonexistent/path/xyz"); err == nil {
		t.Fatal("opened nonexistent dir")
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	e, a := newEngineWithArchive(t, dir, initialDB("R"))
	for i := 1; i <= 4; i++ {
		e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)))))
	}
	e.Barrier()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.LastSeq != 4 || sum.Torn {
		t.Fatalf("summary %+v", sum)
	}
	if len(sum.Files) != 2 {
		t.Fatalf("files: %+v", sum.Files)
	}
	for _, f := range sum.Files {
		if f.Err != "" {
			t.Errorf("%s: %s", f.Name, f.Err)
		}
	}
}

func TestSnapshotEncodingsAcrossReps(t *testing.T) {
	for _, rep := range []relation.Rep{relation.RepList, relation.RepAVL, relation.Rep23, relation.RepPaged} {
		t.Run(rep.String(), func(t *testing.T) {
			dir := t.TempDir()
			db := database.New(rep, "R")
			e, a := newEngineWithArchive(t, dir, db)
			for i := 0; i < 30; i++ {
				e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str(fmt.Sprintf("v%d", i)))))
			}
			e.Barrier()
			want := e.Current()
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatal("round trip lost data")
			}
			rel, _ := got.RelationFast("R")
			if rel.Rep() != rep {
				t.Fatalf("representation %v -> %v", rep, rel.Rep())
			}
		})
	}
}

// TestDirectorySyncs: a file's fsync makes its bytes durable but not its
// name. With Fsync on, the archive syncs a directory wherever it makes an
// entry a power loss could drop: the data directory's parent at Create,
// and the data directory after each new log segment (which also covers
// the snapshot renamed in just before it), including the segment Open
// starts when the newest snapshot has none. Compact, which has no
// options, syncs after its removals either way. With Fsync off nothing
// else is synced.
func TestDirectorySyncs(t *testing.T) {
	var synced []string
	defer func() { syncDirHook = nil }()
	for _, on := range []bool{true, false} {
		parent := t.TempDir()
		dir := filepath.Join(parent, "data")
		syncDirHook = func(d string) {
			if d == parent || d == dir {
				synced = append(synced, d)
			}
		}
		synced = nil
		want := func(stage string, dirs ...string) {
			t.Helper()
			if !on && stage != "compact" {
				dirs = nil
			}
			if fmt.Sprint(synced) != fmt.Sprint(dirs) {
				t.Errorf("fsync %v, %s: synced %v, want %v", on, stage, synced, dirs)
			}
			synced = nil
		}

		e, a := newEngineWithArchive(t, dir, initialDB("R"), Fsync(on), SnapshotEvery(2))
		want("create", parent, dir)
		for i := 1; i <= 4; i++ {
			e.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)))))
		}
		e.Barrier()
		want("two rotations", dir, dir)
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}

		if err := os.Remove(filepath.Join(dir, logName(4))); err != nil {
			t.Fatal(err)
		}
		a, _, err := Open(dir, Fsync(on))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		want("open starting a missing segment", dir)

		if removed, err := Compact(dir); err != nil || len(removed) == 0 {
			t.Fatalf("compact removed %v, %v", removed, err)
		}
		want("compact", dir)
	}
}
