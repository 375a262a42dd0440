package archive

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/relation"
	"funcdb/internal/value"
)

// fixtureDir holds an archive written by this package at commit a872265,
// whose snapshot encoder still gathered each relation's tuples into a slice
// and encoded them into a buffer of their own: fixtureHistory, run through
// Create with SnapshotEvery(40), then Close.
const fixtureDir = "testdata/archive-a872265"

// fixtureHistory is the history the fixture archive holds: one relation per
// representation, preloaded out of key order with repeated keys, then a
// hundred inserts and deletes spread over them.
func fixtureHistory() (*database.Database, []core.Transaction) {
	r := rand.New(rand.NewSource(7))
	reps := []relation.Rep{relation.RepList, relation.RepAVL, relation.Rep23, relation.RepPaged}
	var names []string
	var rels []relation.Relation
	for _, rep := range reps {
		var tuples []value.Tuple
		for i := 0; i < 60; i++ {
			tuples = append(tuples, value.NewTuple(value.Int(int64(r.Intn(80))), value.Str(fmt.Sprintf("%v-%d", rep, i)), value.Int(int64(i))))
		}
		names = append(names, rep.String())
		rels = append(rels, relation.FromTuples(rep, tuples))
	}
	var txns []core.Transaction
	for i := 0; i < 100; i++ {
		rel, key := names[r.Intn(len(names))], value.Int(int64(r.Intn(90)))
		if i%3 == 2 {
			txns = append(txns, core.Delete(rel, key))
		} else {
			txns = append(txns, core.Insert(rel, value.NewTuple(key, value.Str(fmt.Sprintf("w%d", i)))))
		}
	}
	return database.FromRelations(names, rels, 0), txns
}

// copyFixture copies the fixture archive into a fresh directory, which
// opening it for appending may then change.
func copyFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files, err := os.ReadDir(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(fixtureDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// fixtureLegacyRecords returns the payloads of the fixture's log records,
// in version order: FormLegacy records of versions 1 … 100.
func fixtureLegacyRecords(t testing.TB) [][]byte {
	t.Helper()
	st, err := scanDir(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, seg := range st.logs {
		f, err := os.Open(filepath.Join(fixtureDir, logName(seg)))
		if err != nil {
			t.Fatal(err)
		}
		rd := &reader{r: f}
		for {
			rec, err := rd.next()
			if err != nil {
				break
			}
			if rec.typ == FormLegacy {
				out = append(out, rec.payload)
			}
		}
		f.Close()
	}
	if len(out) != 100 {
		t.Fatalf("fixture segments hold %d records, want 100", len(out))
	}
	return out
}

// TestEarlierArchiveAnswersEveryVersion: every version of the archive
// written before runs — snapshots, and the legacy records between them —
// is the prefix of its history, through the one decoder that reads legacy
// records.
func TestEarlierArchiveAnswersEveryVersion(t *testing.T) {
	dir := copyFixture(t)
	initial, txns := fixtureHistory()
	for v := 0; v <= len(txns); v++ {
		got, err := VersionAt(dir, int64(v))
		if err != nil {
			t.Fatalf("VersionAt(%d): %v", v, err)
		}
		_, want := core.ApplySequential(initial, txns[:v])
		if !got.Equal(want) || got.Version() != int64(v) {
			t.Fatalf("version %d holds %d tuples at version %d, its history %d", v, got.TotalTuples(), got.Version(), want.TotalTuples())
		}
	}
	infos, err := Versions(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(infos); n != 1+len(txns) { // snapshot 0, then every write
		t.Fatalf("the fixture lists %d versions", n)
	}
}

// TestEarlierArchiveOpens: an archive written before snapshots were encoded
// in place, and before relations were built in one pass, still recovers to
// the version its history makes; each of its snapshots re-encodes to the
// very bytes on disk; and it reopens for appending.
func TestEarlierArchiveOpens(t *testing.T) {
	dir := copyFixture(t)
	initial, txns := fixtureHistory()
	e := core.NewEngine(initial)
	for _, tx := range txns {
		e.Submit(tx)
	}
	e.Barrier()
	want := e.Current()
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || got.Version() != want.Version() {
		t.Fatalf("recovered version %d with %d tuples, its history makes version %d with %d", got.Version(), got.TotalTuples(), want.Version(), want.TotalTuples())
	}

	st, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.snaps) < 2 {
		t.Fatalf("fixture holds %d snapshots", len(st.snaps))
	}
	for _, seq := range st.snaps {
		db, err := readSnapshot(dir, seq)
		if err != nil {
			t.Fatal(err)
		}
		rewrite := &Archive{dir: t.TempDir()}
		if err := rewrite.writeSnapshot(db); err != nil {
			t.Fatal(err)
		}
		if err := rewrite.log.Close(); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(filepath.Join(dir, snapName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(filepath.Join(rewrite.dir, snapName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("snapshot %d re-encodes to %d bytes that differ from the %d on disk", seq, len(after), len(before))
		}
	}

	a, db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e = core.NewEngine(db, core.WithCommitObserver(a.Observer()))
	e.Submit(core.Insert("avl", value.NewTuple(value.Int(1000), value.Str("after reopening"))))
	e.Barrier()
	want = e.Current()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err = Recover(dir); err != nil || !got.Equal(want) {
		t.Fatalf("after one more write: recovered %v, err %v", got.TotalTuples(), err)
	}
}
