package archive

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/lenient"
	"funcdb/internal/relation"
	"funcdb/internal/value"
)

// TestRunsStayContiguousUnderLanes: one lane commits 500-insert batches into
// a paged relation while another commits single writes. Every batch is
// published as one run, so its versions are contiguous and it is logged as
// one record of 500 that no other commit interleaves; every other record is
// one write; and the log replays to the engine's current version. The
// -race target for runs reaching the archive.
func TestRunsStayContiguousUnderLanes(t *testing.T) {
	const batches, per, singles = 8, 500, 1500
	// Two relations on different lanes of two.
	runRel, oneRel := "P", "Q"
	for core.LaneOf(oneRel, 2) == core.LaneOf(runRel, 2) {
		oneRel += "q"
	}
	dir := t.TempDir()
	initial := database.New(relation.RepPaged, runRel, oneRel)
	a, err := Create(dir, initial)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(initial, core.WithLanes(2), core.WithCommitObserver(a.Observer()), core.WithCommitFlush(a.Flush))

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			txs := make([]core.Transaction, per)
			for i := range txs {
				txs[i] = core.Insert(runRel, value.NewTuple(value.Int(int64((b*per+i)*7%900)), value.Str("run")))
				txs[i].Origin, txs[i].Seq = "runs", b*per+i
			}
			e.SubmitBatch(txs, make([]*lenient.Cell[core.Response], len(txs)))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < singles; i++ {
			rel := oneRel
			if i%3 == 0 {
				rel = runRel // a single write into the run's relation, between runs
			}
			tx := core.Insert(rel, value.NewTuple(value.Int(int64(i)), value.Str("one")))
			tx.Origin, tx.Seq = "singles", i
			e.Submit(tx)
		}
	}()
	wg.Wait()
	e.Barrier()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	runs, ones := 0, 0
	var dec Decoder
	sc, err := scanLog(dir, 0, func(first, last int64, form byte, payload []byte) error {
		r, err := dec.Decode(form, payload)
		if err != nil {
			return err
		}
		switch {
		case r.Count() == 1 && r.Origin == "singles":
			ones++
		case r.Count() == per && r.Origin == "runs" && r.Rel == runRel && r.Seq%per == 0:
			runs++
		default:
			t.Errorf("a record of versions %d..%d from %q: neither a whole batch nor one write", first, last, r.Origin)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != batches || ones != singles || sc.records != batches+singles {
		t.Fatalf("the log holds %d records: %d whole batches and %d single writes, want %d and %d", sc.records, runs, ones, batches, singles)
	}
	got, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := e.Current(); !got.Equal(want) || got.Version() != want.Version() {
		t.Fatalf("the log replays to version %d, the engine is at %d", got.Version(), want.Version())
	}
}

// TestReplayRecords: Replay is the function from one version to the next
// that recovery and every mirror apply a log record with. A 30-insert run
// into a list, AVL, 2-3 or paged relation leaves what its inserts leave one
// at a time, in the relation's own representation, stamped with the run's
// last version; a run into a relation that does not exist fails and leaves
// its input as it was; and a one-insert record, a delete of an absent key
// and a create each advance the version by exactly one.
func TestReplayRecords(t *testing.T) {
	rows := make([]value.Tuple, 100)
	for i := range rows {
		rows[i] = value.NewTuple(value.Int(int64(2*i)), value.Str("old"))
	}
	for _, rep := range []relation.Rep{relation.RepList, relation.RepAVL, relation.Rep23, relation.RepPaged} {
		db := database.FromData(rep, []string{"R"}, map[string][]value.Tuple{"R": rows}).AtVersion(7)
		r := Record{First: 8, Origin: "m", Seq: 100, Kind: core.KindInsert, Rel: "R"}
		txs := make([]core.Transaction, 30)
		for i := range txs {
			tu := value.NewTuple(value.Int(int64(i*37%230)), value.Str(fmt.Sprintf("new%d", i)))
			r.Tuples = append(r.Tuples, tu)
			txs[i] = core.Insert("R", tu)
		}
		got, err := Replay(db, &r)
		if err != nil {
			t.Fatalf("%v: %v", rep, err)
		}
		_, want := core.ApplySequential(db, txs)
		if !got.Equal(want) || got.Version() != r.Last() || want.Version() != r.Last() {
			t.Fatalf("%v: the run replays to %d tuples at version %d, the inserts one at a time to %d at %d (want version %d)",
				rep, got.TotalTuples(), got.Version(), want.TotalTuples(), want.Version(), r.Last())
		}
		if rel, _ := got.RelationFast("R"); rel.Rep() != rep {
			t.Fatalf("a run into a %v relation left a %v one", rep, rel.Rep())
		}
	}

	db := database.New(relation.RepPaged, "R").AtVersion(4)
	missing := Record{First: 5, Kind: core.KindInsert, Rel: "missing"}
	for n := 1; n <= 2; n++ { // a record of one write, and a run
		missing.Tuples = append(missing.Tuples, value.NewTuple(value.Int(int64(n)), value.Str("x")))
		if got, err := Replay(db, &missing); err == nil || got != nil {
			t.Fatalf("a %d-insert record into a missing relation replayed to %v, %v; want an error", n, got, err)
		}
	}
	if db.Version() != 4 || db.TotalTuples() != 0 || !slices.Equal(db.RelationNames(), []string{"R"}) {
		t.Fatalf("a refused record changed its input: version %d, %d tuples, relations %v", db.Version(), db.TotalTuples(), db.RelationNames())
	}

	for _, r := range []Record{
		{Kind: core.KindInsert, Rel: "R", Tuples: []value.Tuple{value.NewTuple(value.Int(1), value.Str("one"))}},
		{Kind: core.KindDelete, Rel: "R", Key: value.Int(99)},
		{Kind: core.KindCreate, Rel: "S", Rep: relation.RepAVL},
	} {
		r.First = db.Version() + 1
		next, err := Replay(db, &r)
		if err != nil {
			t.Fatalf("%s record: %v", r.Kind, err)
		}
		if next.Version() != db.Version()+1 {
			t.Fatalf("a %s record advanced version %d to %d, want one step", r.Kind, db.Version(), next.Version())
		}
		db = next
	}
	if db.TotalTuples() != 1 || !slices.Equal(db.RelationNames(), []string{"R", "S"}) {
		t.Fatalf("after the records: %d tuples, relations %v", db.TotalTuples(), db.RelationNames())
	}
}
