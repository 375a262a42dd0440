package archive

import (
	"sync"
	"testing"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/database"
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
	a, err := Create(dir, initial, GroupCommit(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(initial, core.WithLanes(2), core.WithCommitObserver(a.Observer()))

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
			e.SubmitBatch(txs)
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
