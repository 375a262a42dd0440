package core_test

import (
	"fmt"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/lenient"
	"funcdb/internal/metrics"
	"funcdb/internal/relation"
	"funcdb/internal/reqtrace"
	"funcdb/internal/value"
	"funcdb/internal/workload"
)

// TestMetricsEquivalence: an instrumented engine must produce
// byte-identical responses and an identical final database to the
// uninstrumented engine on the paper's workloads — metrics observe, they
// never steer.
func TestMetricsEquivalence(t *testing.T) {
	for _, rels := range []int{1, 3, 5} {
		for _, pct := range []int{4, 14, 38} {
			t.Run(fmt.Sprintf("rels=%d/pct=%d", rels, pct), func(t *testing.T) {
				spec := workload.DefaultPaper(rels, pct, 42)
				txns, err := spec.TransactionStream()
				if err != nil {
					t.Fatal(err)
				}

				plain, plainDB := core.ApplyStreamPipelined(spec.InitialDatabase(relation.RepAVL), txns)

				var m metrics.Engine
				inst, instDB := core.ApplyStreamPipelined(spec.InitialDatabase(relation.RepAVL), txns,
					core.WithEngineMetrics(&m))

				if len(plain) != len(inst) {
					t.Fatalf("response counts differ: %d vs %d", len(plain), len(inst))
				}
				for i := range plain {
					if plain[i].String() != inst[i].String() {
						t.Errorf("response %d differs:\n  plain: %s\n  inst:  %s", i, plain[i], inst[i])
					}
				}
				if plainDB.Version() != instDB.Version() {
					t.Errorf("final versions differ: %d vs %d", plainDB.Version(), instDB.Version())
				}
				if d1, d2 := dumpDB(plainDB), dumpDB(instDB); d1 != d2 {
					t.Errorf("final databases differ:\n%s\nvs\n%s", d1, d2)
				}

				// The instrumentation must also have seen the workload.
				snap := m.Snapshot()
				if snap.Admitted == 0 {
					t.Error("instrumented run recorded no admissions")
				}
				if snap.CommitLatency.Count == 0 {
					t.Error("instrumented run recorded no commit latency")
				}
				var laneTotal int64
				for _, c := range snap.LaneCommits {
					laneTotal += c
				}
				if laneTotal < snap.Admitted {
					t.Errorf("lane commits %d < admitted %d", laneTotal, snap.Admitted)
				}
			})
		}
	}
}

// TestAdmittedCountsWrites: Admitted counts writes and Reads counts reads,
// whichever path a read takes — lone, at the head of a batch, or inside a
// write's run.
func TestAdmittedCountsWrites(t *testing.T) {
	var m metrics.Engine
	e := core.NewEngine(database.New(relation.RepAVL, "R"), core.WithEngineMetrics(&m))
	e.Submit(core.Find("R", value.Int(1)))
	e.Submit(core.Insert("R", value.NewTuple(value.Int(1))))
	txs := []core.Transaction{
		core.Count("R"),
		core.Insert("R", value.NewTuple(value.Int(2))),
		core.Find("R", value.Int(2)),
	}
	futs := make([]*lenient.Cell[core.Response], len(txs))
	e.SubmitBatch(txs, futs)
	if s := m.Snapshot(); s.Admitted != 2 || s.Reads != 3 {
		t.Errorf("admitted %d, reads %d: want 2 writes and 3 reads", s.Admitted, s.Reads)
	}
}

func dumpDB(db *database.Database) string {
	out := ""
	for _, name := range db.RelationNames() {
		rel, _ := db.RelationFast(name)
		out += name + ":"
		for _, tu := range rel.Tuples() {
			out += " " + tu.String()
		}
		out += "\n"
	}
	return out
}

// BenchmarkLaneCommit measures the admission hot path with metrics nil
// versus enabled: the acceptance bar is instrumented within 5% of
// uninstrumented. Single-lane inserts, the worst case for relative
// overhead (shortest committed path).
func BenchmarkLaneCommit(b *testing.B) {
	run := func(b *testing.B, opts ...core.EngineOption) {
		e := core.NewEngine(database.New(relation.RepAVL, "R"), opts...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx := core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v")))
			tx.Origin, tx.Seq = "bench", i
			e.Submit(tx)
		}
		e.Barrier()
	}
	b.Run("uninstrumented", func(b *testing.B) { run(b) })
	b.Run("instrumented", func(b *testing.B) {
		var m metrics.Engine
		run(b, core.WithEngineMetrics(&m))
	})
}

// BenchmarkLaneCommitTraced measures the same single-lane admission hot
// path with request tracing attached: "off" submits with a nil trace
// handle (tracing compiled in but disabled — the production default),
// "sampled" threads a live handle through every transaction so the
// engine records its lane-wait/plan/lane-commit spans. The gap between
// "off" and BenchmarkLaneCommit's uninstrumented baseline is the cost
// of the nil checks; the gap to "sampled" is the full recording cost.
func BenchmarkLaneCommitTraced(b *testing.B) {
	run := func(b *testing.B, rec *reqtrace.Recorder) {
		e := core.NewEngine(database.New(relation.RepAVL, "R"))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx := core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v")))
			tx.Origin, tx.Seq = "bench", i
			tr := rec.Start() // nil recorder → nil handle, the disabled path
			tx.Trace = tr
			e.Submit(tx)
			rec.Finish(tr)
		}
		e.Barrier()
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("sampled", func(b *testing.B) {
		run(b, reqtrace.New("bench", reqtrace.Config{SampleEvery: 1, SlowThreshold: -1}))
	})
}
