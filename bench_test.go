// Repository-level benchmarks: one benchmark per table and figure of the
// paper, plus the ablations of DESIGN.md. The ply/speedup benchmarks report
// the paper's measures via b.ReportMetric (max_ply, avg_ply, speedup), so
// `go test -bench . -benchmem` regenerates every published number alongside
// the wall-clock cost of computing it.
package funcdb_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"funcdb"
	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/eval"
	"funcdb/internal/experiments"
	"funcdb/internal/lockdb"
	"funcdb/internal/merge"
	"funcdb/internal/relation"
	"funcdb/internal/sched"
	"funcdb/internal/topo"
	"funcdb/internal/trace"
	"funcdb/internal/value"
	"funcdb/internal/workload"
)

// BenchmarkTableI regenerates Table I: maximum and average ply width per
// (relations, update%) cell.
func BenchmarkTableI(b *testing.B) {
	for _, rels := range experiments.PaperRelationCounts {
		for _, pct := range experiments.PaperUpdatePcts {
			b.Run(fmt.Sprintf("rels=%d/updates=%d", rels, pct), func(b *testing.B) {
				var cell experiments.Cell
				var err error
				for i := 0; i < b.N; i++ {
					cell, err = experiments.CellI(pct, rels, experiments.DefaultSeed)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(cell.MaxPly), "max_ply")
				b.ReportMetric(cell.AvgPly, "avg_ply")
				b.ReportMetric(float64(cell.Work), "tasks")
			})
		}
	}
}

// BenchmarkTableII regenerates Table II: speedup on the 8-node binary
// hypercube.
func BenchmarkTableII(b *testing.B) {
	benchSpeedup(b, topo.NewHypercube(3))
}

// BenchmarkTableIII regenerates Table III: speedup on the 27-node 3x3x3
// Euclidean cube.
func BenchmarkTableIII(b *testing.B) {
	benchSpeedup(b, topo.NewMesh3D(3, 3, 3))
}

func benchSpeedup(b *testing.B, tp topo.Topology) {
	b.Helper()
	for _, rels := range experiments.PaperRelationCounts {
		for _, pct := range experiments.PaperUpdatePcts {
			b.Run(fmt.Sprintf("rels=%d/updates=%d", rels, pct), func(b *testing.B) {
				var cell experiments.Cell
				var err error
				for i := 0; i < b.N; i++ {
					cell, err = experiments.CellSpeedup(pct, rels, experiments.SpeedupConfig{
						Topo: tp, Seed: experiments.DefaultSeed,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(cell.Speedup, "speedup")
				b.ReportMetric(cell.Efficiency, "efficiency")
			})
		}
	}
}

// BenchmarkFigure21 regenerates the Figure 2-1 equation demo.
func BenchmarkFigure21(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure21(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure22PageSharing regenerates Figure 2-2: page sharing after
// one insert, across relation sizes.
func BenchmarkFigure22PageSharing(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			var res experiments.Figure22Result
			for i := 0; i < b.N; i++ {
				res = experiments.Figure22(8, n)
			}
			b.ReportMetric(res.SharedFraction, "shared_frac")
			b.ReportMetric(float64(res.CopiedPages), "copied_pages")
		})
	}
}

// BenchmarkFigure23 regenerates the merge/decomposition example.
func BenchmarkFigure23(b *testing.B) {
	var res experiments.Figure23Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure23()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Plies.MaxWidth), "max_ply")
	b.ReportMetric(float64(res.Plies.Depth), "depth")
}

// BenchmarkFigure31 measures the network-as-merge round trip.
func BenchmarkFigure31(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure31(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLeniency quantifies Section 2.3: strict sequencing
// versus lenient pipelining of the same workload.
func BenchmarkAblationLeniency(b *testing.B) {
	var res experiments.LeniencyAblation
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunLeniencyAblation(14, 3, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Lenient.AvgWidth, "lenient_avg_ply")
	b.ReportMetric(res.Strict.AvgWidth, "strict_avg_ply")
	b.ReportMetric(float64(res.Strict.Depth)/float64(res.Lenient.Depth), "depth_ratio")
}

// BenchmarkAblationRepresentation compares relation representations on the
// paper workload (Section 2.2's tree-sharing argument).
func BenchmarkAblationRepresentation(b *testing.B) {
	for _, rep := range []relation.Rep{relation.RepList, relation.RepAVL, relation.Rep23, relation.RepPaged} {
		b.Run(rep.String(), func(b *testing.B) {
			var out []experiments.RepresentationAblation
			var err error
			for i := 0; i < b.N; i++ {
				out, err = experiments.RunRepresentationAblation(14, 3, experiments.DefaultSeed)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range out {
				if r.Rep == rep {
					b.ReportMetric(float64(r.Created), "nodes_created")
					b.ReportMetric(r.Plies.AvgWidth, "avg_ply")
				}
			}
		})
	}
}

// BenchmarkAblationPlacement compares scheduler placement policies
// (Rediflow's load management, paper [14]).
func BenchmarkAblationPlacement(b *testing.B) {
	for _, pol := range []sched.Policy{
		sched.PolicyPressure, sched.PolicyBestFit, sched.PolicyLocality,
		sched.PolicyRoundRobin, sched.PolicyRandom,
	} {
		b.Run(pol.String(), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				out, err := experiments.RunPlacementAblation(14, 3, topo.NewHypercube(3), experiments.DefaultSeed)
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range out {
					if p.Policy == pol {
						speedup = p.Result.Speedup
					}
				}
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// BenchmarkAblationDynamicScheduling compares static list scheduling with
// the dynamic work-diffusion simulation.
func BenchmarkAblationDynamicScheduling(b *testing.B) {
	var res experiments.DynamicAblation
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunDynamicAblation(14, 3, topo.NewHypercube(3), experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Static.Speedup, "static_speedup")
	b.ReportMetric(res.Dynamic.Speedup, "dynamic_speedup")
	b.ReportMetric(float64(res.Dynamic.Steals), "exports")
}

// BenchmarkAblationMergeOrder compares arrival-order and relation-grouped
// merges (Section 2.4's future-work optimization).
func BenchmarkAblationMergeOrder(b *testing.B) {
	var res experiments.MergeOrderAblation
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunMergeOrderAblation(24, 5, 4, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Arrival.AvgWidth, "arrival_avg_ply")
	b.ReportMetric(res.Grouped.AvgWidth, "grouped_avg_ply")
}

// bankingMerged builds one merged banking stream for the wall-clock
// engine comparisons.
func bankingMerged(clients, accounts, ops int) []core.Transaction {
	streams := workload.Banking(clients, accounts, ops, 7)
	return merge.Interleave(7, streams...)
}

// BenchmarkAblationLocking is Ablation C: wall-clock throughput of the
// pipelined functional engine, the sequential functional engine, and the
// conventional lock-based baseline on the same merged banking workload.
func BenchmarkAblationLocking(b *testing.B) {
	const clients, accounts, ops = 8, 64, 50
	txns := bankingMerged(clients, accounts, ops)
	initial := workload.BankingInitial(relation.RepList, accounts)

	b.Run("functional-pipelined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ApplyStreamPipelined(initial, txns)
		}
		b.ReportMetric(float64(len(txns)), "txns")
	})
	b.Run("functional-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ApplySequential(initial, txns)
		}
	})
	b.Run("lockdb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := lockdb.FromDatabase(initial)
			var wg sync.WaitGroup
			per := (len(txns) + clients - 1) / clients
			for c := 0; c < clients; c++ {
				lo := c * per
				hi := min(lo+per, len(txns))
				if lo >= hi {
					continue
				}
				wg.Add(1)
				go func(part []core.Transaction) {
					defer wg.Done()
					for _, tx := range part {
						db.Exec(tx)
					}
				}(txns[lo:hi])
			}
			wg.Wait()
		}
	})
}

// heavyReadWorkload builds a multi-relation, scan-dominated merged stream
// over large relations: per-transaction bodies heavy enough for goroutine
// futures to amortize.
func heavyReadWorkload(rels, tuplesPerRel, ops int) (*database.Database, []core.Transaction) {
	names := make([]string, 0, rels)
	data := map[string][]value.Tuple{}
	for r := 0; r < rels; r++ {
		name := fmt.Sprintf("R%d", r)
		names = append(names, name)
		tuples := make([]value.Tuple, 0, tuplesPerRel)
		for i := 0; i < tuplesPerRel; i++ {
			tuples = append(tuples, value.NewTuple(value.Int(int64(i)), value.Str("v")))
		}
		data[name] = tuples
	}
	init := database.FromData(relation.RepList, names, data)
	txns := make([]core.Transaction, 0, ops)
	for i := 0; i < ops; i++ {
		name := names[i%rels]
		var tx core.Transaction
		if i%10 == 0 {
			tx = core.Insert(name, value.NewTuple(value.Int(int64(tuplesPerRel+i)), value.Str("new")))
		} else {
			tx = core.Count(name) // full enumeration on the list representation
		}
		tx.Origin, tx.Seq = "bench", i
		txns = append(txns, tx)
	}
	return init, txns
}

// BenchmarkAblationLockingHeavyReads is Ablation C's second axis: with
// heavy read bodies across several relations, the pipelined engine's
// parallel futures overlap where the sequential engine cannot.
func BenchmarkAblationLockingHeavyReads(b *testing.B) {
	init, txns := heavyReadWorkload(8, 4000, 96)
	b.Run("functional-pipelined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ApplyStreamPipelined(init, txns)
		}
	})
	b.Run("functional-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ApplySequential(init, txns)
		}
	})
	b.Run("lockdb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := lockdb.FromDatabase(init)
			var wg sync.WaitGroup
			const workers = 8
			per := (len(txns) + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo := w * per
				hi := min(lo+per, len(txns))
				if lo >= hi {
					continue
				}
				wg.Add(1)
				go func(part []core.Transaction) {
					defer wg.Done()
					for _, tx := range part {
						db.Exec(tx)
					}
				}(txns[lo:hi])
			}
			wg.Wait()
		}
	})
}

// BenchmarkEngineThroughput measures the goroutine engine end to end
// through the public API, with concurrent submitters.
func BenchmarkEngineThroughput(b *testing.B) {
	for _, submitters := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("submitters=%d", submitters), func(b *testing.B) {
			store := funcdb.MustOpen(funcdb.WithRelations("R", "S", "T"))
			rels := []string{"R", "S", "T"}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/submitters + 1
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						tx := core.Insert(rels[(s+i)%3], value.NewTuple(value.Int(int64(s*1_000_000+i))))
						store.Submit(tx)
					}
				}(s)
			}
			wg.Wait()
			store.Barrier()
		})
	}
}

// BenchmarkDurableWrites measures the commit path with durability off and
// on: the cost of archiving the version stream from the post-commit
// observer. Keys wrap so the relation stays small and the log append —
// not the in-memory insert — dominates the durable variants.
func BenchmarkDurableWrites(b *testing.B) {
	cases := []struct {
		name string
		opts func(dir string) []funcdb.Option
	}{
		{"archive=off", func(string) []funcdb.Option { return nil }},
		{"archive=on", func(dir string) []funcdb.Option {
			return []funcdb.Option{funcdb.WithDurability(dir)}
		}},
		{"archive=on/snapshot=1024", func(dir string) []funcdb.Option {
			return []funcdb.Option{funcdb.WithDurability(dir, funcdb.SnapshotEvery(1024))}
		}},
		{"archive=fsync", func(dir string) []funcdb.Option {
			return []funcdb.Option{funcdb.WithDurability(dir, funcdb.SyncEveryWrite())}
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			opts := append(tc.opts(b.TempDir()),
				funcdb.WithRelations("R"), funcdb.WithRepresentation(funcdb.RepAVL))
			store := funcdb.MustOpen(opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := core.Insert("R", value.NewTuple(value.Int(int64(i%1024)), value.Str("v")))
				store.Submit(tx)
			}
			store.Barrier() // include the observer/archive drain
			b.StopTimer()
			if err := store.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkRecovery measures OpenDir (newest snapshot + log replay) as a
// function of log length: the persistence hot path future PRs must keep
// honest.
func BenchmarkRecovery(b *testing.B) {
	for _, logLen := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("log=%d", logLen), func(b *testing.B) {
			dir := b.TempDir()
			store := funcdb.MustOpen(
				funcdb.WithDurability(dir),
				funcdb.WithRelations("R"), funcdb.WithRepresentation(funcdb.RepAVL))
			for i := 0; i < logLen; i++ {
				store.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v"))))
			}
			if err := store.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := funcdb.OpenDir(dir)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadFastPath measures read-only throughput while writers are
// continuously committing: a read loads the published snapshot and takes
// no lock, so it must not queue behind the merge.
func BenchmarkReadFastPath(b *testing.B) {
	b.Run("fastpath", func(b *testing.B) {
		names := []string{"R", "W"}
		data := map[string][]value.Tuple{"W": nil}
		var tuples []value.Tuple
		for i := 0; i < 1024; i++ {
			tuples = append(tuples, value.NewTuple(value.Int(int64(i)), value.Str("v")))
		}
		data["R"] = tuples
		eng := core.NewEngine(database.FromData(relation.RepAVL, names, data))

		stop := make(chan struct{})
		var wwg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wwg.Add(1)
			go func(w int) {
				defer wwg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					eng.Submit(core.Insert("W", value.NewTuple(value.Int(int64(w*1_000_000+i%4096)), value.Str("x"))))
				}
			}(w)
		}
		var key atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				k := key.Add(1) % 1024
				eng.Submit(core.Find("R", value.Int(k))).Force()
			}
		})
		b.StopTimer()
		close(stop)
		wwg.Wait()
		eng.Barrier()
	})
}

// BenchmarkSubmitBatch measures merge arbitration under contention: each
// parallel worker commits 64-transaction batches to its own relation,
// either one Submit (one mutex acquisition) per transaction or one
// SubmitBatch per batch. The last future of each batch is forced, so
// outstanding work is bounded and the measured delta is admission cost.
func BenchmarkSubmitBatch(b *testing.B) {
	const batch = 64
	setup := func() (*core.Engine, []string) {
		names := make([]string, 16)
		for i := range names {
			names[i] = fmt.Sprintf("R%d", i)
		}
		return core.NewEngine(database.New(relation.RepAVL, names...)), names
	}
	mkTxns := func(rel string) []core.Transaction {
		txns := make([]core.Transaction, batch)
		for i := range txns {
			txns[i] = core.Insert(rel, value.NewTuple(value.Int(int64(i%1024)), value.Str("v")))
			txns[i].Origin, txns[i].Seq = "bench", i
		}
		return txns
	}
	b.Run("submit", func(b *testing.B) {
		eng, names := setup()
		var wid atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			txns := mkTxns(names[int(wid.Add(1))%len(names)])
			for pb.Next() {
				var last *funcdb.Future
				for _, tx := range txns {
					last = eng.Submit(tx)
				}
				last.Force()
			}
		})
		b.StopTimer()
		eng.Barrier()
		b.ReportMetric(float64(batch), "txns/op")
	})
	b.Run("batch", func(b *testing.B) {
		eng, names := setup()
		var wid atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			txns := mkTxns(names[int(wid.Add(1))%len(names)])
			futs := make([]*funcdb.Future, len(txns))
			for pb.Next() {
				eng.SubmitBatch(txns, futs)
				futs[len(futs)-1].Force()
			}
		})
		b.StopTimer()
		eng.Barrier()
		b.ReportMetric(float64(batch), "txns/op")
	})
}

// laneBenchNames returns `writers` relation names that hash to distinct
// admission lanes under `lanes` lanes, so the disjoint workload is
// disjoint by construction in every engine configuration.
func laneBenchNames(writers, lanes int) []string {
	used := make(map[int]bool, writers)
	var names []string
	for i := 0; len(names) < writers; i++ {
		name := fmt.Sprintf("W%d", i)
		if l := core.LaneOf(name, lanes); !used[l] {
			used[l] = true
			names = append(names, name)
		}
	}
	return names
}

// benchLaneWriters drives `writers` concurrent submitters through an
// engine with the given lane count. Disjoint mode gives each writer its
// own relation (one lane per writer); crossing mode makes every
// transaction a two-relation custom spanning two lanes, paying the
// ordered multi-lane lock. Responses are forced every few submissions so
// outstanding work stays bounded and admission cost dominates.
func benchLaneWriters(b *testing.B, lanes int, crossing bool) {
	const writers = 8
	names := laneBenchNames(writers, writers)
	// List representation: an insert body is one O(1) prepend, so the
	// measured cost is the admission path itself, not the relation update.
	eng := core.NewEngine(database.New(relation.RepAVL, names...), core.WithLanes(lanes))
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/writers + 1
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a, bb := names[w], names[(w+1)%writers]
			var last *funcdb.Future
			for i := 0; i < per; i++ {
				if crossing {
					k := int64(i % 1024)
					last = eng.Submit(core.Custom(func(ctx *eval.Ctx, db *funcdb.Database, after trace.TaskID) (core.Response, *funcdb.Database, trace.Op) {
						next, _, err := db.Insert(ctx, bb, value.NewTuple(value.Int(k), value.Str("x")), after)
						if err != nil {
							return core.Response{Err: err}, db, trace.Op{}
						}
						return core.Response{}, next, trace.Op{}
					}, []string{a}, []string{bb}))
				} else {
					last = eng.Submit(core.Insert(a, value.NewTuple(value.Int(int64(i%1024)), value.Str("v"))))
				}
				if i%32 == 31 {
					last.Force()
				}
			}
			last.Force()
		}(w)
	}
	wg.Wait()
	eng.Barrier()
	b.StopTimer()
	b.ReportMetric(float64(eng.Lanes()), "lanes")
}

// BenchmarkLanesDisjoint is the tentpole's acceptance number: concurrent
// writers whose relations hash to distinct admission lanes, under the
// single merge mutex (lanes=1) and the sharded merge point (lanes=8). With
// one lane every admission serializes; with eight, each writer owns a lane
// and admissions only meet at the snapshot CAS.
func BenchmarkLanesDisjoint(b *testing.B) {
	for _, lanes := range []int{1, 8} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			benchLaneWriters(b, lanes, false)
		})
	}
}

// BenchmarkLanesCrossing is the counterweight: every transaction spans two
// lanes, so the sharded engine pays the ordered multi-lane lock on every
// commit. The gap between this and BenchmarkLanesDisjoint is the price of
// cross-lane transactions.
func BenchmarkLanesCrossing(b *testing.B) {
	for _, lanes := range []int{1, 8} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			benchLaneWriters(b, lanes, true)
		})
	}
}

// BenchmarkPrepared measures the parser's share of the submission hot
// path: Exec (lex+parse per call) against a prepared statement (parse
// once, bind per call).
func BenchmarkPrepared(b *testing.B) {
	newStore := func(b *testing.B) *funcdb.Store {
		store := funcdb.MustOpen(funcdb.WithRelations("R"), funcdb.WithRepresentation(funcdb.RepAVL))
		for i := 0; i < 1024; i++ {
			store.Submit(core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v"))))
		}
		store.Barrier()
		return store
	}
	b.Run("exec", func(b *testing.B) {
		store := newStore(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := store.Exec(fmt.Sprintf("find %d in R", i%1024)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		store := newStore(b)
		find, err := store.Prepare("find ? in R")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := find.Exec(funcdb.Int(int64(i % 1024))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRelationInsert measures one insert into a 1000-tuple relation
// per representation: the allocation story behind Section 2.2.
func BenchmarkRelationInsert(b *testing.B) {
	var tuples []value.Tuple
	for i := 0; i < 1000; i++ {
		tuples = append(tuples, value.NewTuple(value.Int(int64(i*2)), value.Str("v")))
	}
	for _, rep := range []relation.Rep{relation.RepList, relation.RepAVL, relation.Rep23, relation.RepPaged} {
		b.Run(rep.String(), func(b *testing.B) {
			rel := relation.FromTuples(rep, tuples)
			tu := value.NewTuple(value.Int(999), value.Str("new"))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rel.Insert(nil, tu, 0)
			}
		})
	}
}

// BenchmarkRelationFind measures lookups per representation.
func BenchmarkRelationFind(b *testing.B) {
	var tuples []value.Tuple
	for i := 0; i < 1000; i++ {
		tuples = append(tuples, value.NewTuple(value.Int(int64(i)), value.Str("v")))
	}
	for _, rep := range []relation.Rep{relation.RepList, relation.RepAVL, relation.Rep23, relation.RepPaged} {
		b.Run(rep.String(), func(b *testing.B) {
			rel := relation.FromTuples(rep, tuples)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rel.Find(nil, value.Int(int64(i%1000)), 0)
			}
		})
	}
}
