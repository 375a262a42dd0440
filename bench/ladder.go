package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/cluster"
	"funcdb/internal/relation"
	"funcdb/internal/value"
	"funcdb/internal/wire"
)

// The per-layer ladder: one rung per layer boundary, each a fixed number of
// operations on one goroutine (unless stated), repeated, reported as the
// median over the repetitions with the interquartile range. Adjacent rungs
// subtract to a layer's own cost. Rungs from core upward go through the
// public funcdb and funcdb/client packages; only the four lowest layers are
// reached directly (value.AppendTuple/DecodeTuple, relation.New with
// Find/Insert, wire.AppendFrame, wire.NewReader/Next — the list README.md
// keeps), plus cluster.FailoverConfig to configure the cluster rungs.

// rungStat is one rung as measured.
type rungStat struct {
	name, unit  string
	median, iqr float64
	reps, ops   int
}

type ladderRun struct {
	reps  int
	scale float64 // shrinks operation counts (the layer run's time budget, the smoke test)
	stats []rungStat
	rng   *rand.Rand
	err   error
}

func (l *ladderRun) n(ops int) int {
	// Never fewer than the deepest batch a rung issues, never more than
	// asked (a rung of one operation stays one).
	n := int(float64(ops) * l.scale)
	if n < 32 {
		n = min(ops, 32)
	}
	return n
}

// measure times fn(ops) reps times and returns the per-operation time of
// each repetition in unit ("ns", "us" or "ms"). The first error is kept and
// turns every later measurement into a no-op; runLadder reports it.
func (l *ladderRun) measure(unit string, ops int, fn func(n int) error) (per []float64, n int) {
	ops = l.n(ops)
	if l.err != nil {
		return []float64{0}, ops
	}
	per = make([]float64, l.reps)
	div := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unit]
	for r := range per {
		start := time.Now()
		if err := fn(ops); err != nil {
			l.err = err
			return []float64{0}, ops
		}
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(ops) / div
	}
	return per, ops
}

// rung measures and records one rung, returning its median.
func (l *ladderRun) rung(name, unit string, ops int, fn func(n int) error) float64 {
	per, n := l.measure(unit, ops, fn)
	return l.record(name, unit, per, n)
}

func (l *ladderRun) record(name, unit string, per []float64, ops int) float64 {
	st := rungStat{name: name, unit: unit, median: median(per), reps: len(per), ops: ops}
	if len(per) >= 2 {
		q1, _, q3 := quartiles(per)
		st.iqr = q3 - q1
	}
	l.stats = append(l.stats, st)
	return st.median
}

func (l *ladderRun) get(name string) float64 {
	for _, st := range l.stats {
		if st.name == name {
			return st.median
		}
	}
	return 0
}

// ladderShape is the data the rungs above the relation layer run on: the
// network workloads' six sorted-list relations of 2 000 rows, so the ladder's
// top (the cluster round trip) and its lower rungs do the same work.
func ladderShape() shape {
	return shape{rels: netRels, rows: 2000, valueLen: 16, text: true}
}

func runLadder(e *env, reps int, scale float64) (*ladderRun, error) {
	l := &ladderRun{reps: reps, scale: scale, rng: rand.New(rand.NewSource(e.seed))}
	sh := ladderShape()
	if scale < 0.1 {
		sh.rows = 200
	}
	for _, step := range []func(*env, *shape) error{l.codecs, l.relations, l.engine, l.archive, l.server, l.cluster} {
		if err := step(e, &sh); err != nil {
			return nil, err
		}
		if l.err != nil {
			return nil, l.err
		}
	}
	// What the independently measured pieces leave unexplained of a read
	// through a gateway: the owner's session-level execution, plus per hop
	// the request and response frames (each encoded and decoded once) and
	// the response tuple (likewise). The rest is sockets, the scheduler and
	// the goroutine hand-offs between them.
	const hops = 2
	attributed := l.get("session.exec_ns") +
		hops*2*(l.get("wire.frame_encode_ns")+l.get("wire.frame_decode_ns")) +
		hops*(l.get("value.encode_tuple_ns")+l.get("value.decode_tuple_ns"))
	l.record("ladder.unattributed_us", "us", []float64{l.get("cluster.roundtrip_us.gateway") - attributed/1e3}, 1)
	return l, nil
}

func (l *ladderRun) keys(n, rows int) []int64 {
	ks := make([]int64, n)
	for i := range ks {
		ks[i] = int64(l.rng.Intn(rows))
	}
	return ks
}

// frameType is the type byte of the ladder's frames; the framing layer only
// folds it into the checksum.
const frameType = 0x10

func (l *ladderRun) codecs(e *env, sh *shape) error {
	tu := value.NewTuple(value.Int(123456), value.Str(pad("v", sh.valueLen)))
	enc, err := value.AppendTuple(nil, tu)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 128)
	l.rung("value.encode_tuple_ns", "ns", 200000, func(n int) (err error) {
		for i := 0; i < n && err == nil; i++ {
			buf, err = value.AppendTuple(buf[:0], tu)
		}
		return err
	})
	l.rung("value.decode_tuple_ns", "ns", 200000, func(n int) (err error) {
		for i := 0; i < n && err == nil; i++ {
			_, _, err = value.DecodeTuple(enc)
		}
		return err
	})

	payload := bytes.Repeat([]byte{0xab}, 64)
	l.rung("wire.frame_encode_ns", "ns", 200000, func(n int) (err error) {
		for i := 0; i < n && err == nil; i++ {
			buf, err = wire.AppendFrame(buf[:0], frameType, payload)
		}
		return err
	})
	var frames []byte
	for i := l.n(200000); i > 0; i-- {
		if frames, err = wire.AppendFrame(frames, frameType, payload); err != nil {
			return err
		}
	}
	l.rung("wire.frame_decode_ns", "ns", 200000, func(n int) (err error) {
		rd := wire.NewReader(bytes.NewReader(frames))
		for i := 0; i < n && err == nil; i++ {
			_, _, err = rd.Next()
		}
		return err
	})
	return nil
}

func (l *ladderRun) relations(e *env, sh *shape) error {
	for _, c := range []struct {
		suffix string
		rep    relation.Rep
		rows   int
		ops    int
	}{{"list", relation.RepList, sh.rows, 5000}, {"avl", relation.RepAVL, 25000, 100000}} {
		rows := c.rows
		if l.scale < 0.1 {
			rows = c.rows / 10
		}
		rel := relation.New(c.rep)
		// Descending, so that filling the sorted list is linear.
		for k := rows - 1; k >= 0; k-- {
			rel, _ = rel.Insert(nil, value.NewTuple(value.Int(int64(k)), value.Str(pad("v", sh.valueLen))), 0)
		}
		keys := l.keys(l.n(c.ops), rows)
		l.rung("relation.find_ns."+c.suffix, "ns", c.ops, func(n int) error {
			for i := 0; i < n; i++ {
				if _, ok, _ := rel.Find(nil, value.Int(keys[i]), 0); !ok {
					return fmt.Errorf("ladder: preloaded key %d not found", keys[i])
				}
			}
			return nil
		})
		tuples := make([]value.Tuple, len(keys))
		for i, k := range keys {
			tuples[i] = value.NewTuple(value.Int(k), value.Str(pad("w", sh.valueLen)))
		}
		// Upserts of existing keys into the same base version: the size,
		// and with it the cost, stays fixed.
		l.rung("relation.insert_ns."+c.suffix, "ns", c.ops, func(n int) error {
			for i := 0; i < n; i++ {
				rel.Insert(nil, tuples[i], 0)
			}
			return nil
		})
	}
	return nil
}

func (l *ladderRun) engine(e *env, sh *shape) error {
	opts := []funcdb.Option{funcdb.WithLanes(2)}
	for rel, tuples := range preload(sh) {
		opts = append(opts, funcdb.WithData(rel, tuples...))
	}
	store, err := funcdb.Open(opts...)
	if err != nil {
		return err
	}
	defer store.Close()

	texts := make([]string, l.n(50000))
	for i := range texts {
		texts[i] = fmt.Sprintf("insert (%d, %q) into %s", l.rng.Intn(sh.rows), pad(fmt.Sprint("t", i), sh.valueLen), sh.rels[i%len(sh.rels)])
	}
	l.rung("query.translate_ns", "ns", 50000, func(n int) (err error) {
		for i := 0; i < n && err == nil; i++ {
			_, err = funcdb.Parse(texts[i])
		}
		return err
	})
	ins := make([]*funcdb.Stmt, len(sh.rels))
	find := make([]*funcdb.Stmt, len(sh.rels))
	for r, rel := range sh.rels {
		if ins[r], err = store.Prepare("insert (?, ?) into " + rel); err != nil {
			return err
		}
		if find[r], err = store.Prepare("find ? in " + rel); err != nil {
			return err
		}
	}
	val := funcdb.Str(pad("b", sh.valueLen))
	l.rung("query.bind_ns", "ns", 200000, func(n int) (err error) {
		for i := 0; i < n && err == nil; i++ {
			_, err = ins[0].Bind(funcdb.Int(int64(i%sh.rows)), val)
		}
		return err
	})

	// bound pre-binds n transactions over the given relations, so that the
	// core rungs time admission and execution and nothing before it.
	bound := func(stmts []*funcdb.Stmt, rels []int, n int) ([]funcdb.Transaction, error) {
		txs := make([]funcdb.Transaction, n)
		for i := range txs {
			st := stmts[rels[i%len(rels)]]
			args := []funcdb.Item{funcdb.Int(int64(l.rng.Intn(sh.rows)))}
			if st.NumParams() == 2 {
				args = append(args, val)
			}
			var err error
			if txs[i], err = st.Bind(args...); err != nil {
				return nil, err
			}
		}
		return txs, nil
	}
	submit := func(txs []funcdb.Transaction) error {
		for i := range txs {
			if resp := store.Submit(txs[i]).Force(); resp.Err != nil {
				return resp.Err
			}
		}
		return nil
	}
	all := make([]int, len(sh.rels))
	for r := range all {
		all[r] = r
	}
	reads, err := bound(find, all, l.n(20000))
	if err != nil {
		return err
	}
	l.rung("core.read_ns", "ns", 20000, func(n int) error { return submit(reads[:n]) })
	writes, err := bound(ins, all, l.n(5000))
	if err != nil {
		return err
	}
	l.rung("core.write_ns", "ns", 5000, func(n int) error { return submit(writes[:n]) })

	// Two goroutines writing: to relations on different lanes, then to
	// relations on the same lane. With two lanes the lane hash puts r0 and
	// r2 on one lane and r1 on the other. The value is wall time per
	// operation of one goroutine: equal to core.write_ns when the two do
	// not get in each other's way.
	pair := func(name string, relA, relB int) error {
		a, err := bound(ins, []int{relA}, l.n(5000))
		if err != nil {
			return err
		}
		b, err := bound(ins, []int{relB}, l.n(5000))
		if err != nil {
			return err
		}
		l.rung(name, "ns", 5000, func(n int) error {
			var wg sync.WaitGroup
			var berr error
			wg.Add(1)
			go func() { defer wg.Done(); berr = submit(b[:n]) }()
			aerr := submit(a[:n])
			wg.Wait()
			if aerr != nil {
				return aerr
			}
			return berr
		})
		return nil
	}
	if err := pair("core.write_ns.disjoint", 0, 1); err != nil {
		return err
	}
	if err := pair("core.write_ns.contended", 0, 2); err != nil {
		return err
	}

	cached := make([]string, 128) // fewer than the statement cache holds: every Exec hits
	for i := range cached {
		cached[i] = fmt.Sprintf("find %d in %s", l.rng.Intn(sh.rows), sh.rels[i%len(sh.rels)])
		if _, err := store.Exec(cached[i]); err != nil {
			return err
		}
	}
	l.rung("session.exec_ns", "ns", 20000, func(n int) (err error) {
		for i := 0; i < n && err == nil; i++ {
			_, err = store.Exec(cached[i%len(cached)])
		}
		return err
	})
	l.rung("session.batch16_ns_per_stmt", "ns", 20000, func(n int) (err error) {
		for i := 0; i+16 <= n && err == nil; i += 16 {
			_, err = store.ExecBatch(cached[i%64 : i%64+16])
		}
		return err
	})
	return nil
}

func (l *ladderRun) archive(e *env, sh *shape) error {
	writes := make([]string, l.n(5000))
	for i := range writes {
		writes[i] = fmt.Sprintf("insert (%d, %q) into %s", l.rng.Intn(sh.rows), pad("a", 64), engineRels[i%len(engineRels)])
	}
	dsh := shape{rels: engineRels, rows: sh.rows, valueLen: 64}
	for _, c := range []struct {
		name string
		ops  int
		opts []funcdb.DurabilityOption
	}{
		{"archive.write_ns.nosync", 5000, nil},
		{"archive.write_ns.group", 5000, []funcdb.DurabilityOption{funcdb.GroupCommit(2 * time.Millisecond)}},
		{"archive.write_ns.fsync", 200, []funcdb.DurabilityOption{funcdb.SyncEveryWrite()}},
	} {
		dir, err := os.MkdirTemp(e.dir, "ladder-")
		if err != nil {
			return err
		}
		opts := []funcdb.Option{funcdb.WithRepresentation(funcdb.RepAVL), funcdb.WithDurability(dir, c.opts...)}
		for rel, tuples := range preload(&dsh) {
			opts = append(opts, funcdb.WithData(rel, tuples...))
		}
		store, err := funcdb.Open(opts...)
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		// The archive is written from the post-commit observer, so a write
		// costs what it takes until the barrier after the last one returns.
		l.rung(c.name, "ns", c.ops, func(n int) (err error) {
			for i := 0; i < n && err == nil; i++ {
				_, err = store.Exec(writes[i])
			}
			store.Barrier()
			return err
		})
		if c.opts == nil {
			l.rung("archive.snapshot_ms", "ms", 1, func(int) error { return store.Snapshot() })
		}
		err = store.Close()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
	}

	// Recovery: a log of records behind an empty snapshot, so that opening
	// it is replay and nothing else.
	dir, err := os.MkdirTemp(e.dir, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := funcdb.Open(funcdb.WithRepresentation(funcdb.RepAVL), funcdb.WithRelations(engineRels...), funcdb.WithDurability(dir))
	if err != nil {
		return err
	}
	for i := l.n(3000); i > 0; i-- {
		if _, err := store.Exec(writes[i%len(writes)]); err != nil {
			return err
		}
	}
	if err := store.Close(); err != nil {
		return err
	}
	l.rung("archive.recover_us_per_record", "us", 3000, func(int) error {
		rs, err := funcdb.OpenDir(dir)
		if err != nil {
			return err
		}
		return rs.Close()
	})
	return nil
}

func (l *ladderRun) server(e *env, sh *shape) error {
	t, err := openWire(e, sh)
	if err != nil {
		return err
	}
	defer t.close()
	wt := t.(*wireTarget)
	addr := wt.node.Addr().String()
	l.rung("client.dial_us", "us", 200, func(n int) error {
		for i := 0; i < n; i++ {
			c, err := client.Dial(addr)
			if err != nil {
				return err
			}
			c.Close()
		}
		return nil
	})
	c := wt.clients[0]
	finds, inserts := l.statements(sh, 0, 3000)
	l.rung("server.roundtrip_us.read", "us", len(finds), roundTrips(c, finds))
	l.rung("server.roundtrip_us.write", "us", len(inserts), roundTrips(c, inserts))
	const depth = 32
	pend := make([]*client.Pending, depth)
	l.rung("server.pipelined_us_per_op", "us", 3200, func(n int) error {
		for i := 0; i+depth <= n; i += depth {
			for j := range pend {
				p, err := c.ExecAsync(finds[(i+j)%len(finds)])
				if err != nil {
					return err
				}
				pend[j] = p
			}
			for _, p := range pend {
				if _, err := p.Force(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	l.rung("server.batch16_us_per_stmt", "us", 3200, func(n int) (err error) {
		for i := 0; i+16 <= n && err == nil; i += 16 {
			_, err = c.ExecBatch(finds[i%64 : i%64+16])
		}
		return err
	})
	return nil
}

// statements returns find texts and insert texts on relation rel.
func (l *ladderRun) statements(sh *shape, rel, n int) (finds, inserts []string) {
	for i := l.n(n); i > 0; i-- {
		k := l.rng.Intn(sh.rows)
		finds = append(finds, fmt.Sprintf("find %d in %s", k, sh.rels[rel]))
		inserts = append(inserts, fmt.Sprintf("insert (%d, %q) into %s", k, pad("s", sh.valueLen), sh.rels[rel]))
	}
	return finds, inserts
}

// roundTrips is a rung body: n synchronous statements on one connection.
func roundTrips(c *client.Client, stmts []string) func(n int) error {
	return func(n int) error {
		for i := 0; i < n; i++ {
			resp, err := c.Exec(stmts[i%len(stmts)])
			if err != nil {
				return err
			}
			if resp.Err != nil {
				return resp.Err
			}
		}
		return nil
	}
}

func (l *ladderRun) cluster(e *env, sh *shape) error {
	gated, err := openClusterWith(e, sh, workloadFailover())
	if err != nil {
		return err
	}
	defer gated.close()
	owner, gateway := -1, -1
	for i, node := range gated.nodes {
		if _, self := node.Owner(sh.rels[0]); self {
			owner = i
		} else if gateway < 0 {
			gateway = i
		}
	}
	direct, err := client.Dial(gated.addrs[owner])
	if err != nil {
		return err
	}
	defer direct.Close()
	via, err := client.Dial(gated.addrs[gateway])
	if err != nil {
		return err
	}
	defer via.Close()
	finds, inserts := l.statements(sh, 0, 2000)
	own := l.rung("cluster.roundtrip_us.owner", "us", len(finds), roundTrips(direct, finds))
	gw := l.rung("cluster.roundtrip_us.gateway", "us", len(finds), roundTrips(via, finds))
	l.record("cluster.forward_hop_us", "us", []float64{gw - own}, len(finds))

	withGate, _ := l.measure("us", len(inserts), roundTrips(direct, inserts))

	// How long after the acknowledgement both mirrors have applied a write.
	// Only the waiting is timed, not the write before it.
	lagOps := l.n(300)
	lag := make([]float64, l.reps)
	for r := range lag {
		var waited time.Duration
		for i := 0; i < lagOps; i++ {
			if _, err := direct.Exec(inserts[i%len(inserts)]); err != nil {
				return err
			}
			acked := time.Now()
			want := gated.nodes[owner].Store().Current().Version()
			for p, node := range gated.nodes {
				for p != owner && node.ReplicaVersion(owner) < want {
					if time.Since(acked) > 5*time.Second {
						return fmt.Errorf("ladder: mirror %d never applied version %d", p, want)
					}
				}
			}
			waited += time.Since(acked)
		}
		lag[r] = float64(waited.Microseconds()) / float64(lagOps)
	}
	l.record("cluster.replica_apply_lag_us", "us", lag, lagOps)

	// The same write without the semi-sync gate.
	ungated, err := openClusterWith(e, sh, &cluster.FailoverConfig{Heartbeat: 100 * time.Millisecond, SyncReplicas: -1})
	if err != nil {
		return err
	}
	defer ungated.close()
	plain, err := client.Dial(ungated.addrs[owner])
	if err != nil {
		return err
	}
	defer plain.Close()
	noGate, _ := l.measure("us", len(inserts), roundTrips(plain, inserts))
	l.record("cluster.ack_gate_us", "us", []float64{median(withGate) - median(noGate)}, len(inserts))
	return nil
}

func (l *ladderRun) metrics() metrics {
	ms := metrics{}
	for _, st := range l.stats {
		ms.putN(st.name, st.unit, st.median, int64(st.reps))
	}
	return ms
}

func (l *ladderRun) print(w io.Writer) {
	fmt.Fprintf(w, "== ladder  %d repetitions, median and interquartile range per operation\n", l.reps)
	for _, st := range l.stats {
		fmt.Fprintf(w, "  %-34s %14.3f %-3s  iqr %10.3f  ops %d\n", st.name, st.median, st.unit, st.iqr, st.ops)
	}
}

func cmdLadder(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ladder", flag.ContinueOnError)
	reps := fs.Int("reps", 7, "repetitions per rung")
	seed := fs.Int64("seed", 1, "seed for the key sequences")
	out := fs.String("out", "", "also write the rungs as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	e, cleanup, err := newEnv(*seed)
	if err != nil {
		return err
	}
	defer cleanup()
	l, err := runLadder(e, *reps, 1)
	if err != nil {
		return err
	}
	l.print(stdout)
	if *out != "" {
		return writeJSON(*out, []*result{{Workload: "ladder", Seed: *seed, Correct: true, Metrics: l.metrics()}})
	}
	return nil
}
