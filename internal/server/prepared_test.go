// Prepared statements over the wire: the three execution surfaces —
// in-process, wire text, and wire prepared (text hash + positional args,
// no text after the first success) — must be indistinguishable:
// byte-identical rendered responses and equal final databases. On top of
// equivalence, the hash lifecycle: a statement evicted from the server's
// cache (or invalidated by a create) is refused with ErrUnknownStmt and
// the client re-sends with the text transparently, never executing a
// stale plan.
package server_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/query"
	"funcdb/internal/value"
	"funcdb/internal/wire"
)

// preparedOp is one workload step in template form: the text rendering
// drives the text surfaces, the (template, args) pair drives the
// prepared surface.
type preparedOp struct {
	text     string
	template string
	args     []funcdb.Item
}

// seededPreparedOps renders the seeded mixed workload in both forms at
// once. Every statement shape with a literal becomes a '?' template, so
// the prepared run reuses a handful of statements across the whole
// workload — the intended production shape.
func seededPreparedOps(r *rand.Rand, n int, rels []string) []preparedOp {
	out := make([]preparedOp, 0, n)
	for i := 0; i < n; i++ {
		rel := rels[r.Intn(len(rels))]
		k := r.Intn(12)
		switch r.Intn(8) {
		case 0, 1:
			out = append(out, preparedOp{
				text:     fmt.Sprintf("insert (%d, \"v%d\") into %s", k, k, rel),
				template: "insert (?, ?) into " + rel,
				args:     []funcdb.Item{value.Int(int64(k)), value.Str(fmt.Sprintf("v%d", k))},
			})
		case 2:
			out = append(out, preparedOp{
				text:     fmt.Sprintf("delete %d from %s", k, rel),
				template: "delete ? from " + rel,
				args:     []funcdb.Item{value.Int(int64(k))},
			})
		case 3, 4:
			out = append(out, preparedOp{
				text:     fmt.Sprintf("find %d in %s", k, rel),
				template: "find ? in " + rel,
				args:     []funcdb.Item{value.Int(int64(k))},
			})
		case 5:
			out = append(out, preparedOp{text: "count " + rel, template: "count " + rel})
		case 6:
			out = append(out, preparedOp{
				text:     fmt.Sprintf("range 2 %d in %s", 5+k, rel),
				template: "range 2 ? in " + rel,
				args:     []funcdb.Item{value.Int(int64(5 + k))},
			})
		default:
			out = append(out, preparedOp{
				text:     fmt.Sprintf("find %d in NOPE", k), // unknown relation: error response
				template: "find ? in NOPE",
				args:     []funcdb.Item{value.Int(int64(k))},
			})
		}
	}
	return out
}

// runPrepared drives the workload through Stmt handles (one per distinct
// template, prepared lazily on first use), mixing single executions and
// same-template batches drawn from the chunk seed.
func runPrepared(c *client.Client, ops []preparedOp, chunkSeed int64) ([]string, error) {
	r := rand.New(rand.NewSource(chunkSeed))
	stmts := make(map[string]*client.Stmt)
	handle := func(template string) *client.Stmt {
		s, ok := stmts[template]
		if !ok {
			s = c.Prepare(template)
			stmts[template] = s
		}
		return s
	}
	var out []string
	for i := 0; i < len(ops); {
		// A batch groups consecutive ops sharing one template.
		n := 1 + r.Intn(4)
		j := i + 1
		for j < i+n && j < len(ops) && ops[j].template == ops[i].template {
			j++
		}
		s := handle(ops[i].template)
		if j-i == 1 {
			resp, err := s.Exec(ops[i].args...)
			if err != nil {
				return nil, fmt.Errorf("prepared exec %q: %w", ops[i].text, err)
			}
			out = append(out, resp.String())
		} else {
			argSets := make([][]funcdb.Item, j-i)
			for k := i; k < j; k++ {
				argSets[k-i] = ops[k].args
			}
			resps, err := s.ExecBatch(argSets...)
			if err != nil {
				return nil, fmt.Errorf("prepared batch at %d: %w", i, err)
			}
			for _, resp := range resps {
				out = append(out, resp.String())
			}
		}
		i = j
	}
	return out, nil
}

// runText drives the identical workload as plain text, with the same
// chunking stream so the batch boundaries line up.
func runText(ex executor, ops []preparedOp, chunkSeed int64) ([]string, error) {
	r := rand.New(rand.NewSource(chunkSeed))
	var out []string
	for i := 0; i < len(ops); {
		n := 1 + r.Intn(4)
		j := i + 1
		for j < i+n && j < len(ops) && ops[j].template == ops[i].template {
			j++
		}
		if j-i == 1 {
			resp, err := ex.Exec(ops[i].text)
			if err != nil {
				return nil, fmt.Errorf("exec %q: %w", ops[i].text, err)
			}
			out = append(out, resp.String())
		} else {
			qs := make([]string, j-i)
			for k := i; k < j; k++ {
				qs[k-i] = ops[k].text
			}
			resps, err := ex.ExecBatch(qs)
			if err != nil {
				return nil, fmt.Errorf("batch at %d: %w", i, err)
			}
			for _, resp := range resps {
				out = append(out, resp.String())
			}
		}
		i = j
	}
	return out, nil
}

// TestPreparedEquivalence: the same seeded workload three ways —
// in-process text, wire text, wire prepared — must render byte-identical
// responses and leave equal final databases.
func TestPreparedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			ops := seededPreparedOps(r, 150+r.Intn(50), []string{"R", "S", "T"})

			open := func() *funcdb.Store {
				return funcdb.MustOpen(
					funcdb.WithRelations("R", "S", "T"),
					funcdb.WithOrigin("c0"),
					funcdb.WithLanes(4))
			}

			local := open()
			defer local.Close()
			localOut, err := runText(local, ops, seed*11)
			if err != nil {
				t.Fatal(err)
			}

			textStore := open()
			defer textStore.Close()
			textSrv := startServer(t, textStore)
			tc, err := client.Dial(textSrv.Addr().String(), client.WithOrigin("c0"))
			if err != nil {
				t.Fatal(err)
			}
			defer tc.Close()
			textOut, err := runText(tc, ops, seed*11)
			if err != nil {
				t.Fatal(err)
			}

			prepStore := open()
			defer prepStore.Close()
			prepSrv := startServer(t, prepStore)
			proxyAddr, sent := teeProxy(t, prepSrv.Addr().String())
			pc, err := client.Dial(proxyAddr, client.WithOrigin("c0"))
			if err != nil {
				t.Fatal(err)
			}
			defer pc.Close()
			prepOut, err := runPrepared(pc, ops, seed*11)
			if err != nil {
				t.Fatal(err)
			}

			if len(localOut) != len(textOut) || len(localOut) != len(prepOut) {
				t.Fatalf("response counts diverged: %d local, %d text, %d prepared",
					len(localOut), len(textOut), len(prepOut))
			}
			for i := range localOut {
				if localOut[i] != textOut[i] || localOut[i] != prepOut[i] {
					t.Fatalf("response %d (%q) differs:\n  local:    %s\n  text:     %s\n  prepared: %s",
						i, ops[i].text, localOut[i], textOut[i], prepOut[i])
				}
			}
			local.Barrier()
			textStore.Barrier()
			prepStore.Barrier()
			if !local.Current().Equal(textStore.Current()) || !local.Current().Equal(prepStore.Current()) {
				t.Fatal("final databases diverged across execution surfaces")
			}

			// The prepared run must actually have reused its statements:
			// read back what crossed the wire, every template's text exactly
			// once on this connection and hash-only statements for the rest
			// of the workload.
			templates := map[uint64]bool{}
			for _, op := range ops {
				templates[query.HashText(op.template)] = true
			}
			pc.Close()
			texts, hashOnly := map[uint64]int{}, 0
			rd := wire.NewReader(bytes.NewReader(sent()))
			for {
				typ, payload, err := rd.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if typ != wire.FrameRequest {
					continue
				}
				var req wire.Request
				if err := wire.DecodeRequestInto(payload, &req); err != nil {
					t.Fatal(err)
				}
				for _, st := range req.Stmts {
					switch {
					case !templates[st.Hash]:
						t.Fatalf("prepared run sent a statement outside its templates: %+v", st)
					case st.HasText:
						texts[st.Hash]++
					default:
						hashOnly++
					}
				}
			}
			for h := range templates {
				if texts[h] != 1 {
					t.Errorf("template %#x: text crossed the wire %d times, want once", h, texts[h])
				}
			}
			if hashOnly == 0 {
				t.Error("no statement was sent by hash alone: statement reuse missing")
			}
		})
	}
}

// teeProxy relays one connection to addr and records every byte the
// client sends. sent returns the record once the client has closed.
func teeProxy(t *testing.T, addr string) (proxyAddr string, sent func() []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var record bytes.Buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		cconn, err := ln.Accept()
		if err != nil {
			return
		}
		defer cconn.Close()
		sconn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer sconn.Close()
		go io.Copy(cconn, sconn)
		io.Copy(sconn, io.TeeReader(cconn, &record))
	}()
	return ln.Addr().String(), func() []byte {
		<-done
		return record.Bytes()
	}
}

// TestPreparedConcurrentConnections: four connections share one server,
// each driving its own relation's prepared workload on its own admission
// lane — the -race exercise for the per-connection decode scratch and the
// shared statement cache.
func TestPreparedConcurrentConnections(t *testing.T) {
	const lanes, conns = 8, 4
	rels := distinctLaneRelations(t, conns, lanes)

	serverStore := funcdb.MustOpen(funcdb.WithRelations(rels...), funcdb.WithLanes(lanes))
	defer serverStore.Close()
	srv := startServer(t, serverStore)

	workloads := make([][]preparedOp, conns)
	for i := range workloads {
		r := rand.New(rand.NewSource(int64(300 + i)))
		workloads[i] = seededPreparedOps(r, 150, []string{rels[i]})
	}

	wireOut := make([][]string, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(srv.Addr().String(), client.WithOrigin(fmt.Sprintf("c%d", i)))
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			wireOut[i], errs[i] = runPrepared(c, workloads[i], int64(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
	}

	refStore := funcdb.MustOpen(funcdb.WithRelations(rels...), funcdb.WithLanes(lanes))
	defer refStore.Close()
	for i := 0; i < conns; i++ {
		sess := refStore.Session(fmt.Sprintf("c%d", i))
		refOut, err := runText(sessionExecutor{sess}, workloads[i], int64(i))
		if err != nil {
			t.Fatal(err)
		}
		for j := range refOut {
			if refOut[j] != wireOut[i][j] {
				t.Fatalf("conn %d response %d (%q) differs:\n  ref:  %s\n  wire: %s",
					i, j, workloads[i][j].text, refOut[j], wireOut[i][j])
			}
		}
	}
	serverStore.Barrier()
	refStore.Barrier()
	if !serverStore.Current().Equal(refStore.Current()) {
		t.Fatal("concurrent prepared connections diverged from the sequential reference")
	}
}

// TestPreparedHandleSharedAcrossGoroutines: one Stmt on one connection,
// executed from several goroutines at once — the -race exercise for the
// handle's one local parse and its held flag. Every insert lands.
func TestPreparedHandleSharedAcrossGoroutines(t *testing.T) {
	const workers, each = 8, 25
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	srv := startServer(t, store)
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	insert := c.Prepare("insert (?, ?) into R")
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k := int64(w*each + i)
				if resp, err := insert.Exec(value.Int(k), value.Str("v")); err != nil || resp.Err != nil {
					errs[w] = fmt.Errorf("insert %d: %v / %v", k, err, resp.Err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if cnt, err := c.Exec("count R"); err != nil || cnt.Count != workers*each {
		t.Fatalf("count = %+v, %v; want %d", cnt, err, workers*each)
	}
}

// TestPreparedEvictionOverWire: filling the server's statement cache past
// capacity evicts the oldest statement; the next hash-only execution of it
// is refused with ErrUnknownStmt (visible in the server's unknown_stmts
// counter) and the client re-sends with the text transparently — the
// caller sees correct responses throughout.
func TestPreparedEvictionOverWire(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	srv := startServer(t, store)
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stmt := c.Prepare("insert (?, ?) into R")
	if _, err := stmt.Exec(value.Int(1), value.Str("one")); err != nil {
		t.Fatal(err)
	}

	// Execute DefaultStmtCacheSize distinct prepared statements: the cache
	// is full of younger entries and the insert statement is evicted.
	for i := 0; i < query.DefaultStmtCacheSize; i++ {
		filler := c.Prepare(fmt.Sprintf("find %d in R", i))
		if _, err := filler.Exec(); err != nil {
			t.Fatalf("filler %d: %v", i, err)
		}
	}

	resp, err := stmt.Exec(value.Int(2), value.Str("two"))
	if err != nil {
		t.Fatalf("exec after eviction: %v", err)
	}
	if resp.Err != nil {
		t.Fatalf("exec after eviction answered %v", resp.Err)
	}
	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Server.UnknownStmts == 0 {
		t.Fatal("eviction was never refused: the stale hash resolved (or the cache never evicted)")
	}

	// Both inserts landed despite the eviction.
	cnt, err := c.Exec("count R")
	if err != nil || cnt.Err != nil {
		t.Fatalf("count: %v / %v", err, cnt.Err)
	}
	if cnt.Count != 2 {
		t.Fatalf("count = %d, want 2", cnt.Count)
	}
}

// TestPreparedCreateInvalidation: a create invalidates every prepared
// statement touching the relation — end to end, over TCP: the hash-only
// execution is refused (never served the pre-create plan) and the client
// re-sends the text, prepared against the post-create directory.
func TestPreparedCreateInvalidation(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	srv := startServer(t, store)
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stmt := c.Prepare("find ? in FRESH")
	resp, err := stmt.Exec(value.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == nil {
		t.Fatal("find in a not-yet-created relation should answer an error response")
	}

	if resp, err = c.Exec("create FRESH using avl"); err != nil || resp.Err != nil {
		t.Fatalf("create: %v / %v", err, resp.Err)
	}
	if resp, err = c.Exec(`insert (1, "x") into FRESH`); err != nil || resp.Err != nil {
		t.Fatalf("insert: %v / %v", err, resp.Err)
	}

	// The create invalidated the statement: the hash alone must be refused,
	// the handle re-sends the text, and the execution sees the new relation.
	resp, err = stmt.Exec(value.Int(1))
	if err != nil {
		t.Fatalf("exec after create: %v", err)
	}
	if resp.Err != nil {
		t.Fatalf("post-create execution still failing: %v", resp.Err)
	}
	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Server.UnknownStmts == 0 {
		t.Fatal("create did not invalidate the registered statement")
	}
}
