package client_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/server"
)

func TestDialErrors(t *testing.T) {
	// Nothing listening: Dial reports, no panic.
	if _, err := client.Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to dead port succeeded")
	}
}

func TestClientAfterClose(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	srv := server.New(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Shutdown()

	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := c.Exec("count R"); err != nil || resp.Err != nil {
		t.Fatalf("count: %v / %v", err, resp.Err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("count R"); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("exec after close: %v", err)
	}
	if err := c.Close(); err != nil { // double close is a no-op
		t.Errorf("second close: %v", err)
	}
}

// TestConcurrentCallersShareOneConnection: many goroutines exec through
// one client; request ids route every response to its caller. Runs under
// -race in CI.
func TestConcurrentCallersShareOneConnection(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	srv := server.New(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Shutdown()

	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const goroutines, ops = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := g*ops + i
				resp, err := c.Exec(fmt.Sprintf("insert (%d, \"v\") into R", k))
				if err != nil || resp.Err != nil {
					t.Errorf("insert %d: %v / %v", k, err, resp.Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	resp, err := c.Exec("count R")
	if err != nil || resp.Count != goroutines*ops {
		t.Fatalf("count = %+v (%v), want %d", resp, err, goroutines*ops)
	}
}

// TestStatsOverWire: a client's Stats round-trips the server's metrics
// snapshot — the engine counters reflect the work this connection
// submitted, and the server section counts the connection and its execs.
func TestStatsOverWire(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	srv := server.New(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Shutdown()

	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const writes = 10
	for i := 0; i < writes; i++ {
		if resp, err := c.Exec(fmt.Sprintf("insert (%d, \"v\") into R", i)); err != nil || resp.Err != nil {
			t.Fatalf("insert %d: %v / %v", i, err, resp.Err)
		}
	}
	if _, err := c.Exec("count R"); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != writes {
		t.Errorf("snapshot version = %d, want %d", snap.Version, writes)
	}
	if snap.Engine.Admitted != writes {
		t.Errorf("admitted = %d, want %d", snap.Engine.Admitted, writes)
	}
	if snap.Engine.CommitLatency.Count != writes {
		t.Errorf("commit latency count = %d, want %d", snap.Engine.CommitLatency.Count, writes)
	}
	if snap.Server == nil {
		t.Fatal("no server section in wire snapshot")
	}
	if snap.Server.Conns != 1 || snap.Server.Execs != writes+1 {
		t.Errorf("server section conns=%d execs=%d, want 1/%d",
			snap.Server.Conns, snap.Server.Execs, writes+1)
	}
	if snap.Server.LatencyExec.Count != writes+1 {
		t.Errorf("exec latency count = %d, want %d", snap.Server.LatencyExec.Count, writes+1)
	}
	if snap.Durable {
		t.Error("in-memory store reported durable")
	}
	if snap.Archive != nil {
		t.Error("archive section present without durability")
	}
}

func TestServerAssignedOrigin(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	srv := server.New(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Shutdown()

	c, err := client.Dial(srv.Addr().String()) // no origin: server assigns
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !strings.HasPrefix(c.Origin(), "conn") {
		t.Errorf("assigned origin = %q", c.Origin())
	}
	resp, err := c.Exec("count R")
	if err != nil || resp.Origin != c.Origin() {
		t.Errorf("response origin %q, client origin %q (%v)", resp.Origin, c.Origin(), err)
	}
}

// TestPipelinedForcedInReverse: 64 pipelined statements forced last to
// first — the first Force reads all 64 replies, keeps the one it awaits and
// parks the rest — still pair every response with its request.
func TestPipelinedForcedInReverse(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	srv := server.New(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Shutdown()

	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 64
	var pending [n]*client.Pending
	for i := range pending {
		q := fmt.Sprintf("insert (%d, \"v%d\") into R", i, i)
		if i%2 == 1 {
			q = fmt.Sprintf("find %d in R", i-1)
		}
		if pending[i], err = c.ExecAsync(q); err != nil {
			t.Fatal(err)
		}
	}
	for i := n - 1; i >= 0; i-- {
		resp, err := pending[i].Force()
		if err != nil || resp.Err != nil {
			t.Fatalf("statement %d: %v / %v", i, err, resp.Err)
		}
		if resp.Seq != i {
			t.Errorf("statement %d got the response tagged #%d", i, resp.Seq)
		}
		if i%2 == 1 && (!resp.Found || resp.Tuple.Key().AsInt() != int64(i-1)) {
			t.Errorf("find %d answered %+v", i-1, resp)
		}
	}
}

// TestClusterClientRedialsAfterNodeRestart: a node that restarts on the
// same address closes the connection the cluster client cached; the next
// statement must find that out and redial, not send into the dead socket.
// A send into a socket whose peer closed it succeeds, so only a check
// before the send catches it.
func TestClusterClientRedialsAfterNodeRestart(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	srv := server.New(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	addr := srv.Addr().String()

	cc, err := client.DialCluster([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if resp, err := cc.Exec(`insert (1, "a") into R`); err != nil || resp.Err != nil {
		t.Fatalf("insert before the restart: %v / %v", err, resp.Err)
	}

	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	srv = server.New(store)
	if err := srv.Listen(addr); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Shutdown()

	resp, err := cc.Exec("find 1 in R")
	if err != nil || resp.Err != nil {
		t.Fatalf("find after the restart: %v / %v", err, resp.Err)
	}
	if !resp.Found {
		t.Fatalf("find after the restart: %+v, want the row inserted before it", resp)
	}
}
