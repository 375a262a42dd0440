package main

import (
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"funcdb"
	"funcdb/client"
)

// startServer runs the server main loop in a goroutine and returns its
// bound address, the signal channel driving it, and a channel that
// yields run's error on exit.
func startServer(t *testing.T, args []string) (net.Addr, chan os.Signal, chan error, *strings.Builder) {
	t.Helper()
	sig := make(chan os.Signal, 1)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run(args, &out, sig, func(a net.Addr) { ready <- a })
	}()
	select {
	case addr := <-ready:
		return addr, sig, done, &out
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
		return nil, nil, nil, nil
	}
}

// TestSigtermDrainsCleanly: acked commits survive a SIGTERM drain — the
// signal is a real OS signal delivered to this process, and recovery
// after restart sees every insert the client got a response for.
func TestSigtermDrainsCleanly(t *testing.T) {
	dir := t.TempDir()
	addr, sig, done, out := startServer(t, []string{
		"--listen", "127.0.0.1:0",
		"--data", dir,
	})
	// Route the real signal into the server's channel, as main does.
	signal.Notify(sig, syscall.SIGTERM)
	defer signal.Stop(sig)

	c, err := client.Dial(addr.String(), client.WithOrigin("c0"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("create R using avl"); err != nil {
		t.Fatal(err)
	}
	const n = 40
	queries := make([]string, n)
	for i := range queries {
		queries[i] = fmt.Sprintf("insert (%d, \"v%d\") into R", i, i)
	}
	resps, err := c.ExecBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resps {
		if r.Err != nil {
			t.Fatalf("insert failed: %v", r.Err)
		}
	}
	// Every insert above is ACKED. Kill the server with a real SIGTERM.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain failed: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("server did not drain\noutput:\n%s", out.String())
	}
	c.Close()
	if !strings.Contains(out.String(), "draining") || !strings.Contains(out.String(), "store closed") {
		t.Errorf("drain log missing: %q", out.String())
	}

	// Restart: recovery must see every acked commit.
	re, err := funcdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Current().TotalTuples(); got != n {
		t.Fatalf("recovered %d tuples, want %d (acked commits lost in drain)", got, n)
	}
}

// TestServerRestartContinuesStream: a second server over the same
// directory picks the version stream up where the first left off.
func TestServerRestartContinuesStream(t *testing.T) {
	dir := t.TempDir()
	addr, sig, done, _ := startServer(t, []string{"--listen", "127.0.0.1:0", "--data", dir})
	c, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecBatch([]string{"create R", `insert (1, "a") into R`}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	sig <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	addr, sig, done, _ = startServer(t, []string{"--listen", "127.0.0.1:0", "--data", dir})
	c, err = client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Exec("count R")
	if err != nil || resp.Err != nil || resp.Count != 1 {
		t.Fatalf("recovered count: %+v, %v", resp, err)
	}
	c.Close()
	sig <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestBadFlags: flag errors exit run without leaving a listener or a
// store behind, and each refusal names the flag at fault: an unknown
// flag, and a --databases name that is not one path element (it would
// put a store outside --data, or inside another store's directory).
func TestBadFlags(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"--no-such-flag"}, "-no-such-flag"},
		{[]string{"--data", dir, "--databases", "aux,../escaped"}, "--databases"},
		{[]string{"--data", dir, "--databases", "aux,aux/nested"}, "--databases"},
		{[]string{"--data", dir, "--databases", ".."}, "--databases"},
	} {
		err := run(c.args, &strings.Builder{}, nil, nil)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("run %q: err = %v, want one naming %s", c.args, err, c.flag)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("refused runs left %v in --data (%v)", entries, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "..", "escaped")); !os.IsNotExist(err) {
		t.Errorf("a store escaped --data: stat ../escaped = %v", err)
	}
}

// TestRunBadFlag: cluster-mode flag errors exit run without leaving a
// store behind, and each refusal names the flag at fault: a cluster node
// without its archive or schema, hosting several databases, or whose
// --listen (given or defaulted) is not in --join, and the cluster-only
// flags without --join.
func TestRunBadFlag(t *testing.T) {
	dir := t.TempDir()
	join := []string{"--join", "127.0.0.1:1", "--listen", "127.0.0.1:1"}
	for _, c := range []struct {
		args []string
		flag string
	}{
		{append([]string{"--relations", "R"}, join...), "--data"},
		{append([]string{"--data", dir}, join...), "--relations"},
		{append([]string{"--data", dir, "--relations", "R", "--databases", "aux"}, join...), "--databases"},
		{[]string{"--data", dir, "--relations", "R", "--join", "127.0.0.1:1", "--listen", "127.0.0.1:2"}, "--listen"},
		{[]string{"--data", dir, "--relations", "R", "--join", "127.0.0.1:4151"}, "--listen"},
		{[]string{"--failover"}, "--failover"},
		{[]string{"--id", "0"}, "--id"},
		{[]string{"--heartbeat", "1s"}, "--heartbeat"},
		{[]string{"--lease", "1s"}, "--lease"},
	} {
		err := run(c.args, &strings.Builder{}, nil, nil)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("run %q: err = %v, want one naming %s", c.args, err, c.flag)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("refused runs left %v in --data (%v)", entries, err)
	}
}

func TestSplitComma(t *testing.T) {
	if got := splitComma("a,b,,c"); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("splitComma = %q", got)
	}
	if got := splitComma(""); got != nil {
		t.Errorf("splitComma(\"\") = %q", got)
	}
}

// TestMultiDatabaseFlag: --databases hosts several stores on one
// listener, each durable under its own subdirectory, and a drain flushes
// them all.
func TestMultiDatabaseFlag(t *testing.T) {
	dir := t.TempDir()
	addr, sig, done, _ := startServer(t, []string{
		"--listen", "127.0.0.1:0",
		"--data", dir,
		"--databases", "aux",
		"--relations", "R",
	})

	cm, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cm.Exec(`insert (1, "m") into R`); err != nil {
		t.Fatal(err)
	}
	cm.Close()
	ca, err := client.Dial(addr.String(), client.WithDatabase("aux"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Exec(`insert (2, "a") into R`); err != nil {
		t.Fatal(err)
	}
	ca.Close()

	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain")
	}

	// Each store recovered independently from its own directory.
	main, err := funcdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer main.Close()
	if resp, err := main.Exec("find 1 in R"); err != nil || !resp.Found {
		t.Fatalf("main store lost its write: %+v %v", resp, err)
	}
	if resp, err := main.Exec("find 2 in R"); err != nil || resp.Found {
		t.Fatalf("main store sees aux's write: %+v %v", resp, err)
	}
	aux, err := funcdb.OpenDir(dir + "/aux")
	if err != nil {
		t.Fatal(err)
	}
	defer aux.Close()
	if resp, err := aux.Exec("find 2 in R"); err != nil || !resp.Found {
		t.Fatalf("aux store lost its write: %+v %v", resp, err)
	}
}

// TestRealNetworkMode boots a 3-node TCP cluster through run with --join
// (reserved loopback ports), drives a cluster client through it, and
// drains every node cleanly. --snapshot-every reaches the nodes' archives.
func TestRealNetworkMode(t *testing.T) {
	// Reserve three ports for the join list.
	addrs := make([]string, 3)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	join := strings.Join(addrs, ",")

	type nodeProc struct {
		sig  chan os.Signal
		done chan error
		out  *strings.Builder
	}
	nodes := make([]*nodeProc, 3)
	dirs := make([]string, 3)
	for i := range nodes {
		dirs[i] = t.TempDir()
		np := &nodeProc{sig: make(chan os.Signal, 1), done: make(chan error, 1), out: &strings.Builder{}}
		nodes[i] = np
		ready := make(chan net.Addr, 1)
		args := []string{
			"--listen", addrs[i],
			"--join", join,
			"--data", dirs[i],
			"--relations", "R,S,T,U,V,W",
			"--snapshot-every", "4",
		}
		go func() { np.done <- run(args, np.out, np.sig, func(a net.Addr) { ready <- a }) }()
		select {
		case <-ready:
		case err := <-np.done:
			t.Fatalf("node %d exited before ready: %v\n%s", i, err, np.out.String())
		case <-time.After(10 * time.Second):
			t.Fatalf("node %d never came up", i)
		}
	}

	cc, err := client.DialCluster(addrs, client.WithClusterOrigin("c0"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		rel := []string{"R", "S", "W"}[i%3]
		resp, err := cc.Exec(fmt.Sprintf("insert (%d, \"v\") into %s", i, rel))
		if err != nil || resp.Err != nil {
			t.Fatalf("insert %d: %v / %v", i, err, resp.Err)
		}
	}
	if resp, err := cc.Exec("count R"); err != nil || resp.Count != 10 {
		t.Fatalf("count R: %+v, %v", resp, err)
	}
	cc.Close()

	for i, np := range nodes {
		np.sig <- os.Interrupt
		select {
		case err := <-np.done:
			if err != nil {
				t.Fatalf("node %d drain failed: %v\n%s", i, err, np.out.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("node %d did not drain", i)
		}
		if !strings.Contains(np.out.String(), "draining") {
			t.Errorf("node %d drain log missing:\n%s", i, np.out.String())
		}
	}
	// Each of R, S and W took 10 inserts on its owner: at one snapshot
	// every 4 writes, some owner's archive holds periodic snapshots.
	most := 0
	for _, dir := range dirs {
		snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.fdba"))
		if err != nil {
			t.Fatal(err)
		}
		most = max(most, len(snaps))
	}
	if most < 2 {
		t.Errorf("no node archive holds more than %d snapshot; --snapshot-every did not reach the nodes", most)
	}
}
