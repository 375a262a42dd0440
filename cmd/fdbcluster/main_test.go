package main

import (
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"funcdb/client"
)

// TestRunBadFlag: an unknown flag is refused, and so is a call without
// --listen, which names the flag and the loopback demo to run instead.
func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-nope"}, &out, nil, nil); err == nil {
		t.Error("bad flag accepted")
	}
	err := run([]string{"--join", "127.0.0.1:4151"}, &out, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "--listen") || !strings.Contains(err.Error(), "examples/distributed") {
		t.Errorf("no --listen: err = %v, want one naming --listen and examples/distributed", err)
	}
}

// TestRealNetworkMode boots a 3-node TCP cluster through the command's
// run loop (reserved loopback ports), drives a cluster client through
// it, and drains every node cleanly.
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
	for i := range nodes {
		np := &nodeProc{sig: make(chan os.Signal, 1), done: make(chan error, 1), out: &strings.Builder{}}
		nodes[i] = np
		ready := make(chan net.Addr, 1)
		args := []string{
			"--listen", addrs[i],
			"--join", join,
			"--data", t.TempDir(),
			"--relations", "R,S,T,U,V,W",
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
}
