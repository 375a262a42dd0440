// Command fdbcluster runs ONE node of funcdb's TCP cluster, the
// primary-copy model of the paper's Section 3.1: each relation's primary
// copy lives on the node the lane hash over the join list names.
//
// Give every node the same --join list of advertised addresses, a unique
// --id (inferred from --listen when omitted), and its own --data
// directory. Placement is the lane hash over the join list — no
// coordinator to start first — so the nodes can boot in any order;
// every node replicates every peer, whose archive log streams over the
// wire. Point clients at any node (funcdb/client DialCluster chases
// placement; plain Dial is transparently forwarded). SIGTERM drains:
// every acked commit is on disk before exit.
//
//	fdbcluster --listen :4151 --join :4151,:4152,:4153 --data /data/n0 --relations R,S,T
//
// For a three-node cluster on loopback in one process, run
// go run ./examples/distributed.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"funcdb"
	"funcdb/internal/cluster"
	"funcdb/internal/server"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	if err := run(os.Args[1:], os.Stdout, sig, nil); err != nil {
		fmt.Fprintln(os.Stderr, "fdbcluster:", err)
		os.Exit(1)
	}
}

// run is main with its dependencies explicit so tests can drive it.
func run(args []string, stdout io.Writer, sig <-chan os.Signal, onReady func(net.Addr)) error {
	fs := flag.NewFlagSet("fdbcluster", flag.ContinueOnError)
	listen := fs.String("listen", "", "TCP address this node serves on")
	join := fs.String("join", "", "comma-separated advertised addresses of ALL nodes, cluster order")
	id := fs.Int("id", -1, "this node's index in --join (default: match --listen)")
	dataDir := fs.String("data", "", "this node's archive directory (required)")
	relations := fs.String("relations", "R,S,T", "cluster-wide schema")
	lanes := fs.Int("lanes", 0, "admission lanes (0 = auto)")
	debugAddr := fs.String("debug-addr", "", "HTTP address for /debug/stats, /debug/vars and /debug/pprof")
	failover := fs.Bool("failover", false, "enable leases, promotion, and epoch fencing (enable on every node)")
	heartbeat := fs.Duration("heartbeat", 0, "heartbeat interval with --failover (0 = default)")
	lease := fs.Duration("lease", 0, "peer lease with --failover (0 = 4x heartbeat)")
	traceOn := fs.Bool("trace", false, "record per-request span timelines; sampled contexts propagate on forwards and the replication stream")
	traceSample := fs.Int("trace-sample", 0, "with --trace, head-sample 1 in n requests (0 = default 1024)")
	traceSlow := fs.Duration("trace-slow", 0, "with --trace, always keep requests at or over this duration (0 = default 10ms, negative disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listen == "" {
		return fmt.Errorf("--listen is required: fdbcluster runs one node of a TCP cluster (for a loopback demo, go run ./examples/distributed)")
	}
	nodes := splitComma(*join)
	if len(nodes) == 0 {
		return fmt.Errorf("--join is required: every node's advertised address, in cluster order")
	}
	if *dataDir == "" {
		return fmt.Errorf("--data is required: the archive is the replication stream")
	}
	if *id < 0 {
		for i, addr := range nodes {
			if addr == *listen {
				*id = i
			}
		}
		if *id < 0 {
			return fmt.Errorf("--listen %s not in --join %v; give --id explicitly", *listen, nodes)
		}
	}
	ncfg := funcdb.ClusterNodeConfig{
		ID:         *id,
		Nodes:      nodes,
		Listen:     *listen,
		Dir:        *dataDir,
		Relations:  splitComma(*relations),
		Lanes:      *lanes,
		Durability: []funcdb.DurabilityOption{funcdb.GroupCommit(2 * time.Millisecond)},
	}
	if *failover {
		ncfg.Failover = &cluster.FailoverConfig{Heartbeat: *heartbeat, Lease: *lease}
	}
	if *traceOn {
		ncfg.Tracing = &funcdb.TracingConfig{SampleEvery: *traceSample, SlowThreshold: *traceSlow}
	}
	return serveNode(ncfg, *debugAddr, stdout, sig, onReady)
}

// serveNode opens and serves one cluster node until a signal drains it.
func serveNode(ncfg funcdb.ClusterNodeConfig, debugAddr string, stdout io.Writer, sig <-chan os.Signal, onReady func(net.Addr)) error {
	node, err := funcdb.OpenClusterNode(ncfg)
	if err != nil {
		return err
	}
	owned := 0
	for _, rel := range ncfg.Relations {
		if _, self := node.Owner(rel); self {
			owned++
		}
	}
	fmt.Fprintf(stdout, "fdbcluster: node %d/%d on %s (primary for %d of %d relations)\n",
		ncfg.ID, len(ncfg.Nodes), node.Addr(), owned, len(ncfg.Relations))
	if debugAddr != "" {
		ln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			node.Shutdown()
			return fmt.Errorf("debug listener: %w", err)
		}
		defer ln.Close()
		go http.Serve(ln, server.NewDebugMux(
			func() any { return node.MetricsSnapshot() },
			func() []funcdb.RequestTrace { return node.Traces() },
		))
		fmt.Fprintf(stdout, "fdbcluster: debug endpoints on http://%s/debug/\n", ln.Addr())
	}
	if onReady != nil {
		onReady(node.Addr())
	}

	serveDone := make(chan error, 1)
	go func() { serveDone <- node.Serve() }()
	select {
	case s := <-sig:
		fmt.Fprintf(stdout, "fdbcluster: %v — draining\n", s)
	case err := <-serveDone:
		node.Shutdown()
		return err
	}
	if err := node.Shutdown(); err != nil {
		return err
	}
	<-serveDone
	fmt.Fprintln(stdout, "fdbcluster: drained, store closed")
	return nil
}

// splitComma splits a comma-separated list, dropping empties.
func splitComma(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}
