// Command fdbcluster runs funcdb's distributed forms.
//
// Demo mode (default) simulates the paper's two distribution models on
// the in-memory netsim medium: N sites on a hypercube (or fully
// connected), C concurrent clients submitting a seeded query mix, with
// medium statistics and a final consistency check. --model picks the
// model: "primarysite" (every transaction coordinates through one
// primary site, Section 3.1) or "primarycopy" (each relation is its own
// primary copy; transactions go straight to the owner).
//
// Real-network mode (--listen) runs ONE node of a TCP cluster: give
// every node the same --join list of advertised addresses, a unique
// --id (inferred from --listen when omitted), and its own --data
// directory. Placement is the lane hash over the join list — no
// coordinator to start first — so the nodes can boot in any order;
// every node replicates every peer, whose archive log streams over the
// wire. Point
// clients at any node (funcdb/client DialCluster chases placement;
// plain Dial is transparently forwarded). SIGTERM drains: every acked
// commit is on disk before exit.
//
//	fdbcluster --listen :4151 --join :4151,:4152,:4153 --data /data/n0 --relations R,S,T
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"funcdb"
	"funcdb/internal/cluster"
	"funcdb/internal/netsim"
	"funcdb/internal/primarycopy"
	"funcdb/internal/primarysite"
	"funcdb/internal/server"
	"funcdb/internal/topo"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	if err := run(os.Args[1:], os.Stdout, sig, nil); err != nil {
		fmt.Fprintln(os.Stderr, "fdbcluster:", err)
		os.Exit(1)
	}
}

// run is main with its dependencies explicit so tests can drive it; sig
// and onReady matter only in --listen mode.
func run(args []string, stdout io.Writer, sig <-chan os.Signal, onReady func(net.Addr)) error {
	fs := flag.NewFlagSet("fdbcluster", flag.ContinueOnError)
	// Demo (netsim) flags.
	model := fs.String("model", "primarysite", "netsim demo model: primarysite or primarycopy")
	dim := fs.Int("hypercube", 3, "hypercube dimension (sites = 2^dim); 0 = 4 fully connected sites")
	clients := fs.Int("clients", 4, "concurrent clients")
	ops := fs.Int("ops", 100, "operations per client")
	seed := fs.Int64("seed", 1, "workload seed")
	// Real-network node flags.
	listen := fs.String("listen", "", "real-network mode: TCP address this node serves on")
	join := fs.String("join", "", "real-network mode: comma-separated advertised addresses of ALL nodes, cluster order")
	id := fs.Int("id", -1, "real-network mode: this node's index in --join (default: match --listen)")
	dataDir := fs.String("data", "", "real-network mode: this node's archive directory (required)")
	relations := fs.String("relations", "R,S,T", "real-network mode: cluster-wide schema")
	lanes := fs.Int("lanes", 0, "real-network mode: admission lanes (0 = auto)")
	debugAddr := fs.String("debug-addr", "", "real-network mode: HTTP address for /debug/stats, /debug/vars and /debug/pprof")
	failover := fs.Bool("failover", false, "real-network mode: enable leases, promotion, and epoch fencing (enable on every node)")
	heartbeat := fs.Duration("heartbeat", 0, "real-network mode: heartbeat interval with --failover (0 = default)")
	lease := fs.Duration("lease", 0, "real-network mode: peer lease with --failover (0 = 4x heartbeat)")
	traceOn := fs.Bool("trace", false, "real-network mode: record per-request span timelines; sampled contexts propagate on forwards and the replication stream")
	traceSample := fs.Int("trace-sample", 0, "with --trace, head-sample 1 in n requests (0 = default 1024)")
	traceSlow := fs.Duration("trace-slow", 0, "with --trace, always keep requests at or over this duration (0 = default 10ms, negative disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listen != "" {
		nf := nodeFlags{
			listen: *listen, join: *join, id: *id, dataDir: *dataDir,
			relations: *relations, lanes: *lanes,
			debugAddr: *debugAddr,
			failover:  *failover, heartbeat: *heartbeat, lease: *lease,
		}
		if *traceOn {
			nf.tracing = &funcdb.TracingConfig{SampleEvery: *traceSample, SlowThreshold: *traceSlow}
		}
		return runNode(nf, stdout, sig, onReady)
	}
	return runDemo(*model, *dim, *clients, *ops, *seed, stdout)
}

// nodeFlags carries the real-network mode configuration.
type nodeFlags struct {
	listen, join, dataDir, relations string
	id, lanes                        int
	debugAddr                        string
	failover                         bool
	heartbeat, lease                 time.Duration
	tracing                          *funcdb.TracingConfig
}

// runNode serves one real-network cluster node until a signal drains it.
func runNode(nf nodeFlags, stdout io.Writer, sig <-chan os.Signal, onReady func(net.Addr)) error {
	nodes := splitComma(nf.join)
	if len(nodes) == 0 {
		return fmt.Errorf("--listen needs --join with every node's advertised address")
	}
	if nf.dataDir == "" {
		return fmt.Errorf("--listen needs --data (the archive is the replication stream)")
	}
	id := nf.id
	if id < 0 {
		for i, addr := range nodes {
			if addr == nf.listen {
				id = i
			}
		}
		if id < 0 {
			return fmt.Errorf("--listen %s not in --join %v; give --id explicitly", nf.listen, nodes)
		}
	}
	ncfg := funcdb.ClusterNodeConfig{
		ID:         id,
		Nodes:      nodes,
		Listen:     nf.listen,
		Dir:        nf.dataDir,
		Relations:  splitComma(nf.relations),
		Lanes:      nf.lanes,
		Durability: []funcdb.DurabilityOption{funcdb.GroupCommit(2 * time.Millisecond)},
		Tracing:    nf.tracing,
	}
	if nf.failover {
		ncfg.Failover = &cluster.FailoverConfig{Heartbeat: nf.heartbeat, Lease: nf.lease}
	}
	node, err := funcdb.OpenClusterNode(ncfg)
	if err != nil {
		return err
	}
	owned := 0
	for _, rel := range splitComma(nf.relations) {
		if _, self := node.Owner(rel); self {
			owned++
		}
	}
	fmt.Fprintf(stdout, "fdbcluster: node %d/%d on %s (primary for %d of %d relations)\n",
		id, len(nodes), node.Addr(), owned, len(splitComma(nf.relations)))
	if nf.debugAddr != "" {
		ln, err := net.Listen("tcp", nf.debugAddr)
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

// demoExec is the surface both netsim models expose to the demo driver.
type demoExec func(q string) funcdb.Response

// runDemo simulates one of the paper's models on the netsim medium.
func runDemo(model string, dim, clients, ops int, seed int64, stdout io.Writer) error {
	sites := 4
	if dim > 0 {
		sites = 1 << dim
	}
	rels := []string{"R", "S", "T"}
	initial := funcdb.MustOpen(funcdb.WithRelations(rels...)).Current()

	var (
		newClient func(site int, origin string) (demoExec, error)
		current   func() (*funcdb.Database, error)
		stats     func() (msgs, hops int64)
		shutdown  func()
	)
	switch model {
	case "primarysite":
		cfg := primarysite.Config{
			Sites:     sites,
			Databases: map[string]*funcdb.Database{"main": initial},
		}
		if dim > 0 {
			cfg.Topology = topo.NewHypercube(dim)
		}
		cluster, err := primarysite.New(cfg)
		if err != nil {
			return err
		}
		primary, _ := cluster.PrimaryOf("main")
		fmt.Fprintf(stdout, "primary-site cluster: %d sites, primary for \"main\" at site %d\n", sites, primary)
		newClient = func(site int, origin string) (demoExec, error) {
			cl, err := cluster.NewClient(netsim.SiteID(site), origin)
			if err != nil {
				return nil, err
			}
			return func(q string) funcdb.Response { return cl.Exec("main", q) }, nil
		}
		current = func() (*funcdb.Database, error) { return cluster.Current("main") }
		stats = func() (int64, int64) { m, h := cluster.Network().Stats(); return int64(m), int64(h) }
		shutdown = cluster.Shutdown

	case "primarycopy":
		cfg := primarycopy.Config{Sites: sites, Initial: initial}
		cluster, err := primarycopy.New(cfg)
		if err != nil {
			return err
		}
		for _, rel := range rels {
			owner, _ := cluster.OwnerOf(rel)
			fmt.Fprintf(stdout, "primary-copy cluster: %q owned by site %d\n", rel, owner)
		}
		newClient = func(site int, origin string) (demoExec, error) {
			cl, err := cluster.NewClient(netsim.SiteID(site), origin)
			if err != nil {
				return nil, err
			}
			return func(q string) funcdb.Response { return cl.Exec(q) }, nil
		}
		current = func() (*funcdb.Database, error) { return cluster.Current(), nil }
		stats = func() (int64, int64) { m, h := cluster.Network().Stats(); return int64(m), int64(h) }
		shutdown = cluster.Shutdown

	default:
		return fmt.Errorf("unknown --model %q (primarysite or primarycopy)", model)
	}
	defer shutdown()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			exec, err := newClient((c+1)%sites, fmt.Sprintf("client%d", c))
			if err != nil {
				errs <- err
				return
			}
			r := rand.New(rand.NewSource(seed + int64(c)))
			for i := 0; i < ops; i++ {
				rel := rels[r.Intn(len(rels))]
				k := funcdb.Int(int64(c*1_000_000 + i)).String()
				var q string
				if r.Intn(3) == 0 {
					q = "find " + k + " in " + rel
				} else {
					q = "insert " + k + " into " + rel
				}
				if resp := exec(q); resp.Err != nil {
					errs <- fmt.Errorf("client %d: %s: %w", c, q, resp.Err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	elapsed := time.Since(start)

	final, err := current()
	if err != nil {
		return err
	}
	msgs, hops := stats()
	total := clients * ops
	fmt.Fprintf(stdout, "%d operations from %d clients in %v (%.0f ops/s)\n",
		total, clients, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	fmt.Fprintf(stdout, "final database: %d tuples across %v\n", final.TotalTuples(), final.RelationNames())
	fmt.Fprintf(stdout, "medium: %d messages, %d hops (avg %.2f hops/message)\n",
		msgs, hops, float64(hops)/float64(msgs))
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
