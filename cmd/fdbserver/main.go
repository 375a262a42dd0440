// Command fdbserver serves a funcdb store over TCP: the network front
// end of the admission pipeline. Each connection drives one session —
// its own origin tag, sequence space and prepared-statement view — and a
// connection's pipelined requests are admitted in lane-split batches, so
// disjoint clients land on disjoint admission lanes.
//
// With --data <dir>, the store is durable: committed writes land in the
// append-only archive, and restarting the server with the same flag
// recovers the database.
//
// With --databases a,b,c one listener hosts several stores: clients pick
// one with the Hello database field (funcdb/client WithDatabase); a
// client that names none lands on "main", which is always hosted. With
// --data, each extra store persists under its own subdirectory
// <dir>/<name> ("main" keeps <dir> itself, so existing single-store
// archives keep working), so each name must be one path element.
//
// With --join, the server runs ONE node of a TCP cluster, the paper's
// primary-copy model (Section 3.1; one server alone is primary-site).
// Every node gets the same --join address list and --relations schema,
// its own --data, and an --id (default: --listen's position in --join).
// Nodes boot in any order, every node mirrors every peer, and clients may
// dial any node. --failover adds leases, promotion and epoch fencing.
//
//	fdbserver --listen :4151 --join :4151,:4152,:4153 --data /data/n0 --relations R,S,T
//
// With --debug-addr, a second HTTP listener serves live introspection:
// /debug/stats (the metrics snapshot of every hosted database or of the
// node, indented JSON), /debug/vars (the same, compact), /debug/trace
// (published request traces when --trace is on; ?format=text for the
// timeline), and /debug/pprof/.
//
// With --trace, every request records a span timeline; 1 in
// --trace-sample requests is published to the ring, and anything at or
// over --trace-slow is always kept. Traces surface on /debug/trace, the
// wire Introspect frame (fdbrepl .trace) and the store API.
//
// With --data, a response leaves the server only once the writes it
// carries are in the log: one write per batch of commits, started as soon
// as the previous one returns, and one fsync with it under --fsync.
//
// SIGTERM or SIGINT drains gracefully: stop accepting, answer everything
// fully read, barrier and close the store. Every admitted write is durable
// after the drain; every acknowledged one already was.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"

	"funcdb"
	"funcdb/internal/cluster"
	"funcdb/internal/server"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	if err := run(os.Args[1:], os.Stdout, sig, nil); err != nil {
		fmt.Fprintln(os.Stderr, "fdbserver:", err)
		os.Exit(1)
	}
}

// run is main with its dependencies explicit, so tests can drive it:
// args are the command-line flags, sig delivers shutdown signals, and
// onReady (optional) receives the bound address once the listener is up.
func run(args []string, stdout io.Writer, sig <-chan os.Signal, onReady func(net.Addr)) error {
	fs := flag.NewFlagSet("fdbserver", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:4150", "TCP address to serve the wire protocol on")
	dataDir := fs.String("data", "", "archive directory: persist the store and recover it on restart (required with --join)")
	snapEvery := fs.Int("snapshot-every", 256, "with --data, snapshot the full version every n writes (0 = only when forced)")
	fsync := fs.Bool("fsync", false, "with --data, fsync each log flush before its writes are acknowledged (power-loss safety, not only process crashes)")
	lanes := fs.Int("lanes", 0, "admission lanes (0 = auto from GOMAXPROCS)")
	relations := fs.String("relations", "", "comma-separated relations to create in a fresh store; with --join, the cluster-wide schema (required)")
	databases := fs.String("databases", "", "comma-separated database names to host on one listener (\"main\" is always hosted)")
	debugAddr := fs.String("debug-addr", "", "optional HTTP address for /debug/stats, /debug/vars, /debug/trace and /debug/pprof")
	traceOn := fs.Bool("trace", false, "record per-request span timelines (.trace, Introspect frame, /debug/trace)")
	traceSample := fs.Int("trace-sample", 0, "with --trace, head-sample 1 in n requests (0 = default 1024)")
	traceSlow := fs.Duration("trace-slow", 0, "with --trace, always keep requests at or over this duration (0 = default 10ms, negative disables)")
	join := fs.String("join", "", "run one cluster node: comma-separated advertised addresses of ALL nodes, in cluster order")
	id := fs.Int("id", -1, "with --join, this node's index in --join (-1 = the position of --listen)")
	failover := fs.Bool("failover", false, "with --join, enable leases, promotion and epoch fencing (enable on every node)")
	heartbeat := fs.Duration("heartbeat", 0, "with --failover, heartbeat interval (0 = default)")
	lease := fs.Duration("lease", 0, "with --failover, peer lease (0 = 4x heartbeat)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	durOpts := []funcdb.DurabilityOption{funcdb.SnapshotEvery(*snapEvery)}
	if *fsync {
		durOpts = append(durOpts, funcdb.SyncEveryWrite())
	}
	var tracing *funcdb.TracingConfig
	if *traceOn {
		tracing = &funcdb.TracingConfig{SampleEvery: *traceSample, SlowThreshold: *traceSlow}
	}
	rels := splitComma(*relations)

	// Only the open step depends on the mode; h is what the rest serves.
	var h *host
	if *join == "" {
		for _, name := range []string{"id", "failover", "heartbeat", "lease"} {
			if f := fs.Lookup(name); f.Value.String() != f.DefValue {
				return fmt.Errorf("--%s needs --join", name)
			}
		}
		var err error
		if h, err = openStores(*listen, *dataDir, splitComma(*databases), rels, *lanes, tracing, durOpts); err != nil {
			return err
		}
	} else {
		ncfg := funcdb.ClusterNodeConfig{
			ID: *id, Nodes: splitComma(*join), Listen: *listen, Dir: *dataDir,
			Relations: rels, Lanes: *lanes, Tracing: tracing, Durability: durOpts,
		}
		if ncfg.ID < 0 {
			ncfg.ID = slices.Index(ncfg.Nodes, *listen)
		}
		switch {
		case *dataDir == "":
			return fmt.Errorf("--data is required with --join: the archive is the replication stream")
		case len(rels) == 0:
			return fmt.Errorf("--relations is required with --join: every node needs the cluster-wide schema")
		case *databases != "":
			return fmt.Errorf("--databases cannot be used with --join: a cluster node hosts one store")
		case ncfg.ID < 0:
			return fmt.Errorf("--listen %s not in --join %v; give --id explicitly", *listen, ncfg.Nodes)
		}
		if *failover {
			ncfg.Failover = &cluster.FailoverConfig{Heartbeat: *heartbeat, Lease: *lease}
		}
		node, err := funcdb.OpenClusterNode(ncfg)
		if err != nil {
			return err
		}
		h = &host{
			addr: node.Addr(),
			about: fmt.Sprintf("node %d/%d, primary for %d relations",
				ncfg.ID, len(ncfg.Nodes), len(node.Store().Current().RelationNames())),
			serve:    node.Serve,
			shutdown: node.Shutdown,
			metrics:  func() any { return node.MetricsSnapshot() },
			traces:   node.Traces,
		}
	}

	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			h.shutdown()
			return fmt.Errorf("debug listener: %w", err)
		}
		defer ln.Close()
		go http.Serve(ln, server.NewDebugMux(h.metrics, h.traces))
		fmt.Fprintf(stdout, "fdbserver debug endpoints on http://%s/debug/\n", ln.Addr())
	}
	fmt.Fprintf(stdout, "fdbserver listening on %s (%s)\n", h.addr, h.about)
	if onReady != nil {
		onReady(h.addr)
	}

	serveDone := make(chan error, 1)
	go func() { serveDone <- h.serve() }()

	select {
	case s := <-sig:
		fmt.Fprintf(stdout, "fdbserver: %v — draining\n", s)
	case err := <-serveDone:
		// Listener died without a signal: drain the live connection
		// handlers (their acked commits must still reach the archive)
		// before closing out.
		h.shutdown()
		return err
	}
	if err := h.shutdown(); err != nil {
		return err
	}
	<-serveDone
	fmt.Fprintln(stdout, "fdbserver: drained, store closed")
	return nil
}

// host is what run serves in either mode: a bound listener to serve
// until shutdown drains it and closes every store, the ready banner's
// description, and the two documents the debug mux serves.
type host struct {
	addr            net.Addr
	about           string
	serve, shutdown func() error
	metrics         func() any
	traces          func() []funcdb.RequestTrace
}

// openStores opens the single-server mode: "main" plus every --databases
// name on one listener, each durable under its own directory with --data.
func openStores(listen, dataDir string, databases, rels []string, lanes int,
	tracing *funcdb.TracingConfig, durOpts []funcdb.DurabilityOption) (*host, error) {
	for _, name := range databases {
		if name == "." || name == ".." || filepath.Base(name) != name {
			return nil, fmt.Errorf("--databases %q is not one path element: a store lives in <data>/<name>", name)
		}
	}
	stores := map[string]*funcdb.Store{}
	hosts := map[string]server.Host{}
	closeAll := func() error {
		var errs []error
		for _, st := range stores {
			errs = append(errs, st.Close())
		}
		return errors.Join(errs...)
	}
	for _, name := range append([]string{"main"}, databases...) {
		if _, dup := stores[name]; dup {
			continue
		}
		opts := []funcdb.Option{funcdb.WithOrigin("server"), funcdb.WithRelations(rels...)}
		if dataDir != "" {
			dir := dataDir
			if name != "main" {
				dir = filepath.Join(dir, name)
			}
			opts = append(opts, funcdb.WithDurability(dir, durOpts...))
		}
		if lanes > 0 {
			opts = append(opts, funcdb.WithLanes(lanes))
		}
		if tracing != nil {
			opts = append(opts, funcdb.WithTracing(*tracing))
		}
		st, err := funcdb.Open(opts...)
		if err != nil {
			closeAll()
			return nil, err
		}
		stores[name] = st
		hosts[name] = st
	}

	srv := server.NewMulti(hosts)
	if err := srv.Listen(listen); err != nil {
		closeAll()
		return nil, err
	}
	store := stores["main"]
	cur := store.Current()
	return &host{
		addr: srv.Addr(),
		about: fmt.Sprintf("%d databases, lanes %d, %d tuples in %d relations%s",
			len(stores), store.Lanes(), cur.TotalTuples(), len(cur.RelationNames()),
			map[bool]string{true: ", durable", false: ""}[store.Durable()]),
		serve:    srv.Serve,
		shutdown: func() error { return errors.Join(srv.Shutdown(), closeAll()) },
		// One document across every hosted database, keyed by name; the
		// server section (connections, per-frame latency) appears once.
		metrics: func() any {
			dbs := map[string]funcdb.MetricsSnapshot{}
			for name, st := range stores {
				dbs[name] = st.MetricsSnapshot()
			}
			return map[string]any{"server": srv.Metrics().Snapshot(), "databases": dbs}
		},
		// Every hosted database's published traces in one list;
		// Stitch/Render group them by id.
		traces: func() []funcdb.RequestTrace {
			var out []funcdb.RequestTrace
			for _, st := range stores {
				out = append(out, st.Traces()...)
			}
			return out
		},
	}, nil
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
