// Command fdbserver serves a funcdb store over TCP: the network front
// end of the admission pipeline. Each connection drives one session —
// its own origin tag, sequence space and prepared-statement view — and a
// connection's pipelined requests are admitted in lane-split batches, so
// disjoint clients land on disjoint admission lanes.
//
// With --data <dir>, the store is durable: committed writes land in the
// append-only archive (group commit by default, with the adaptive window
// flushing as each network batch lands), and restarting the server with
// the same flag recovers the database.
//
// With --databases a,b,c one listener hosts several stores: clients pick
// one with the Hello database field (funcdb/client WithDatabase); a
// client that names none lands on "main", which is always hosted. With
// --data, each extra store persists under its own subdirectory
// <dir>/<name> ("main" keeps <dir> itself, so existing single-store
// archives keep working).
//
// With --debug-addr, a second HTTP listener serves live introspection:
// /debug/stats (the metrics snapshot of every hosted database, indented
// JSON), /debug/vars (the same, compact), /debug/trace (published
// request traces when --trace is on; ?format=text for the timeline),
// and /debug/pprof/.
//
// With --trace, every request records a span timeline; 1 in
// --trace-sample requests is published to the ring, and anything at or
// over --trace-slow is always kept. Traces surface on /debug/trace, the
// wire Introspect frame (fdbrepl .trace) and the store API.
//
// SIGTERM or SIGINT drains gracefully: stop accepting, answer everything
// fully read, flush the group-commit buffer, close the store. Every
// response a client received before the drain is durable after it.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"funcdb"
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
	dataDir := fs.String("data", "", "archive directory: persist the store and recover it on restart")
	snapEvery := fs.Int("snapshot-every", 256, "with --data, snapshot the full version every n writes")
	groupWindow := fs.Duration("group-commit", 2*time.Millisecond, "with --data, group-commit window (0 = write through)")
	fsync := fs.Bool("fsync", false, "with --data, fsync every durable flush (power-loss safety)")
	lanes := fs.Int("lanes", 0, "admission lanes (0 = auto from GOMAXPROCS)")
	relations := fs.String("relations", "", "comma-separated relations to create in a fresh store")
	databases := fs.String("databases", "", "comma-separated database names to host on one listener (\"main\" is always hosted)")
	debugAddr := fs.String("debug-addr", "", "optional HTTP address for /debug/stats, /debug/vars, /debug/trace and /debug/pprof")
	traceOn := fs.Bool("trace", false, "record per-request span timelines (.trace, Introspect frame, /debug/trace)")
	traceSample := fs.Int("trace-sample", 0, "with --trace, head-sample 1 in n requests (0 = default 1024)")
	traceSlow := fs.Duration("trace-slow", 0, "with --trace, always keep requests at or over this duration (0 = default 10ms, negative disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var durOpts []funcdb.DurabilityOption
	if *dataDir != "" {
		durOpts = []funcdb.DurabilityOption{funcdb.SnapshotEvery(*snapEvery)}
		if *groupWindow > 0 {
			durOpts = append(durOpts, funcdb.GroupCommit(*groupWindow))
		}
		if *fsync {
			durOpts = append(durOpts, funcdb.SyncEveryWrite())
		}
	}
	open := func(name string) (*funcdb.Store, error) {
		opts := []funcdb.Option{funcdb.WithOrigin("server")}
		if *dataDir != "" {
			dir := *dataDir
			if name != "main" {
				dir = filepath.Join(dir, name)
			}
			opts = append(opts, funcdb.WithDurability(dir, durOpts...))
		}
		if *lanes > 0 {
			opts = append(opts, funcdb.WithLanes(*lanes))
		}
		if *relations != "" {
			opts = append(opts, funcdb.WithRelations(splitComma(*relations)...))
		}
		if *traceOn {
			opts = append(opts, funcdb.WithTracing(funcdb.TracingConfig{
				SampleEvery:   *traceSample,
				SlowThreshold: *traceSlow,
			}))
		}
		return funcdb.Open(opts...)
	}

	names := append([]string{"main"}, splitComma(*databases)...)
	stores := map[string]*funcdb.Store{}
	hosts := map[string]server.Host{}
	closeAll := func() {
		for _, st := range stores {
			st.Close()
		}
	}
	for _, name := range names {
		if _, dup := stores[name]; dup {
			continue
		}
		st, err := open(name)
		if err != nil {
			closeAll()
			return err
		}
		stores[name] = st
		hosts[name] = st
	}
	store := stores["main"]

	srv := server.NewMulti(hosts)
	if err := srv.Listen(*listen); err != nil {
		closeAll()
		return err
	}

	var debugLn net.Listener
	if *debugAddr != "" {
		// One document across every hosted database, keyed by name; the
		// server section (connections, per-frame latency) appears once.
		snapshot := func() any {
			doc := map[string]any{"server": srv.Metrics().Snapshot()}
			dbs := map[string]funcdb.MetricsSnapshot{}
			for name, st := range stores {
				dbs[name] = st.MetricsSnapshot()
			}
			doc["databases"] = dbs
			return doc
		}
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			srv.Shutdown()
			closeAll()
			return fmt.Errorf("debug listener: %w", err)
		}
		debugLn = ln
		// /debug/trace merges every hosted database's published traces
		// into one newest-first list; Stitch/Render group them by id.
		traces := func() []funcdb.RequestTrace {
			var out []funcdb.RequestTrace
			for _, st := range stores {
				out = append(out, st.Traces()...)
			}
			return out
		}
		go http.Serve(ln, server.NewDebugMux(snapshot, traces))
		fmt.Fprintf(stdout, "fdbserver debug endpoints on http://%s/debug/\n", ln.Addr())
	}
	defer func() {
		if debugLn != nil {
			debugLn.Close()
		}
	}()
	cur := store.Current()
	fmt.Fprintf(stdout, "fdbserver listening on %s (%d databases, lanes %d, %d tuples in %d relations%s)\n",
		srv.Addr(), len(stores), store.Lanes(), cur.TotalTuples(), len(cur.RelationNames()),
		map[bool]string{true: ", durable", false: ""}[store.Durable()])
	if onReady != nil {
		onReady(srv.Addr())
	}

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	select {
	case s := <-sig:
		fmt.Fprintf(stdout, "fdbserver: %v — draining\n", s)
	case err := <-serveDone:
		// Listener died without a signal: drain the live connection
		// handlers (their acked commits must still reach the archive)
		// before closing out.
		srv.Shutdown()
		closeAll()
		return err
	}
	if err := srv.Shutdown(); err != nil {
		closeAll()
		return err
	}
	<-serveDone
	for _, st := range stores {
		if err := st.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintln(stdout, "fdbserver: drained, store closed")
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
