// Command fdbload drives a funcdb cluster with an open-loop, Zipf-skewed,
// mixed read/write workload and reports client-observed latency as a
// histogram: the measurement harness for the observability layer.
//
// Open loop means arrivals are scheduled, not paced by responses: the
// driver keeps ONE arrival timeline at --rate and every connection
// atomically claims the next unclaimed slot, so the offered load stays
// exact from tens to thousands of connections; a statement's latency is
// measured from its SCHEDULED time.
// A server that falls behind therefore shows the queueing delay clients
// actually suffer (coordinated omission is the classic way load drivers
// lie about tail latency; scheduling avoids it). --rate 0 switches to a
// closed loop: each connection fires as fast as responses return.
//
// Keys are drawn from a Zipf distribution over --keys, so a few hot keys
// absorb most of the traffic — the access pattern that makes structure
// sharing (and lane contention) interesting. Each key's relation is
// key%len(relations), so the load spreads across every node's primaries.
//
// Point it at a running cluster with --addrs, or let it spawn its own:
// --spawn n boots an n-node loopback cluster (archives in a temp
// directory, group commit 2ms) for a self-contained benchmark run.
//
// The report prints to stdout; --out also writes it as JSON (the
// repository's BENCH_0006.json is such a file). --engine-overhead
// appends an in-process microbenchmark comparing the instrumented
// admission hot path against the uninstrumented one.
//
// --trace samples request traces on the driver's cluster clients (one
// connection in --trace-sample is traced with every request sampled —
// connection-level sampling holds the ~1/n fraction even when thousands
// of connections each issue only a handful of requests — and each
// sampled request carries a trace context across the wire, so
// every node's spans stitch under one id), prints exemplar trace ids
// next to the latency histogram buckets plus the slowest stitched
// timelines, and adds a trace section to the report. --trace-check
// additionally fails the run when a stitched trace is missing stages or
// has them out of causal order — the CI smoke for the tracing path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/cluster"
	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/metrics"
	"funcdb/internal/relation"
	"funcdb/internal/reqtrace"
	"funcdb/internal/value"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fdbload:", err)
		os.Exit(1)
	}
}

// loadConfig is the resolved flag set, echoed into the JSON report so a
// checked-in result names the run that produced it.
type loadConfig struct {
	Addrs      []string      `json:"addrs,omitempty"`
	Spawn      int           `json:"spawn,omitempty"`
	Duration   time.Duration `json:"-"`
	DurationS  float64       `json:"duration_s"`
	Conns      int           `json:"conns"`
	Rate       int           `json:"rate_ops_s"`
	ReadPct    int           `json:"read_pct"`
	Keys       int           `json:"keys"`
	ZipfS      float64       `json:"zipf_s"`
	Relations  []string      `json:"relations"`
	Seed       int64         `json:"seed"`
	Prepared    bool          `json:"prepared,omitempty"`
	Failover    bool          `json:"failover,omitempty"`
	KillNode    int           `json:"kill_node,omitempty"`
	KillAfter   time.Duration `json:"-"`
	KillAfterS  float64       `json:"kill_after_s,omitempty"`
	Trace       bool          `json:"trace,omitempty"`
	TraceSample int           `json:"trace_sample,omitempty"`
	TraceCheck  bool          `json:"-"`
}

// latencyDoc is one histogram rendered for the report, in microseconds.
type latencyDoc struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Mean  float64 `json:"mean"`
}

// nodeDoc is one cluster node's state at the end of the run. The heap/GC
// fields come from the node's runtime section — the same document its
// /debug/vars endpoint serves — collected over the wire Stats sweep.
type nodeDoc struct {
	Addr           string  `json:"addr"`
	Version        int64   `json:"version"`
	Admitted       int64   `json:"admitted"`
	Reads          int64   `json:"reads"`
	Forwards       int64   `json:"forwards"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes,omitempty"`
	NumGC          uint32  `json:"num_gc,omitempty"`
	GCPauseMs      float64 `json:"gc_pause_ms,omitempty"`
	Goroutines     int     `json:"goroutines,omitempty"`
}

// heapDoc is the driver process's heap/GC accounting over the run:
// MemStats deltas (start of load to end of load), so allocs_per_op is the
// client-side wire path's allocation cost per completed operation. With
// --spawn the server nodes run in the same process, so the numbers cover
// the whole loopback stack.
type heapDoc struct {
	HeapAllocBytes  uint64  `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	Mallocs         uint64  `json:"mallocs"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	NumGC           uint32  `json:"num_gc"`
	GCPauseTotalMs  float64 `json:"gc_pause_total_ms"`
	GoroutinesPeak  int     `json:"goroutines_peak"`
}

// baselineDoc summarizes the prior report a run was compared against, so
// a checked-in BENCH artifact carries its own before/after context.
type baselineDoc struct {
	Path           string  `json:"path"`
	Conns          int     `json:"conns"`
	Rate           int     `json:"rate"`
	ThroughputOpsS float64 `json:"throughput_ops_s"`
	P50Us          float64 `json:"p50_us"`
	P99Us          float64 `json:"p99_us"`
	AllocsPerOp    float64 `json:"allocs_per_op,omitempty"`
}

// overheadDoc is the lane-commit microbenchmark result.
type overheadDoc struct {
	UninstrumentedNS float64 `json:"uninstrumented_ns_per_op"`
	InstrumentedNS   float64 `json:"instrumented_ns_per_op"`
	OverheadPct      float64 `json:"overhead_pct"`
}

// traceDoc is the report's request-tracing section (--trace): how many
// traces each side published, how many stitched across nodes, and the
// slowest stitched requests by client-observed total.
type traceDoc struct {
	ClientSampled   int            `json:"client_sampled"`
	ServerPublished int            `json:"server_published"`
	Groups          int            `json:"groups"`
	MultiNodeGroups int            `json:"multi_node_groups"`
	StageOrderOK    bool           `json:"stage_order_ok"`
	Problems        []string       `json:"problems,omitempty"`
	Slowest         []traceSummary `json:"slowest,omitempty"`
}

// traceSummary is one stitched trace's headline numbers.
type traceSummary struct {
	ID      string  `json:"id"`
	TotalUs float64 `json:"total_us"`
	Nodes   int     `json:"nodes"`
	Spans   int     `json:"spans"`
}

// report is the JSON document --out writes.
type report struct {
	Bench             string       `json:"bench"`
	Config            loadConfig   `json:"config"`
	ElapsedS          float64      `json:"elapsed_s"`
	Ops               int64        `json:"ops"`
	Reads             int64        `json:"reads"`
	Writes            int64        `json:"writes"`
	Errors            int64        `json:"errors"`
	ThroughputOpsS    float64      `json:"throughput_ops_s"`
	Latency           latencyDoc   `json:"latency_us"`
	ReadLatency       latencyDoc   `json:"read_latency_us"`
	WriteLatency      latencyDoc   `json:"write_latency_us"`
	Nodes             []nodeDoc    `json:"nodes,omitempty"`
	ReplicationLagMax int64        `json:"replication_lag_max"`
	AckedKeys         int64        `json:"acked_keys,omitempty"`
	LostAcked         int64        `json:"lost_acked"`
	Heap              *heapDoc     `json:"heap,omitempty"`
	Baseline          *baselineDoc `json:"baseline,omitempty"`
	EngineOverhead    *overheadDoc `json:"engine_overhead,omitempty"`
	Trace             *traceDoc    `json:"trace,omitempty"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fdbload", flag.ContinueOnError)
	addrsFlag := fs.String("addrs", "", "comma-separated cluster node addresses to drive")
	spawn := fs.Int("spawn", 0, "spawn an in-process n-node loopback cluster instead of dialing --addrs")
	duration := fs.Duration("duration", 5*time.Second, "how long to drive load")
	conns := fs.Int("conns", 8, "concurrent client connections")
	rate := fs.Int("rate", 2000, "target ops/s across all connections (0 = closed loop)")
	readPct := fs.Int("read-pct", 50, "percentage of statements that are reads")
	keys := fs.Int("keys", 10000, "key-space size")
	zipfS := fs.Float64("zipf-s", 1.1, "Zipf skew (>1; larger = hotter head)")
	relations := fs.String("relations", "R,S,T", "comma-separated relations to spread keys over")
	seed := fs.Int64("seed", 1, "workload seed")
	prepared := fs.Bool("prepared", false, "drive prepared statements (text ships once per owner; executions are id/hash + args, parse-free on both sides)")
	out := fs.String("out", "", "also write the report as JSON to this path")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the run to this path")
	baseline := fs.String("baseline", "", "prior report JSON to print a before/after delta against")
	overhead := fs.Bool("engine-overhead", false, "append the lane-commit instrumentation microbenchmark")
	trace := fs.Bool("trace", false, "sample request traces across the cluster and report stitched span timelines")
	traceSample := fs.Int("trace-sample", 64, "with --trace: trace one connection in n (all its requests sampled)")
	traceCheck := fs.Bool("trace-check", false, "with --trace: fail the run when stitched traces have missing or out-of-order stages")
	failover := fs.Bool("failover", false, "with --spawn: boot the cluster with failover enabled (leases, promotion, epoch fencing)")
	killNode := fs.Int("kill-node", -1, "with --spawn: crash this node index mid-run (implies --failover); acked writes are audited against the survivors")
	killAfter := fs.Duration("kill-after", 0, "when to crash --kill-node after load starts (0 = duration/3)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := loadConfig{
		Spawn: *spawn, Duration: *duration, DurationS: duration.Seconds(),
		Conns: *conns, Rate: *rate, ReadPct: *readPct, Keys: *keys,
		ZipfS: *zipfS, Seed: *seed, Prepared: *prepared,
		Failover: *failover || *killNode >= 0,
		KillNode: *killNode, KillAfter: *killAfter,
		Trace: *trace || *traceCheck, TraceCheck: *traceCheck,
	}
	if cfg.Trace {
		cfg.TraceSample = *traceSample
		if cfg.TraceSample <= 0 {
			return fmt.Errorf("--trace-sample must be >= 1 (got %d)", cfg.TraceSample)
		}
	}
	if cfg.KillNode >= 0 {
		if cfg.KillAfter <= 0 {
			cfg.KillAfter = cfg.Duration / 3
		}
		cfg.KillAfterS = cfg.KillAfter.Seconds()
	}
	for _, r := range strings.Split(*relations, ",") {
		if r != "" {
			cfg.Relations = append(cfg.Relations, r)
		}
	}
	if len(cfg.Relations) == 0 || cfg.Conns <= 0 || cfg.Keys <= 0 {
		return fmt.Errorf("need at least one relation, one connection and one key")
	}
	if cfg.Conns > maxConns {
		return fmt.Errorf("--conns %d exceeds the driver's limit of %d", cfg.Conns, maxConns)
	}
	if cfg.ZipfS <= 1 {
		return fmt.Errorf("--zipf-s must be > 1 (got %g)", cfg.ZipfS)
	}
	// Read the baseline before spending a run on a typo'd path.
	var base *report
	if *baseline != "" {
		var err error
		if base, err = loadBaseline(*baseline); err != nil {
			return err
		}
	}

	var nodes []*funcdb.ClusterNode
	if *spawn > 0 {
		if cfg.KillNode >= *spawn {
			return fmt.Errorf("--kill-node %d out of range for --spawn %d", cfg.KillNode, *spawn)
		}
		if cfg.Failover && *spawn < 2 {
			return fmt.Errorf("--failover needs --spawn >= 2 (a mirror must exist to promote)")
		}
		var tracing *funcdb.TracingConfig
		if cfg.Trace {
			tracing = &funcdb.TracingConfig{SampleEvery: cfg.TraceSample}
		}
		addrs, spawned, shutdown, err := spawnCluster(*spawn, cfg.Relations, cfg.Failover, tracing)
		if err != nil {
			return err
		}
		defer shutdown()
		cfg.Addrs, nodes = addrs, spawned
		fmt.Fprintf(stdout, "spawned %d-node loopback cluster: %s\n", *spawn, strings.Join(addrs, " "))
	} else {
		if cfg.KillNode >= 0 {
			return fmt.Errorf("--kill-node needs --spawn (the crash is in-process)")
		}
		cfg.Addrs = splitComma(*addrsFlag)
		if len(cfg.Addrs) == 0 {
			return fmt.Errorf("give --addrs or --spawn")
		}
	}

	if err := checkFDBudget(cfg.Conns, len(cfg.Addrs), *spawn > 0); err != nil {
		return err
	}

	if *memprofile != "" {
		runtime.MemProfileRate = 16 * 1024 // finer grain: the run is short and alloc sites matter
	}
	rep, err := drive(cfg, nodes, stdout)
	if err != nil {
		return err
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "allocation profile written to %s\n", *memprofile)
	}
	if *overhead {
		od := engineOverhead()
		rep.EngineOverhead = &od
		fmt.Fprintf(stdout, "engine overhead: %.0f ns/op uninstrumented, %.0f ns/op instrumented (%+.1f%%)\n",
			od.UninstrumentedNS, od.InstrumentedNS, od.OverheadPct)
	}
	if base != nil {
		bd := &baselineDoc{
			Path:           *baseline,
			Conns:          base.Config.Conns,
			Rate:           base.Config.Rate,
			ThroughputOpsS: base.ThroughputOpsS,
			P50Us:          base.Latency.P50,
			P99Us:          base.Latency.P99,
		}
		if base.Heap != nil {
			bd.AllocsPerOp = base.Heap.AllocsPerOp
		}
		rep.Baseline = bd
	}
	if *out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", *out)
	}
	if base != nil {
		printDelta(stdout, rep, base, *baseline)
	}
	if rep.LostAcked > 0 {
		return fmt.Errorf("kill smoke: %d of %d acked keys lost after crashing node %d", rep.LostAcked, rep.AckedKeys, cfg.KillNode)
	}
	if cfg.TraceCheck {
		switch {
		case rep.Trace == nil || rep.Trace.MultiNodeGroups == 0:
			return fmt.Errorf("trace smoke: no trace stitched across nodes (lower --trace-sample or raise --duration)")
		case !rep.Trace.StageOrderOK:
			return fmt.Errorf("trace smoke: %d stage problems, first: %s", len(rep.Trace.Problems), rep.Trace.Problems[0])
		}
	}
	return nil
}

// maxConns bounds --conns: beyond this the driver itself (goroutines,
// FDs, scheduler pressure) becomes the bottleneck being measured.
const maxConns = 65536

// checkFDBudget refuses a run whose connection count cannot fit the
// process's file-descriptor limit. A cluster client may hold one
// connection per node; with --spawn the server side of every connection
// lives in this process too.
func checkFDBudget(conns, nodes int, spawned bool) error {
	limit, ok := fdLimit()
	if !ok {
		return nil // no rlimit on this platform; let the OS complain
	}
	need := uint64(conns) * uint64(nodes)
	if spawned {
		need *= 2
	}
	need += 64 // listeners, archives, stats sweep, stdio slack
	if need > limit {
		return fmt.Errorf("--conns %d needs ~%d file descriptors but the limit is %d (raise ulimit -n or lower --conns)",
			conns, need, limit)
	}
	return nil
}

// loadBaseline parses a prior report file (e.g. the checked-in BENCH of
// the previous PR).
func loadBaseline(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	base := new(report)
	if err := json.Unmarshal(buf, base); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return base, nil
}

// printDelta renders the headline before/after movement against the
// baseline report.
func printDelta(w io.Writer, rep, base *report, path string) {
	pct := func(now, was float64) string {
		if was == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", 100*(now-was)/was)
	}
	fmt.Fprintf(w, "delta vs %s (conns %d -> %d):\n", path, base.Config.Conns, rep.Config.Conns)
	fmt.Fprintf(w, "  throughput: %.0f -> %.0f ops/s (%s)\n",
		base.ThroughputOpsS, rep.ThroughputOpsS, pct(rep.ThroughputOpsS, base.ThroughputOpsS))
	fmt.Fprintf(w, "  p50: %.0f -> %.0f us (%s)   p99: %.0f -> %.0f us (%s)\n",
		base.Latency.P50, rep.Latency.P50, pct(rep.Latency.P50, base.Latency.P50),
		base.Latency.P99, rep.Latency.P99, pct(rep.Latency.P99, base.Latency.P99))
	switch {
	case base.Heap != nil && rep.Heap != nil:
		fmt.Fprintf(w, "  allocs/op: %.1f -> %.1f (%s)   gc pauses: %.1f -> %.1f ms\n",
			base.Heap.AllocsPerOp, rep.Heap.AllocsPerOp, pct(rep.Heap.AllocsPerOp, base.Heap.AllocsPerOp),
			base.Heap.GCPauseTotalMs, rep.Heap.GCPauseTotalMs)
	case rep.Heap != nil:
		fmt.Fprintf(w, "  allocs/op: n/a -> %.1f (baseline predates heap accounting)\n", rep.Heap.AllocsPerOp)
	}
}

// ackedKey names one write the cluster acknowledged, for the post-kill
// audit: the promoted survivor must still hold every one of them.
type ackedKey struct {
	rel string
	key int
}

// drive runs the workload and assembles the report. nodes is non-nil
// only with --spawn; it is what --kill-node crashes.
func drive(cfg loadConfig, nodes []*funcdb.ClusterNode, stdout io.Writer) (*report, error) {
	var (
		lat, readLat, writeLat metrics.Histogram
		reads, writes, errs    metrics.Counter
	)
	// Shared open-loop scheduler: ONE arrival timeline at --rate, with
	// every connection claiming the next unclaimed slot atomically. At
	// thousands of connections this is what keeps the offered load exact —
	// per-connection pacing would need each conn to hold its own interval
	// (rate/conns can round to zero), and a stalled connection would
	// silently drop its share of the schedule. Here a slow connection just
	// claims fewer slots while the rest keep the timeline full, and its
	// latency is still measured from the slot's scheduled time.
	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(time.Second) / float64(cfg.Rate))
	}
	var sched atomic.Int64

	// Dial every connection BEFORE the timeline starts: at thousands of
	// connections the dial ramp takes real time, and counting it against
	// the schedule would charge connection setup to statement latency.
	clients := make([]*client.ClusterClient, cfg.Conns)
	// Prepared mode: one find and one insert handle per (connection,
	// relation), built and parsed during the dial ramp — handle setup is
	// one-time cost like the dials, not per-statement work, so it happens
	// before the heap baseline and the timeline start.
	var findStmts, insStmts []map[string]*client.ClusterStmt
	if cfg.Prepared {
		findStmts = make([]map[string]*client.ClusterStmt, cfg.Conns)
		insStmts = make([]map[string]*client.ClusterStmt, cfg.Conns)
	}
	var dialWG sync.WaitGroup
	dialFailed := make(chan error, cfg.Conns)
	// With failover on, clients ride through the promotion window: retry
	// with re-resolved placement for up to half the run rather than
	// surfacing the first fenced/dead-connection error.
	retryOpt := func(w int, opts []client.ClusterOption) []client.ClusterOption {
		if cfg.Failover {
			opts = append(opts, client.WithFailoverRetry(cfg.Duration/2+time.Second))
		}
		// Connection-level sampling: trace one connection in
		// --trace-sample, every request on it sampled. Per-request
		// counters would never fire at high conn counts where each
		// connection issues only a handful of requests.
		if cfg.Trace && w%cfg.TraceSample == 0 {
			opts = append(opts, client.WithClusterTracing(funcdb.TracingConfig{SampleEvery: 1}))
		}
		return opts
	}
	for w := 0; w < cfg.Conns; w++ {
		dialWG.Add(1)
		go func(w int) {
			defer dialWG.Done()
			cl, err := client.DialCluster(cfg.Addrs,
				retryOpt(w, []client.ClusterOption{client.WithClusterOrigin(fmt.Sprintf("load%d", w))})...)
			if err != nil {
				dialFailed <- err
				return
			}
			clients[w] = cl
			if cfg.Prepared {
				findStmts[w] = make(map[string]*client.ClusterStmt, len(cfg.Relations))
				insStmts[w] = make(map[string]*client.ClusterStmt, len(cfg.Relations))
				for _, rel := range cfg.Relations {
					f, i := cl.Prepare("find ? in "+rel), cl.Prepare("insert (?, ?) into "+rel)
					if _, err := f.NumParams(); err != nil { // parse now, not on the timeline
						dialFailed <- err
						return
					}
					if _, err := i.NumParams(); err != nil {
						dialFailed <- err
						return
					}
					findStmts[w][rel], insStmts[w][rel] = f, i
				}
			}
		}(w)
	}
	dialWG.Wait()
	close(dialFailed)
	if err := <-dialFailed; err != nil {
		for _, cl := range clients {
			if cl != nil {
				cl.Close()
			}
		}
		return nil, err
	}

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	goroutinePeak := runtime.NumGoroutine()
	peakDone := make(chan struct{})
	var peakWG sync.WaitGroup
	peakWG.Add(1)
	go func() {
		defer peakWG.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-peakDone:
				return
			case <-tick.C:
				if n := runtime.NumGoroutine(); n > goroutinePeak {
					goroutinePeak = n
				}
			}
		}
	}()

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	trackAcked := cfg.KillNode >= 0
	var acked sync.Map // ackedKey -> struct{}
	if trackAcked && nodes != nil {
		killTimer := time.AfterFunc(cfg.KillAfter, func() {
			nodes[cfg.KillNode].Kill()
			fmt.Fprintf(stdout, "crashed node %d (%s) %v into the run\n",
				cfg.KillNode, cfg.Addrs[cfg.KillNode], cfg.KillAfter.Round(time.Millisecond))
		})
		defer killTimer.Stop()
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := clients[w]
			defer cl.Close()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Keys-1))
			// Prepared mode: the handles were built and parsed during the
			// dial ramp; the write value is a precomputed per-worker tag —
			// the hot loop formats no strings and parses nothing.
			var findStmt, insStmt map[string]*client.ClusterStmt
			var wTag funcdb.Item
			if cfg.Prepared {
				findStmt, insStmt = findStmts[w], insStmts[w]
				wTag = value.Str(fmt.Sprintf("w%d", w))
			}
			for {
				var next time.Time
				if interval > 0 {
					// Claim the next arrival slot on the shared timeline.
					slot := sched.Add(1) - 1
					next = start.Add(time.Duration(slot) * interval)
					if next.After(deadline) {
						return
					}
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
				} else {
					next = time.Now()
					if next.After(deadline) {
						return
					}
				}
				key := int(zipf.Uint64())
				rel := cfg.Relations[key%len(cfg.Relations)]
				isRead := rng.Intn(100) < cfg.ReadPct
				var resp funcdb.Response
				var err error
				if cfg.Prepared {
					if isRead {
						resp, err = findStmt[rel].Exec(value.Int(int64(key)))
					} else {
						resp, err = insStmt[rel].Exec(value.Int(int64(key)), wTag)
					}
				} else if isRead {
					resp, err = cl.Exec(fmt.Sprintf("find %d in %s", key, rel))
				} else {
					resp, err = cl.Exec(fmt.Sprintf("insert (%d, \"w%d\") into %s", key, w, rel))
				}
				// Latency from the SCHEDULED arrival: queueing counts.
				d := time.Since(next)
				if err != nil || resp.Err != nil {
					errs.Inc()
				} else {
					lat.Observe(d.Nanoseconds())
					if isRead {
						reads.Inc()
						readLat.Observe(d.Nanoseconds())
					} else {
						writes.Inc()
						writeLat.Observe(d.Nanoseconds())
						if trackAcked {
							acked.Store(ackedKey{rel, key}, struct{}{})
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(peakDone)
	peakWG.Wait()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	rep := &report{
		Bench: "fdbload", Config: cfg, ElapsedS: elapsed.Seconds(),
		Reads: reads.Load(), Writes: writes.Load(), Errors: errs.Load(),
	}
	rep.Ops = rep.Reads + rep.Writes
	rep.ThroughputOpsS = float64(rep.Ops) / elapsed.Seconds()
	heap := &heapDoc{
		HeapAllocBytes:  ms1.HeapAlloc,
		TotalAllocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		Mallocs:         ms1.Mallocs - ms0.Mallocs,
		NumGC:           ms1.NumGC - ms0.NumGC,
		GCPauseTotalMs:  float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		GoroutinesPeak:  goroutinePeak,
	}
	if rep.Ops > 0 {
		heap.AllocsPerOp = float64(heap.Mallocs) / float64(rep.Ops)
	}
	rep.Heap = heap
	rep.Latency = toLatencyDoc(lat.Snapshot())
	rep.ReadLatency = toLatencyDoc(readLat.Snapshot())
	rep.WriteLatency = toLatencyDoc(writeLat.Snapshot())

	// One stats sweep across the cluster: per-node state and the worst
	// replication lag (node i's version minus any peer's applied mirror
	// of i). Failures here degrade the report, not the run.
	statsCl, err := client.DialCluster(cfg.Addrs, client.WithClusterOrigin("load-stats"))
	if err == nil {
		snaps, _ := statsCl.StatsAll()
		versions := map[int]int64{}
		for i, addr := range cfg.Addrs {
			snap, ok := snaps[addr]
			if !ok {
				continue
			}
			versions[i] = snap.Version
			nd := nodeDoc{
				Addr: addr, Version: snap.Version,
				Admitted: snap.Engine.Admitted, Reads: snap.Engine.Reads,
			}
			if snap.Server != nil {
				nd.Forwards = snap.Server.Forwards
			}
			if snap.Runtime != nil {
				nd.HeapAllocBytes = snap.Runtime.HeapAllocBytes
				nd.NumGC = snap.Runtime.NumGC
				nd.GCPauseMs = float64(snap.Runtime.GCPauseTotalNs) / 1e6
				nd.Goroutines = snap.Runtime.Goroutines
			}
			rep.Nodes = append(rep.Nodes, nd)
		}
		for _, snap := range snaps {
			for _, peer := range snap.Peers {
				if v, ok := versions[peer.Peer]; ok && peer.ReplicaApplied >= 0 {
					if lag := v - peer.ReplicaApplied; lag > rep.ReplicationLagMax {
						rep.ReplicationLagMax = lag
					}
				}
			}
		}
		// With failover on, the snapshot carries liveness: how stale each
		// peer's last heartbeat is and how far its applied seq lags.
		if cfg.Failover {
			for _, addr := range cfg.Addrs {
				snap, ok := snaps[addr]
				if !ok {
					continue
				}
				for _, peer := range snap.Peers {
					if peer.HeartbeatAgeMs >= 0 {
						fmt.Fprintf(stdout, "  %s -> peer %d: heartbeat %.0fms ago, applied lag %d\n",
							addr, peer.Peer, peer.HeartbeatAgeMs, peer.AppliedLag)
					}
				}
			}
		}
		statsCl.Close()
	}

	if trackAcked {
		rep.LostAcked, rep.AckedKeys = auditAcked(cfg, &acked, stdout)
	}

	fmt.Fprintf(stdout, "%d ops in %v (%.0f ops/s): %d reads, %d writes, %d errors\n",
		rep.Ops, elapsed.Round(time.Millisecond), rep.ThroughputOpsS,
		rep.Reads, rep.Writes, rep.Errors)
	fmt.Fprintf(stdout, "latency: p50 %.0fµs  p90 %.0fµs  p99 %.0fµs  p99.9 %.0fµs  mean %.0fµs\n",
		rep.Latency.P50, rep.Latency.P90, rep.Latency.P99, rep.Latency.P999, rep.Latency.Mean)
	fmt.Fprintf(stdout, "heap: %.1f allocs/op, %d GCs (%.1f ms paused), %d goroutines peak\n",
		heap.AllocsPerOp, heap.NumGC, heap.GCPauseTotalMs, heap.GoroutinesPeak)
	printHistogram(stdout, lat.Snapshot())
	if rep.ReplicationLagMax > 0 || len(rep.Nodes) > 1 {
		fmt.Fprintf(stdout, "replication lag (max): %d commits\n", rep.ReplicationLagMax)
	}
	if cfg.Trace {
		rep.Trace = collectTraces(cfg, clients, stdout)
	}
	return rep, nil
}

// collectTraces gathers the run's traces from both sides — the driver's
// own cluster-client recorders and every node's published ring (over the
// wire Introspect frame) — stitches them by id, prints exemplar ids next to
// the histogram's latency buckets and the slowest stitched timelines,
// and verifies stage completeness and causal order.
func collectTraces(cfg loadConfig, clients []*client.ClusterClient, stdout io.Writer) *traceDoc {
	var all []funcdb.RequestTrace
	doc := &traceDoc{}
	for _, cl := range clients {
		if cl == nil {
			continue
		}
		ts := cl.LocalTraces()
		doc.ClientSampled += len(ts)
		all = append(all, ts...)
	}
	if tcl, err := client.DialCluster(cfg.Addrs, client.WithClusterOrigin("load-trace")); err == nil {
		ts, errs := tcl.TracesAll()
		for addr, err := range errs {
			fmt.Fprintf(stdout, "trace sweep: %s: %v\n", addr, err)
		}
		doc.ServerPublished = len(ts)
		all = append(all, ts...)
		tcl.Close()
	} else {
		fmt.Fprintf(stdout, "trace sweep could not dial: %v\n", err)
	}

	groups := reqtrace.Stitch(all)
	doc.Groups = len(groups)
	for _, g := range groups {
		if countNodes(g) > 1 {
			doc.MultiNodeGroups++
		}
	}
	doc.Problems = checkStageOrder(groups)
	doc.StageOrderOK = len(doc.Problems) == 0

	// Only multi-node groups are worth a timeline: a client fragment whose
	// server half was evicted from a node's ring tells no story.
	stitched := groups[:0:0]
	for _, g := range groups {
		if countNodes(g) > 1 {
			stitched = append(stitched, g)
		}
	}
	sort.SliceStable(stitched, func(i, j int) bool {
		return groupTotal(stitched[i]) > groupTotal(stitched[j])
	})

	fmt.Fprintf(stdout, "traces: %d sampled client-side, %d published by nodes, %d stitched across nodes\n",
		doc.ClientSampled, doc.ServerPublished, doc.MultiNodeGroups)
	printTraceExemplars(stdout, stitched)
	const slowest = 3
	for i, g := range stitched {
		if i >= slowest {
			break
		}
		doc.Slowest = append(doc.Slowest, traceSummary{
			ID:      g[0].ID,
			TotalUs: float64(groupTotal(g)) / 1e3,
			Nodes:   countNodes(g),
			Spans:   countSpans(g),
		})
		if i == 0 {
			fmt.Fprintf(stdout, "slowest stitched traces:\n")
		}
		var b strings.Builder
		reqtrace.RenderGroup(&b, g)
		fmt.Fprint(stdout, b.String())
	}
	if !doc.StageOrderOK {
		fmt.Fprintf(stdout, "trace stage check: %d problems, first: %s\n", len(doc.Problems), doc.Problems[0])
	} else if doc.MultiNodeGroups > 0 {
		fmt.Fprintf(stdout, "trace stage check: ok (%d stitched traces, stages present and in causal order)\n", doc.MultiNodeGroups)
	}
	return doc
}

// countNodes returns the number of distinct nodes in a stitched group.
func countNodes(g []funcdb.RequestTrace) int {
	seen := map[string]bool{}
	for _, t := range g {
		seen[t.Node] = true
	}
	return len(seen)
}

func countSpans(g []funcdb.RequestTrace) (n int) {
	for _, t := range g {
		n += len(t.Spans)
	}
	return n
}

// groupTotal is the group's client-observed total: the hop-0 fragment's
// wall time, or the longest fragment when the client half is missing.
func groupTotal(g []funcdb.RequestTrace) int64 {
	var max int64
	for _, t := range g {
		if t.Hop == 0 {
			return t.Total
		}
		if t.Total > max {
			max = t.Total
		}
	}
	return max
}

// printTraceExemplars prints one trace id next to each latency bucket of
// the histogram above it — the slowest stitched trace whose total falls
// in that bucket — so a bucket's tail has a concrete request to open.
func printTraceExemplars(w io.Writer, stitched [][]funcdb.RequestTrace) {
	// Same bucketing as metrics.Histogram: bucket b >= 1 holds
	// [2^(b-1), 2^b - 1] nanoseconds.
	type exemplar struct {
		id    string
		total int64
	}
	byBucket := map[int]exemplar{}
	for _, g := range stitched {
		total := groupTotal(g)
		if total <= 0 {
			continue
		}
		b := bits.Len64(uint64(total))
		if total > byBucket[b].total {
			byBucket[b] = exemplar{id: g[0].ID, total: total}
		}
	}
	if len(byBucket) == 0 {
		return
	}
	buckets := make([]int, 0, len(byBucket))
	for b := range byBucket {
		buckets = append(buckets, b)
	}
	sort.Ints(buckets)
	fmt.Fprintf(w, "trace exemplars by latency bucket:\n")
	for _, b := range buckets {
		ex := byBucket[b]
		lo := time.Duration(int64(1) << uint(b-1))
		fmt.Fprintf(w, "  %10v  trace %s (%v)\n", lo, ex.id, time.Duration(ex.total).Round(time.Microsecond))
	}
}

// requestBackbone is the span sequence every request-path server
// fragment records, in causal order.
var requestBackbone = []string{"conn-read", "decode", "encode", "flush"}

// checkStageOrder verifies the stitched groups against the tracing
// pipeline's invariants — the substance behind --trace-check. A hop
// missing from a group is NOT a problem (both sides keep bounded rings,
// so one side's fragment can outlive the other's); what is checked is
// every fragment that IS present:
//
//   - no span runs backwards (negative duration);
//   - a driver fragment (node "client:*") carries client-send;
//   - a request-path server fragment carries conn-read and decode, and
//     whatever backbone stages it has appear in causal order;
//   - fragments of consecutive hops present in one group start in hop
//     order (wall clocks — meaningful on the one-process --spawn smoke);
//   - at least one group stitches a driver fragment to a server fragment
//     with the full conn-read → decode → encode → flush backbone, and at
//     least one trace reaches replica-apply: the full pipeline, observed
//     end to end at least once per run.
func checkStageOrder(groups [][]funcdb.RequestTrace) (problems []string) {
	addProblem := func(format string, args ...any) {
		if len(problems) < 16 { // enough to diagnose, bounded in the report
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	spanStart := func(t funcdb.RequestTrace, stage string) (int64, bool) {
		for _, s := range t.Spans {
			if s.Stage == stage {
				return s.Start, true
			}
		}
		return 0, false
	}
	fullPath, applySeen := false, false
	for _, g := range groups {
		id := g[0].ID
		hasDriver, hasFullServer := false, false
		for _, t := range g {
			for _, s := range t.Spans {
				if s.Dur < 0 {
					addProblem("trace %s: %s span on %s has negative duration", id, s.Stage, t.Node)
				}
			}
			if strings.HasPrefix(t.Node, "client:") {
				hasDriver = true
				if _, ok := spanStart(t, "client-send"); !ok {
					addProblem("trace %s: driver fragment (%s) missing client-send", id, t.Node)
				}
				continue
			}
			if _, apply := spanStart(t, "replica-apply"); apply {
				applySeen = true
				continue
			}
			// A request-path server fragment: conn-read and decode are
			// recorded the instant the frame is read, so their absence is an
			// instrumentation regression; later backbone stages may be
			// legitimately absent (a redirect reply), but the ones present
			// must be causally ordered.
			last, complete := int64(0), true
			for _, stage := range requestBackbone {
				start, ok := spanStart(t, stage)
				if !ok {
					complete = false
					if stage == "conn-read" || stage == "decode" {
						addProblem("trace %s: hop %d (%s) missing %s", id, t.Hop, t.Node, stage)
					}
					continue
				}
				if start < last {
					addProblem("trace %s: hop %d (%s) has %s before its predecessor", id, t.Hop, t.Node, stage)
				}
				last = start
			}
			if complete {
				hasFullServer = true
			}
		}
		if hasDriver && hasFullServer {
			fullPath = true
		}
		// Causality across the hops present: a later hop cannot start
		// before the earliest span of the hop that caused it. conn-read is
		// excluded — it is a WAITING span that begins when the server blocks
		// on the socket, before the previous hop has sent anything.
		earliest := map[int]int64{}
		for _, t := range g {
			for _, s := range t.Spans {
				if s.Stage == "conn-read" {
					continue
				}
				if cur, ok := earliest[t.Hop]; !ok || s.Start < cur {
					earliest[t.Hop] = s.Start
				}
			}
		}
		for h := range earliest {
			if prev, ok := earliest[h-1]; ok && earliest[h] < prev {
				addProblem("trace %s: hop %d starts before hop %d", id, h, h-1)
			}
		}
	}
	if !fullPath {
		addProblem("no stitched trace carries the full client → server backbone")
	}
	if !applySeen {
		addProblem("no trace reaches replica-apply")
	}
	return problems
}

// auditAcked re-reads every acknowledged write against the survivors:
// with the crashed node fenced out, the promoted mirror must serve each
// acked key — an acked insert that cannot be found again was lost.
func auditAcked(cfg loadConfig, acked *sync.Map, stdout io.Writer) (lost, total int64) {
	cl, err := client.DialCluster(cfg.Addrs,
		client.WithClusterOrigin("load-audit"),
		client.WithFailoverRetry(10*time.Second))
	if err != nil {
		fmt.Fprintf(stdout, "acked-write audit could not dial: %v\n", err)
		return 0, 0
	}
	defer cl.Close()
	acked.Range(func(k, _ any) bool {
		ak := k.(ackedKey)
		total++
		resp, err := cl.Exec(fmt.Sprintf("find %d in %s", ak.key, ak.rel))
		if err != nil || resp.Err != nil || !resp.Found {
			lost++
		}
		return true
	})
	fmt.Fprintf(stdout, "acked-write audit: %d keys acked, %d lost\n", total, lost)
	return lost, total
}

// toLatencyDoc converts a nanosecond histogram into microsecond quantiles.
func toLatencyDoc(h metrics.HistogramSnapshot) latencyDoc {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	return latencyDoc{
		Count: h.Count,
		P50:   us(h.Quantile(0.50)),
		P90:   us(h.Quantile(0.90)),
		P99:   us(h.P99),
		P999:  us(h.P999),
		Mean:  us(int64(h.Mean())),
	}
}

// printHistogram renders the power-of-two latency buckets as a bar chart.
func printHistogram(w io.Writer, h metrics.HistogramSnapshot) {
	if h.Count == 0 {
		return
	}
	var max int64
	for _, n := range h.Buckets {
		if n > max {
			max = n
		}
	}
	for b, n := range h.Buckets {
		if n == 0 {
			continue
		}
		lo := time.Duration(0)
		if b > 0 {
			lo = time.Duration(int64(1) << uint(b-1))
		}
		bar := strings.Repeat("#", int(40*n/max))
		fmt.Fprintf(w, "  %10v %8d %s\n", lo, n, bar)
	}
}

// spawnCluster boots n cluster nodes on loopback: every port bound first,
// the address list shared, then the nodes opened over the bound
// listeners. Archives live in a temp directory the shutdown removes.
// With failover the nodes heartbeat at 100ms (lease 400ms) and the boot
// probation is waited out, so the first statement already has a settled
// ownership view.
func spawnCluster(n int, rels []string, failover bool, tracing *funcdb.TracingConfig) (addrs []string, nodes []*funcdb.ClusterNode, shutdown func(), err error) {
	dir, err := os.MkdirTemp("", "fdbload")
	if err != nil {
		return nil, nil, nil, err
	}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			os.RemoveAll(dir)
			return nil, nil, nil, err
		}
		lns[i] = ln
		addrs = append(addrs, ln.Addr().String())
	}
	stop := func() {
		for _, node := range nodes {
			node.Shutdown()
		}
		os.RemoveAll(dir)
	}
	for i := 0; i < n; i++ {
		ncfg := funcdb.ClusterNodeConfig{
			ID: i, Nodes: addrs, Listener: lns[i],
			Dir:       filepath.Join(dir, fmt.Sprintf("n%d", i)),
			Relations: rels,
			Durability: []funcdb.DurabilityOption{
				funcdb.GroupCommit(2 * time.Millisecond),
			},
			Tracing: tracing,
		}
		if failover {
			ncfg.Failover = &cluster.FailoverConfig{Heartbeat: 100 * time.Millisecond}
		}
		node, err := funcdb.OpenClusterNode(ncfg)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			stop()
			return nil, nil, nil, err
		}
		nodes = append(nodes, node)
		go node.Serve()
	}
	if failover {
		for _, node := range nodes {
			if err := node.WaitReady(5 * time.Second); err != nil {
				stop()
				return nil, nil, nil, err
			}
		}
	}
	return addrs, nodes, stop, nil
}

// engineOverhead times the single-lane admission hot path with and
// without metrics, interleaved min-of-three so machine noise hits both
// sides: the observability layer's cost on the paper's core loop.
func engineOverhead() overheadDoc {
	const ops = 30000
	measure := func(opts ...core.EngineOption) float64 {
		e := core.NewEngine(database.New(relation.RepAVL, "R"), opts...)
		start := time.Now()
		for i := 0; i < ops; i++ {
			tx := core.Insert("R", value.NewTuple(value.Int(int64(i)), value.Str("v")))
			tx.Origin, tx.Seq = "bench", i
			e.Submit(tx)
		}
		e.Barrier()
		return float64(time.Since(start).Nanoseconds()) / ops
	}
	plain, inst := math.MaxFloat64, math.MaxFloat64
	for round := 0; round < 3; round++ {
		if v := measure(); v < plain {
			plain = v
		}
		var m metrics.Engine
		if v := measure(core.WithEngineMetrics(&m)); v < inst {
			inst = v
		}
	}
	return overheadDoc{
		UninstrumentedNS: plain,
		InstrumentedNS:   inst,
		OverheadPct:      100 * (inst - plain) / plain,
	}
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
