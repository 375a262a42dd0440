package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"funcdb"
)

// The traced run. The program's own request tracing (internal/reqtrace) is
// switched on through its public options — funcdb.WithTracing,
// client.WithTracing / WithClusterTracing, ClusterNodeConfig.Tracing — and
// left as it is. The benchmark adds one span of its own around every client
// call, the root, polls the recorders' rings while the window runs so that
// nothing sampled is evicted unseen, keeps everything in memory, and writes
// out/trace-<workload>.json at the end. End-to-end numbers never come from
// here; the difference between this run's median and the untraced one's is
// the tracing overhead.

// traceRing is the ring size asked of every recorder; with the sampling
// rates below a ring fills in several seconds and is polled four times a
// second.
const traceRing = 4096

func tracingConfig(wl *workload) *funcdb.TracingConfig {
	// The slow-request reservoir is off: it would publish unsampled requests
	// that have no root span.
	return &funcdb.TracingConfig{SampleEvery: wl.sampleEvery, SlowThreshold: -1, Ring: traceRing}
}

// fragKey identifies one node's fragment of one trace.
type fragKey struct {
	id, node string
	hop      int
}

// collector polls a traced target and keeps the newest copy of every
// fragment (a fragment can still gain spans after it is published: the
// group-commit span lands when the batch is flushed).
type collector struct {
	src   traceSource
	mu    sync.Mutex
	frags map[fragKey]funcdb.RequestTrace
	stop  chan struct{}
	done  sync.WaitGroup
}

func startCollector(src traceSource) *collector {
	c := &collector{src: src, frags: map[fragKey]funcdb.RequestTrace{}, stop: make(chan struct{})}
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.poll()
			}
		}
	}()
	return c
}

func (c *collector) poll() {
	ts := c.src.traces()
	c.mu.Lock()
	for _, t := range ts {
		c.frags[fragKey{t.ID, t.Node, t.Hop}] = t
	}
	c.mu.Unlock()
}

// finish stops polling, waits for late spans to land, polls once more and
// returns the fragments grouped by trace id.
func (c *collector) finish() map[string][]funcdb.RequestTrace {
	close(c.stop)
	c.done.Wait()
	time.Sleep(20 * time.Millisecond) // a group-commit window is 2 ms
	c.poll()
	groups := map[string][]funcdb.RequestTrace{}
	for k, t := range c.frags {
		groups[k.id] = append(groups[k.id], t)
	}
	return groups
}

// tracedTrace is one request as written to the trace file: the benchmark's
// root span and every fragment the program recorded under the same id.
type tracedTrace struct {
	ID        string                `json:"id"`
	RootStart int64                 `json:"root_start_unix_ns"`
	RootDur   int64                 `json:"root_dur_ns"`
	Read      bool                  `json:"read"`
	SelfNS    map[string]int64      `json:"self_ns"`  // per stage, inside the root
	AsyncNS   map[string]int64      `json:"async_ns"` // stages that outlive the root
	Fragments []funcdb.RequestTrace `json:"fragments"`
}

const clientNodePrefix = "client:bench-w"

// stitch pairs roots with fragments. In-process roots carry their trace id;
// a network root is matched to the client fragment of the same worker whose
// start it brackets (the client starts its trace inside the call the root
// surrounds, and one worker's calls start in order).
func stitch(roots []rootSpan, groups map[string][]funcdb.RequestTrace) (traces []tracedTrace, sampled int) {
	byWorker := map[int][]rootSpan{}
	byID := map[string]rootSpan{}
	since := int64(1<<63 - 1) // the first root's start: the window's
	for _, r := range roots {
		if r.start < since {
			since = r.start
		}
		if r.id != 0 {
			byID[fmt.Sprintf("%016x", r.id)] = r
		} else {
			byWorker[r.worker] = append(byWorker[r.worker], r)
		}
	}
	for _, rs := range byWorker {
		sort.Slice(rs, func(i, j int) bool { return rs[i].start < rs[j].start })
	}
	sampled = len(byID)
	for id, frags := range groups {
		root, ok := byID[id]
		server := false
		for _, f := range frags {
			if f.Start < since {
				continue // the warm-up's
			}
			if !strings.HasPrefix(f.Node, clientNodePrefix) {
				if f.Hop >= 0 && len(f.Spans) > 0 {
					server = true
				}
				continue
			}
			sampled++
			w, err := strconv.Atoi(f.Node[len(clientNodePrefix):])
			if err != nil {
				continue
			}
			rs := byWorker[w]
			// The last root that started at or before the fragment did.
			i := sort.Search(len(rs), func(i int) bool { return rs[i].start > f.Start }) - 1
			if i >= 0 && f.Start+f.Total <= rs[i].end+int64(time.Millisecond) {
				root, ok = rs[i], true
			}
		}
		if !ok || (root.id == 0 && !server) {
			continue // no root, or the server's half never arrived
		}
		tt := tracedTrace{ID: id, RootStart: root.start, RootDur: root.end - root.start, Read: root.read, Fragments: frags}
		tt.SelfNS, tt.AsyncNS = attribute(root, frags)
		traces = append(traces, tt)
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].RootStart < traces[j].RootStart })
	return traces, sampled
}

// attribute splits the root's interval among the stages. A stage's self time
// is its span minus what its children cover; the catalogue does not name
// parents, so the innermost span active at an instant — the one that started
// last — owns it. A span that began before the root (conn-read waits for the
// request before it is sent) is clipped to it. A span that outlives the root
// is asynchronous to the request (replica apply, a group commit nobody waits
// for): it is reported by its full length and takes no part in the split.
func attribute(root rootSpan, frags []funcdb.RequestTrace) (self, async map[string]int64) {
	type iv struct {
		stage      string
		start, end int64
	}
	self, async = map[string]int64{}, map[string]int64{}
	var ivs []iv
	for _, f := range frags {
		for _, s := range f.Spans {
			start, end := s.Start, s.Start+s.Dur
			if end > root.end || start >= root.end {
				async[s.Stage] += s.Dur
				continue
			}
			if start < root.start {
				start = root.start
			}
			if end > start {
				ivs = append(ivs, iv{s.Stage, start, end})
			}
		}
	}
	// Sweep over the distinct boundaries; between two neighbours the set of
	// active spans is constant.
	var cuts []int64
	for _, v := range ivs {
		cuts = append(cuts, v.start, v.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi == lo {
			continue
		}
		best := -1
		for j, v := range ivs {
			if v.start <= lo && v.end >= hi && (best < 0 || v.start > ivs[best].start ||
				(v.start == ivs[best].start && v.end < ivs[best].end)) {
				best = j
			}
		}
		if best >= 0 {
			self[ivs[best].stage] += hi - lo
		}
	}
	return self, async
}

// stageMetrics reduces the stitched traces to the per-layer metrics of
// source 3.
func stageMetrics(traces []tracedTrace, sampled int, tracedP50, untracedP50 float64) metrics {
	ms := metrics{}
	n := int64(len(traces))
	var rootSum, attributedSum float64
	per := map[string][]float64{}
	for _, tt := range traces {
		rootSum += float64(tt.RootDur)
		for _, st := range stageNames {
			v := tt.SelfNS[st]
			attributedSum += float64(v)
			per[st] = append(per[st], float64(v+tt.AsyncNS[st]))
		}
	}
	for _, st := range stageNames {
		vs := per[st]
		sort.Float64s(vs)
		var sum float64
		for _, v := range vs {
			sum += v
		}
		var p99 float64
		if len(vs) > 0 {
			p99 = vs[(len(vs)-1)*99/100]
		}
		ms.us("stage."+st+".mean_us", ratio(sum, float64(len(vs))), n)
		ms.us("stage."+st+".p99_us", p99, n)
	}
	ms.us("stage.unattributed.mean_us", ratio(rootSum-attributedSum, float64(n)), n)
	ms.putN("stage.sum_over_total", "ratio", ratio(attributedSum, rootSum), n)
	ms.putN("trace.complete_ratio", "ratio", ratio(float64(n), float64(sampled)), int64(sampled))
	ms.put("trace.overhead_pct", "%", 100*ratio(tracedP50-untracedP50, untracedP50))
	return ms
}

// tracedRun assembles wl with tracing on and re-runs the window the stage
// metrics describe: the mid-rate paced window of a network workload, d of the
// closed loop of an in-process one. untracedP50 is the same window's median
// (ns) from the untraced run.
func tracedRun(wl *workload, e *env, d time.Duration, scale, untracedP50 float64) (metrics, error) {
	te := *e
	te.tracing = tracingConfig(wl)
	sh, rates := scaled(wl.shape, wl.rates, scale)
	streams := make([]*stream, te.workers)
	for w := range streams {
		streams[w] = newStream(&sh, te.seed, w, te.workers)
	}
	t, err := wl.open(&te, &sh)
	if err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", wl.name, err)
	}
	defer t.close()
	src, ok := t.(traceSource)
	if !ok {
		return nil, fmt.Errorf("%s: target has no trace source", wl.name)
	}
	warm := d / 4
	if warm > time.Second {
		warm = time.Second
	}
	if rec, _ := closedLoop(t, streams, warm); rec.firstErr != nil {
		return nil, fmt.Errorf("%s: traced warm-up: %w", wl.name, rec.firstErr)
	}
	col := startCollector(src)
	var rec *recorder
	if wl.network() {
		rec = openLoop(t, streams, rates[1], d, true, nil).rec
	} else {
		rec, _ = closedLoop(t, streams, d)
	}
	groups := col.finish()
	if rec.firstErr != nil {
		return nil, fmt.Errorf("%s: traced run: %d operations failed, first: %w", wl.name, rec.failed, rec.firstErr)
	}
	traces, sampled := stitch(rec.roots, groups)
	if len(traces) == 0 {
		return nil, fmt.Errorf("%s: traced run stitched no trace out of %d sampled", wl.name, sampled)
	}
	if err := writeTraceFile(wl.name, traces); err != nil {
		return nil, err
	}
	return stageMetrics(traces, sampled, rec.all.quantile(0.5), untracedP50), nil
}

func traceFile(workload string) string {
	return filepath.Join("bench", "out", "trace-"+workload+".json")
}

func writeTraceFile(workload string, traces []tracedTrace) error {
	path := traceFile(workload)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeJSON(path, traces)
}

// cmdTrace runs, per workload, the untraced window and then the traced one,
// and prints the stage metrics.
func cmdTrace(args []string, stdout io.Writer) error {
	f, err := parseRunFlags("trace", args)
	if err != nil {
		return err
	}
	wls, err := f.selected()
	if err != nil {
		return err
	}
	var results []*result
	for _, wl := range wls {
		e, cleanup, err := newEnv(f.seed)
		if err != nil {
			return err
		}
		out, err := tracedPair(wl, e, f.seconds, 1)
		cleanup()
		if err != nil {
			return err
		}
		res := newResult(wl, f, out)
		res.print(stdout)
		fmt.Fprintf(stdout, "  spans written to %s\n", traceFile(wl.name))
		results = append(results, res)
	}
	if f.out != "" {
		return writeJSON(f.out, results)
	}
	return nil
}

// tracedPair measures one window untraced and again traced: the mid-rate
// paced window of a network workload (0.6 of seconds), 0.8 of seconds of the
// closed loop of an in-process one.
func tracedPair(wl *workload, e *env, seconds, scale float64) (*outcome, error) {
	p := plan{setups: 1, warm: time.Second, scale: scale}
	d := time.Duration(0.8 * seconds * float64(time.Second))
	if wl.network() {
		d = time.Duration(0.6 * seconds * float64(time.Second))
		p.sat = time.Second
		p.paced[1] = d
	} else {
		p.sat = d
	}
	out, err := runWorkload(wl, e, p)
	if err != nil {
		return nil, err
	}
	ms, err := tracedRun(wl, e, d, scale, out.headlineP50())
	if err != nil {
		return nil, err
	}
	// Only the trace's own metrics: the untraced half was the yardstick.
	out.ms = ms
	return out, nil
}
