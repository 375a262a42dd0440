package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"funcdb"
)

// workload is one fixed set of inputs and the system assembled to take them.
type workload struct {
	name  string
	why   string
	shape shape
	open  func(e *env, sh *shape) (target, error)
	// Open-loop rates (low, mid, high) in ops/s and the latency limit a rate
	// must keep at p99 to count for rate_ok_ops_per_s. Zero for the
	// in-process workloads: a library caller waits for its reply, so those
	// are closed loops only.
	rates   [3]int
	limitUS float64
	// sampleEvery is the head-sampling rate of the traced run: one request
	// in this many, chosen so that every workload publishes some hundreds of
	// traces per second and no ring evicts between two polls.
	sampleEvery int
}

func (wl *workload) network() bool { return wl.rates[1] != 0 }

// The relation names are chosen so that the lane hash which places
// relations on cluster nodes puts exactly two of the first six on each of
// three nodes (set-up verifies it), and so that the eight spread evenly
// over the in-process engine's lanes.
var (
	netRels    = []string{"r0", "r1", "r2", "r3", "r5", "r7"}
	engineRels = []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"}
)

func workloads() []*workload {
	return []*workload{
		{
			name: "engine-point",
			why:  "prepared point reads and upserts on the in-process AVL engine; no wire, server, cluster or archive work: the control for network and durability changes",
			shape: shape{rels: engineRels, rows: 25000, mix: mix{find: 90, insert: 10},
				valueLen: 16, opsPer: 1 << 18},
			open: openEngine, sampleEvery: 1024,
		},
		{
			name: "durable-write",
			why:  "text writes that miss the statement cache into an fsynced group-commit archive, acked per barrier, then crash recovery: archive and parser dominate",
			shape: shape{rels: engineRels, rows: 2000, mix: mix{insert: 80},
				valueLen: 64, text: true, opsPer: 1 << 16},
			open: openDurable, sampleEvery: 64,
		},
		{
			name: "wire-text",
			why:  "text find/insert/range frames to one node over loopback: client, wire, server, session and parser, with no forward hop and no replication",
			shape: shape{rels: netRels, rows: 2000, mix: mix{find: 47, insert: 48, rng: 5},
				valueLen: 16, text: true, opsPer: 1 << 16},
			open:  openWire,
			rates: [3]int{2000, 4000, 6000}, limitUS: 20000, sampleEvery: 8,
		},
		{
			name: "cluster-prepared",
			why:  "prepared find/insert through cluster clients to three replicating nodes with the semi-sync ack gate, then a primary kill: routing, replication and failover",
			shape: shape{rels: netRels, rows: 2000, mix: mix{find: 50, insert: 50},
				valueLen: 16, opsPer: 1 << 17},
			open:  openCluster,
			rates: [3]int{1000, 2500, 4000}, limitUS: 50000, sampleEvery: 4,
		},
	}
}

func workloadByName(name string) *workload {
	for _, wl := range workloads() {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// plan is how long each phase of a run lasts. A zero duration skips the
// phase.
type plan struct {
	setups   int // how many times (at least) to assemble the system; setup_s is the median
	warm     time.Duration
	sat      time.Duration
	paced    [3]time.Duration // low, mid, high
	epilogue bool             // failover (cluster-prepared) and crash recovery (durable-write)
	tail     time.Duration    // failover epilogue: how long the low rate keeps running after the kill
	scale    float64          // shrinks sizes and rates; 1 except in the smoke test
}

// fullPlan is the whole shape of a run for a sat phase of s seconds: the
// paced windows last 0.25/0.85/0.25 of it (the mid window is the headline
// and needs its 20 000 samples).
func fullPlan(s float64) plan {
	d := func(f float64) time.Duration { return time.Duration(f * s * float64(time.Second)) }
	warm := d(0.15)
	if warm < 500*time.Millisecond {
		warm = 500 * time.Millisecond
	}
	return plan{setups: 3, warm: warm, sat: d(1), paced: [3]time.Duration{d(0.25), d(0.85), d(0.25)},
		epilogue: true, tail: 3 * time.Second, scale: 1}
}

// satPlan is the part of a run the bounded end-to-end metrics come from.
func satPlan(s float64) plan {
	p := fullPlan(s)
	p.paced = [3]time.Duration{}
	p.tail = 0
	return p
}

// outcome is everything one run of one workload produced.
type outcome struct {
	ms        metrics
	attempted int64
	failed    int64
	errs      []error // correctness, durability, lost-ack and generator failures
	mid       *window // the mid-rate window, for the traced run to compare with
	satP50NS  float64
}

// headlineP50 is the median (ns) of the window the traced run repeats: the
// mid-rate paced window when there was one, else the sat phase.
func (o *outcome) headlineP50() float64 {
	if o.mid != nil {
		return o.mid.rec.all.quantile(0.5)
	}
	return o.satP50NS
}

func (o *outcome) note(err error) {
	if err != nil {
		o.errs = append(o.errs, err)
	}
}

func (o *outcome) count(r *recorder, phase string) {
	o.attempted += r.ops
	o.failed += r.failed
	if r.firstErr != nil {
		o.note(fmt.Errorf("%s: %d of %d operations failed, first: %w", phase, r.failed, r.ops, r.firstErr))
	}
}

func scaled(sh shape, rates [3]int, f float64) (shape, [3]int) {
	if f == 1 {
		return sh, rates
	}
	sh.rows = int(float64(sh.rows) * f)
	if min := 2 * rangeSpan * runtime.GOMAXPROCS(0); sh.rows < min {
		sh.rows = min
	}
	sh.opsPer = int(float64(sh.opsPer) * f)
	for i := range rates {
		rates[i] = int(float64(rates[i]) * f)
	}
	return sh, rates
}

// runWorkload generates the inputs for seed, assembles the system, runs the
// plan's phases in order and checks every answer.
func runWorkload(wl *workload, e *env, p plan) (*outcome, error) {
	out := &outcome{ms: metrics{}}
	sh, rates := scaled(wl.shape, wl.rates, p.scale)
	streams := make([]*stream, e.workers)
	for w := range streams {
		streams[w] = newStream(&sh, e.seed, w, e.workers)
	}

	// Set-up: build, preload and dial until the system can take its first
	// timed operation. Repeated so that one slow start does not decide the
	// metric — a set-up of a few tens of milliseconds more often, up to a
	// second's worth; the last instance is the one measured.
	var t target
	var setups []float64
	var spent time.Duration
	for i := 0; i < p.setups || (p.setups > 1 && spent < time.Second && i < 5*p.setups); i++ {
		if t != nil {
			if err := t.close(); err != nil {
				return nil, fmt.Errorf("%s: close after set-up: %w", wl.name, err)
			}
		}
		start := time.Now()
		var err error
		if t, err = wl.open(e, &sh); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
	}
	defer func() {
		if t != nil {
			t.close()
		}
	}()
	out.ms.putN("setup_s", "s", median(setups), int64(len(setups)))

	if p.warm > 0 {
		rec, _ := closedLoop(t, streams, p.warm)
		out.count(rec, "warm-up")
	}

	// Saturation: closed loop, one request outstanding per worker.
	stopPeak := peakGoroutines()
	runtime.GC()
	var storedBefore int64
	dt, durable := t.(*durableTarget)
	if durable {
		storedBefore = dt.stored()
	}
	c0, u0 := sumSnapshots(t.snapshots()), readUsage()
	sat, elapsed := closedLoop(t, streams, p.sat)
	u1, c1 := readUsage(), sumSnapshots(t.snapshots())
	out.count(sat, "sat")
	if sat.ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed in the sat phase", wl.name)
	}
	ops := float64(sat.ops)
	out.satP50NS = sat.all.quantile(0.5)
	out.ms.putN("sat_ops_per_s", "ops/s", ops/elapsed.Seconds(), sat.ops)
	out.ms.us("sat_p50_us", out.satP50NS, sat.ops)
	out.ms.us("sat_p99_us", sat.all.quantile(0.99), sat.ops)
	out.ms.put("allocs_per_op", "allocs", float64(u1.mem.Mallocs-u0.mem.Mallocs)/ops)
	out.ms.put("cpu_us_per_op", "us", float64(u1.cpu-u0.cpu)/1e3/ops)
	out.ms.merge(layerCounters(c0, c1, sat.ops, u0, u1))
	// Twice: what a sync.Pool holds survives one collection in its victim
	// cache, and pooled buffers are not live data.
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	out.ms.put("heap_live_mb", "MB", float64(live.HeapAlloc)/(1<<20))
	if durable {
		out.ms.put("stored_bytes_per_user_byte", "ratio", ratio(float64(dt.stored()-storedBefore), float64(sat.userBytes)))
	}

	// Paced: open loop at the three fixed rates.
	if wl.network() {
		var wins [3]*window
		for i, d := range p.paced {
			if d <= 0 {
				continue
			}
			win := openLoop(t, streams, rates[i], d, false, nil)
			wins[i] = win
			out.count(win.rec, fmt.Sprintf("paced %d ops/s", rates[i]))
			if err := win.healthy(); err != nil {
				out.note(err)
			}
		}
		pacedMetrics(out, wins, wl.limitUS)
		out.mid = wins[1]
	}

	if p.epilogue {
		switch tt := t.(type) {
		case *clusterTarget:
			if p.tail > 0 {
				failoverEpilogue(out, tt, streams, rates[0], p.tail)
			}
		case *durableTarget:
			if err := crashRecovery(out, tt, streams, e); err != nil {
				return nil, fmt.Errorf("%s: %w", wl.name, err)
			}
		}
	}
	out.ms.put("runtime.goroutines_peak", "count", float64(stopPeak()))

	// Every key must hold what its worker last wrote.
	lost := sweep(t, streams, out)
	if lost > 0 {
		out.note(fmt.Errorf("%s: final read-back found %d keys lost or stale", wl.name, lost))
	}
	out.ms.put("failed_ratio", "ratio", ratio(float64(out.failed), float64(out.attempted)))

	err := t.close()
	t = nil
	if err != nil {
		return nil, fmt.Errorf("%s: close: %w", wl.name, err)
	}
	return out, nil
}

// pacedMetrics reports the three windows: the mid rate as the headline, the
// rest of the curve, the generator's own health, and the highest rate that
// kept the latency limit without falling behind.
func pacedMetrics(out *outcome, wins [3]*window, limitUS float64) {
	ms := out.ms
	var lag50, lag, achieved, backlog float64
	achieved = 1
	var rateOK float64
	for i, win := range wins {
		if win == nil {
			continue
		}
		h := &win.rec.all
		name := [...]string{"low", "mid", "high"}[i]
		if i == 1 {
			ms.us("paced_p50_us", h.quantile(0.5), h.n)
			ms.us("paced_p99_us", h.quantile(0.99), h.n)
			ms.us("paced_p999_us", h.quantile(0.999), h.n)
			ms.us("paced_read_p50_us", win.rec.reads.quantile(0.5), win.rec.reads.n)
			ms.us("paced_write_p50_us", win.rec.writes.quantile(0.5), win.rec.writes.n)
			ms.put("curve.mid.slo_miss_ratio", "ratio", h.fracAbove(int64(limitUS*1e3)))
		} else {
			ms.us("curve."+name+".p50_us", h.quantile(0.5), h.n)
			ms.us("curve."+name+".p99_us", h.quantile(0.99), h.n)
		}
		if l := win.lag.quantile(0.5) / 1e3; l > lag50 {
			lag50 = l
		}
		if l := win.lagP99US(); l > lag {
			lag = l
		}
		if a := win.achieved(); a < achieved {
			achieved = a
		}
		if b := win.backlog(); b > backlog {
			backlog = b
		}
		ok := h.quantile(0.99)/1e3 <= limitUS && win.achieved() >= minAchieved &&
			win.backlog() <= 0.01 && win.rec.failed == 0
		if ok && float64(win.rate) > rateOK {
			rateOK = float64(win.rate)
		}
	}
	// The generator metrics are the worst over the windows: one bad window
	// is enough to distrust the run.
	ms.put("gen.lag_p50_us", "us", lag50)
	ms.put("gen.lag_p99_us", "us", lag)
	ms.put("gen.achieved_over_offered", "ratio", achieved)
	ms.put("gen.backlog_end", "ratio", backlog)
	ms.put("rate_ok_ops_per_s", "ops/s", rateOK)
}

// killOffset is how far into the epilogue window the primary is killed.
const killOffset = 500 * time.Millisecond

// failoverEpilogue keeps the low rate running, kills the node that owns
// relation 0 at a fixed offset, and runs on for tail. Its requests are kept
// out of the latency percentiles (they are counted, and a failed one fails
// the run); what it reports is how long the relation was unavailable.
func failoverEpilogue(out *outcome, t *clusterTarget, streams []*stream, rate int, tail time.Duration) {
	before := t.snapshots()
	var killed int
	win := openLoop(t, streams, rate, killOffset+tail, false, func(startNS int64) int64 {
		waitUntil(startNS + int64(killOffset))
		var err error
		if killed, err = t.kill(t.sh.rels[0]); err != nil {
			out.note(err)
		}
		return nowNS()
	})
	out.count(win.rec, "failover epilogue")
	if err := win.healthy(); err != nil {
		out.note(err)
	}
	out.ms.putN("unavailable_ms", "ms", float64(win.rec.worstAfterMark)/1e6, win.rec.ops)
	// The failover counters cover the epilogue on the nodes that lived
	// through it.
	var survivors []funcdb.MetricsSnapshot
	for _, s := range before {
		if id, ok := nodeID(s.Origin); ok && id != killed {
			survivors = append(survivors, s)
		}
	}
	out.ms.merge(failoverCounters(sumSnapshots(survivors), sumSnapshots(t.snapshots())))
}

// sweep reads every key back through the system and compares it with the
// shadow; after a failover this is the audit that no acknowledged write was
// lost. It returns the number of keys that were wrong.
func sweep(t target, streams []*stream, out *outcome) int64 {
	recs := make([]*recorder, len(streams))
	var wg sync.WaitGroup
	for w, st := range streams {
		recs[w] = &recorder{}
		wg.Add(1)
		go func(w int, st *stream, rec *recorder) {
			defer wg.Done()
			for rel := range st.sh.rels {
				for k := int32(0); k < st.span; k++ {
					o := st.withText(op{kind: opFind, rel: uint8(rel), key: st.base + k})
					exp := st.issue(&o, nil)
					resp, err := t.exec(w, st, &o)
					rec.closed(st, &o, exp, resp, err)
				}
			}
		}(w, st, recs[w])
	}
	wg.Wait()
	var wrong int64
	for _, r := range recs {
		out.attempted += r.ops
		out.failed += r.failed
		wrong += r.failed
		if r.firstErr != nil {
			out.note(fmt.Errorf("read-back: %w", r.firstErr))
		}
	}
	return wrong
}

type fileSize struct {
	name string
	size int64
}

func dirFiles(dir string) []fileSize {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []fileSize
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && info.Mode().IsRegular() {
			out = append(out, fileSize{ent.Name(), info.Size()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
