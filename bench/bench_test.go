package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"funcdb"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([...], n=4), method "exclusive".
	cases := []struct {
		vs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5}, // Python extrapolates past the ends for tiny samples
		{[]float64{5, 1, 3}, 1, 3, 5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.vs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("relIQR = %v, want 5.5/5.5", got)
	}
	if got := maxRelDev([]float64{90, 100, 130}); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("maxRelDev = %v, want 0.3", got)
	}
}

func TestHistQuantilesAreWithinOnePercent(t *testing.T) {
	var h hist
	// 1 µs .. 100 ms, log-uniform-ish: every value v appears once.
	var vs []float64
	for v := 1000.0; v < 1e8; v *= 1.01 {
		h.add(int64(v))
		vs = append(vs, math.Floor(v))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := vs[int(q*float64(len(vs)))-1]
		if got := h.quantile(q); math.Abs(got-want)/want > 0.012 {
			t.Errorf("quantile(%v) = %.0f, want %.0f within 1.2%%", q, got, want)
		}
	}
	if h.n != int64(len(vs)) || h.quantile(1) < vs[len(vs)-1]*0.99 {
		t.Errorf("count %d max quantile %.0f", h.n, h.quantile(1))
	}
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<20 + 12345, 1 << 39} {
		lo, hi := histBounds(histIndex(v))
		if v < lo || v > hi {
			t.Errorf("value %d indexed into bucket [%d, %d]", v, lo, hi)
		}
	}
	var other hist
	other.add(5)
	h.merge(&other)
	if h.n != int64(len(vs))+1 {
		t.Errorf("merge lost a sample")
	}
	if f := h.fracAbove(1e9); f != 0 {
		t.Errorf("fracAbove beyond the maximum = %v", f)
	}
}

func TestDeriveBound(t *testing.T) {
	for _, c := range []struct {
		rel   float64
		bound float64
		over  bool
	}{{0, 0.05, false}, {0.016, 0.05, false}, {0.02, 0.10, false}, {0.05, 0.15, false}, {0.0833, 0.25, false}, {0.09, 0.25, true}} {
		b, over := deriveBound(c.rel)
		if math.Abs(b-c.bound) > 1e-9 || over != c.over {
			t.Errorf("deriveBound(%v) = %v %v, want %v %v", c.rel, b, over, c.bound, c.over)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower, higher := decl{name: "x"}, decl{name: "y", higher: true}
	for _, c := range []struct {
		d    decl
		a, b []float64
		want string
	}{
		{lower, []float64{100}, []float64{104}, "same"},
		{lower, []float64{100}, []float64{120}, "worse"},
		{lower, []float64{100}, []float64{80}, "better"},
		{higher, []float64{100}, []float64{80}, "worse"},
		{higher, []float64{100}, []float64{120}, "better"},
		{lower, []float64{0}, []float64{0}, "same"},
		{lower, []float64{60, 100, 140, 180}, []float64{100, 100, 100, 100}, "unresolved"},
	} {
		if got, _ := verdict(c.d, 0, c.a, c.b); got != "unbounded" && got != "same" {
			t.Errorf("verdict without a bound = %s", got)
		}
		if got, _ := verdict(c.d, 0.10, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.d.name, c.a, c.b, got, c.want)
		}
	}
}

func testShape() *shape {
	return &shape{rels: netRels, rows: 256, mix: mix{find: 40, insert: 40, rng: 10}, valueLen: 16, text: true, opsPer: 4000}
}

func TestStreamsAreDeterministicAndDisjoint(t *testing.T) {
	sh := testShape()
	a, b := newStream(sh, 7, 0, 2), newStream(sh, 7, 0, 2)
	if !reflect.DeepEqual(a.ops, b.ops) || !reflect.DeepEqual(a.values, b.values) {
		t.Fatal("the same seed and worker gave different streams")
	}
	if c := newStream(sh, 8, 0, 2); reflect.DeepEqual(a.ops, c.ops) {
		t.Error("another seed gave the same stream")
	}
	other := newStream(sh, 7, 1, 2)
	if reflect.DeepEqual(a.ops, other.ops) {
		t.Error("two workers got the same stream")
	}
	counts := map[opKind]int{}
	hot := map[int32]int{}
	for w, st := range []*stream{a, other} {
		lo, hi := int32(w*128), int32(w*128+128)
		for i, o := range st.ops {
			counts[o.kind]++
			hot[o.key]++
			if o.key < lo || o.key >= hi {
				t.Fatalf("worker %d op %d touches key %d outside its block [%d, %d)", w, i, o.key, lo, hi)
			}
			if o.kind == opRange && o.key+rangeSpan > hi {
				t.Fatalf("worker %d range at %d leaves its block", w, o.key)
			}
			if o.kind == opDelete {
				if next := st.ops[i+1]; next.kind != opInsert || next.key != o.key || next.rel != o.rel {
					t.Fatalf("worker %d delete at %d is not followed by its reinsert", w, i)
				}
			}
			if o.text == "" {
				t.Fatalf("text workload generated an operation without text")
			}
		}
	}
	for _, k := range []opKind{opFind, opInsert, opDelete, opRange} {
		if counts[k] == 0 {
			t.Errorf("the mix produced no operation of kind %d", k)
		}
	}
	// Zipf: the hottest key takes far more than a uniform share (1/128).
	max := 0
	for _, n := range hot {
		if n > max {
			max = n
		}
	}
	if share := float64(max) / float64(len(a.ops)+len(other.ops)); share < 0.03 {
		t.Errorf("hottest key has %.3f of the operations: not skewed", share)
	}
}

func TestShadowGivesEveryResponseOneExpectedValue(t *testing.T) {
	sh := testShape()
	st := newStream(sh, 1, 0, 2)
	tuple := func(k int, v string) funcdb.Tuple { return funcdb.NewTuple(funcdb.Int(int64(k)), funcdb.Str(v)) }

	find := &op{kind: opFind, rel: 1, key: 5}
	exp := st.issue(find, nil)
	if exp.value != initialValue(sh, 1, 5) {
		t.Fatalf("fresh shadow expects %q", exp.value)
	}
	if err := st.check(find, exp, funcdb.Response{Found: true, Tuple: tuple(5, exp.value)}, nil); err != nil {
		t.Errorf("right answer rejected: %v", err)
	}
	if err := st.check(find, exp, funcdb.Response{Found: true, Tuple: tuple(5, "stale")}, nil); err == nil {
		t.Error("stale answer accepted")
	}
	if err := st.check(find, exp, funcdb.Response{}, nil); err == nil {
		t.Error("missing key accepted")
	}

	st.issue(&op{kind: opInsert, rel: 1, key: 5, val: 3}, nil)
	if got := st.issue(find, nil); got.value != st.values[3] {
		t.Errorf("after an insert the shadow expects %q, want %q", got.value, st.values[3])
	}
	st.issue(&op{kind: opDelete, rel: 1, key: 5}, nil)
	gone := st.issue(find, nil)
	if err := st.check(find, gone, funcdb.Response{}, nil); err != nil {
		t.Errorf("deleted key reported absent, rejected: %v", err)
	}
	if err := st.check(find, gone, funcdb.Response{Found: true, Tuple: tuple(5, "x")}, nil); err == nil {
		t.Error("deleted key reported present, accepted")
	}

	rg := &op{kind: opRange, rel: 0, key: 10}
	rexp := st.issue(rg, make([]string, 0, rangeSpan))
	var tuples []funcdb.Tuple
	for i, v := range rexp.values {
		tuples = append(tuples, tuple(10+i, v))
	}
	if err := st.check(rg, rexp, funcdb.Response{Tuples: tuples}, nil); err != nil {
		t.Errorf("right range rejected: %v", err)
	}
	if err := st.check(rg, rexp, funcdb.Response{Tuples: tuples[1:]}, nil); err == nil {
		t.Error("short range accepted")
	}
}

func TestAttributeSplitsTheRootAmongInnermostSpans(t *testing.T) {
	// Root [1000, 2000]. client-send covers [1010, 1990]; inside it decode
	// [1100, 1150] and encode [1400, 1700], and inside encode lane-commit
	// [1500, 1550]. conn-read began before the root; replica-apply outlives
	// it.
	var frags []funcdb.RequestTrace
	doc := `[
	 {"id":"a","node":"client:bench-w0","spans":[{"stage":"client-send","start_unix_ns":1010,"dur_ns":980}]},
	 {"id":"a","node":"node0","hop":1,"spans":[
	   {"stage":"conn-read","start_unix_ns":500,"dur_ns":560},
	   {"stage":"decode","start_unix_ns":1100,"dur_ns":50},
	   {"stage":"encode","start_unix_ns":1400,"dur_ns":300},
	   {"stage":"lane-commit","start_unix_ns":1500,"dur_ns":50}]},
	 {"id":"a","node":"node1","hop":2,"spans":[{"stage":"replica-apply","start_unix_ns":1900,"dur_ns":400}]}]`
	if err := json.Unmarshal([]byte(doc), &frags); err != nil {
		t.Fatal(err)
	}
	self, async := attribute(rootSpan{start: 1000, end: 2000}, frags)
	want := map[string]int64{
		// conn-read clipped to [1000, 1060], of which client-send (started
		// later) owns [1010, 1060].
		"conn-read":   10,
		"client-send": 980 - 50 - 300,
		"decode":      50,
		"encode":      250,
		"lane-commit": 50,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if async["replica-apply"] != 400 || len(async) != 1 {
		t.Errorf("async %v, want replica-apply 400", async)
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if unattributed := 1000 - sum; unattributed != 10 { // [1990, 2000]
		t.Errorf("unattributed %d, want 10", unattributed)
	}
}

func TestCatalogIsWhatBenchmarkJSONDeclares(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", benchFile))
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkDoc
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	bounds := map[string]float64{}
	for _, m := range got.EndToEnd {
		bounds[m.Name] = m.Bound
		if m.Bound <= 0 || m.Bound > boundCap {
			t.Errorf("%s has bound %v outside (0, %v]", m.Name, m.Bound, boundCap)
		}
	}
	if want := benchmarkDocOf(bounds); !reflect.DeepEqual(&got, want) {
		t.Errorf("BENCHMARK.json and the catalogue disagree (%d/%d end-to-end, %d/%d per-layer metrics, %d/%d workloads): regenerate it with `bench repeat --write`",
			len(got.EndToEnd), len(want.EndToEnd), len(got.PerLayer), len(want.PerLayer), len(got.Workloads), len(want.Workloads))
	}
	seen := map[string]bool{}
	for _, d := range catalog() {
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
		if len(d.name) > 64 || len(d.unit) > 16 {
			t.Errorf("metric %s / unit %s too long for the contract", d.name, d.unit)
		}
	}
	if n := len(got.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
	for _, wl := range got.Workloads {
		if len(wl.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", wl.Name, len(wl.Why))
		}
	}
}

// The smoke test: all four workloads at a tiny scale through the same code
// the real runs use — every phase, the traced window, the ladder — and the
// two contract lines. It checks what is printed, not how fast: every
// declared name exactly once, with its declared unit, and nothing else. The
// real benchmark never runs under go test.
func TestSmokeAllWorkloadsPrintExactlyTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("starts clusters")
	}
	root := t.TempDir()
	oldWD, _ := os.Getwd()
	if err := os.Chdir(root); err != nil { // the trace files land under ./bench/out
		t.Fatal(err)
	}
	defer os.Chdir(oldWD)

	tiny := plan{setups: 2, warm: 100 * time.Millisecond, sat: 300 * time.Millisecond,
		paced:    [3]time.Duration{200 * time.Millisecond, 300 * time.Millisecond, 200 * time.Millisecond},
		epilogue: true, tail: 1500 * time.Millisecond, scale: 0.05}
	newTestEnv := func(name string) *env {
		dir := filepath.Join(root, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return &env{seed: 1, workers: 2, dir: dir}
	}

	var (
		wg     sync.WaitGroup
		ladder *ladderRun
		lerr   error
		outs   = map[string]*outcome{}
		errs   = map[string]error{}
		mu     sync.Mutex
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ladder, lerr = runLadder(newTestEnv("ladder"), 2, 0.01)
	}()
	for _, wl := range workloads() {
		wg.Add(1)
		go func(wl *workload) {
			defer wg.Done()
			e := newTestEnv(wl.name)
			out, err := runWorkload(wl, e, tiny)
			if err == nil {
				var tms metrics
				if tms, err = tracedRun(wl, e, 400*time.Millisecond, tiny.scale, out.headlineP50()); err == nil {
					out.ms.merge(tms)
				}
			}
			mu.Lock()
			outs[wl.name], errs[wl.name] = out, err
			mu.Unlock()
		}(wl)
	}
	wg.Wait()
	if lerr != nil {
		t.Fatalf("ladder: %v", lerr)
	}

	declared := map[string]decl{}
	for _, d := range catalog() {
		declared[d.name] = d
	}
	for _, wl := range workloads() {
		if errs[wl.name] != nil {
			t.Errorf("%s: %v", wl.name, errs[wl.name])
			continue
		}
		out := outs[wl.name]
		out.ms.merge(ladder.metrics())
		if out.failed != 0 {
			t.Errorf("%s: %d of %d operations failed", wl.name, out.failed, out.attempted)
		}
		for _, err := range out.errs {
			// Five systems share two processors here: a late generator is
			// expected, a wrong answer is not.
			if _, late := err.(*generatorError); !late {
				t.Errorf("%s: %v", wl.name, err)
			}
		}
		for name, m := range out.ms {
			d, ok := declared[name]
			switch {
			case !ok:
				t.Errorf("%s printed the undeclared metric %s", wl.name, name)
			case d.unit != m.Unit:
				t.Errorf("%s printed %s in %q, declared %q", wl.name, name, m.Unit, d.unit)
			case !d.on.covers(wl):
				t.Errorf("%s printed %s, which it is declared not to produce", wl.name, name)
			}
		}
		for _, d := range catalog() {
			if _, ok := out.ms[d.name]; !ok && d.on.covers(wl) {
				t.Errorf("%s did not print %s", wl.name, d.name)
			}
		}
		// The two lines the driver reads hold exactly the declared sections.
		res := newResult(wl, &runFlags{seed: 1, seconds: 0.3}, out)
		for trace := 0; trace <= 1; trace++ {
			line, err := contractLine(res, trace)
			if err != nil {
				t.Errorf("%s --trace %d: %v", wl.name, trace, err)
				continue
			}
			var doc struct {
				Correct   *bool `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &doc); err != nil {
				t.Fatalf("%s --trace %d: %v", wl.name, trace, err)
			}
			if doc.Correct == nil || doc.Failed == nil || doc.Attempted < 1 {
				t.Errorf("%s --trace %d: line lacks correct/attempted/failed: %s", wl.name, trace, line)
			}
			want := 0
			for _, d := range catalog() {
				if d.endToEnd != (trace == 0) {
					continue
				}
				want++
				m, ok := doc.Metrics[d.name]
				if !ok || m.Value == nil || m.Unit != d.unit {
					t.Errorf("%s --trace %d: %s missing or in the wrong unit", wl.name, trace, d.name)
				} else if d.endToEnd && *m.Value == 0 {
					t.Errorf("%s --trace 0: %s is 0", wl.name, d.name)
				}
			}
			if len(doc.Metrics) != want {
				t.Errorf("%s --trace %d: %d metrics in the line, %d declared", wl.name, trace, len(doc.Metrics), want)
			}
		}
		if _, err := os.Stat(traceFile(wl.name)); err != nil {
			t.Errorf("%s: no trace file: %v", wl.name, err)
		}
	}
}
