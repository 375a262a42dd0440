package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Bounds from measurement. `bench repeat -n 5` runs the full set n times and
// reports, per (metric, workload), the median, the interquartile range and
// the largest deviation from the median. A regression bound is three times
// the relative interquartile range, at least 0.05, rounded up to a multiple
// of 0.05; a metric that cannot repeat within 0.25 is not given a wider
// bound but demoted to the per-layer section. `bench compare` applies the
// bounds to two result files.

const (
	boundFloor = 0.05
	boundCap   = 0.25
	benchFile  = "BENCHMARK.json"
)

var baselineDir = filepath.Join("bench", "baseline")

// spread is the repeat statistics of one (workload, metric).
type spread struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	IQR      float64   `json:"iqr"`
	RelIQR   float64   `json:"rel_iqr"`
	MaxDev   float64   `json:"max_rel_dev"`
	// Bound is the derived regression bound (end-to-end metrics only);
	// OverCap marks a metric whose spread asks for more than the cap.
	Bound   float64 `json:"bound,omitempty"`
	OverCap bool    `json:"over_cap,omitempty"`
}

// deriveBound turns a relative interquartile range into a bound.
func deriveBound(relIQR float64) (bound float64, overCap bool) {
	b := math.Max(boundFloor, 3*relIQR)
	b = math.Ceil(b/0.05-1e-9) * 0.05
	if b > boundCap {
		return boundCap, true
	}
	return math.Round(b*100) / 100, false
}

func spreadsOf(runs []*result) []spread {
	type key struct{ wl, metric string }
	vals := map[key][]float64{}
	units := map[key]string{}
	for _, r := range runs {
		for name, m := range r.Metrics {
			k := key{r.Workload, name}
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	var out []spread
	for k, vs := range vals {
		sp := spread{Workload: k.wl, Metric: k.metric, Unit: units[k], Values: vs,
			Median: median(vs), RelIQR: relIQR(vs), MaxDev: maxRelDev(vs)}
		if len(vs) >= 2 {
			q1, _, q3 := quartiles(vs)
			sp.IQR = q3 - q1
		}
		if isEndToEnd(k.metric) {
			sp.Bound, sp.OverCap = deriveBound(sp.RelIQR)
		}
		out = append(out, sp)
	}
	order := map[string]int{}
	for i, wl := range workloads() {
		order[wl.name] = i
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Workload != b.Workload {
			return order[a.Workload] < order[b.Workload]
		}
		if ea, eb := isEndToEnd(a.Metric), isEndToEnd(b.Metric); ea != eb {
			return ea
		}
		return a.Metric < b.Metric
	})
	return out
}

func printSpreads(w io.Writer, sps []spread, n int) {
	fmt.Fprintf(w, "| workload | metric | unit | median of %d | IQR | IQR/median | max dev | bound |\n|---|---|---|---|---|---|---|---|\n", n)
	for _, sp := range sps {
		bound := ""
		if sp.Bound > 0 {
			bound = fmt.Sprintf("%.2f", sp.Bound)
			if sp.OverCap {
				bound += " (over cap)"
			}
		}
		fmt.Fprintf(w, "| %s | %s | %s | %.4g | %.3g | %.3f | %.3f | %s |\n",
			sp.Workload, sp.Metric, sp.Unit, sp.Median, sp.IQR, sp.RelIQR, sp.MaxDev, bound)
	}
}

func cmdRepeat(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("repeat", flag.ContinueOnError)
	n := fs.Int("n", 5, "how many times to run the full set")
	seed := fs.Int64("seed", 1, "input seed of every run")
	seconds := fs.Float64("seconds", 10, "length of the saturation phase")
	write := fs.Bool("write", false, "write the bounds into BENCHMARK.json and the table under bench/baseline/")
	from := fs.String("from", "", "comma-separated result files (--out) to take the runs from instead of running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f := &runFlags{seed: *seed, seconds: *seconds}
	var runs []*result
	if *from != "" {
		*n = 0
		for _, path := range strings.Split(*from, ",") {
			rs, err := loadResults(path)
			if err != nil {
				return err
			}
			runs = append(runs, rs...)
			*n++
		}
	} else if *n < 2 {
		return fmt.Errorf("repeat needs -n of at least 2")
	}
	for i := 0; i < *n && *from == ""; i++ {
		for _, wl := range workloads() {
			e, cleanup, err := newEnv(*seed)
			if err != nil {
				return err
			}
			out, err := runWorkload(wl, e, fullPlan(*seconds))
			cleanup()
			if err != nil {
				return err
			}
			res := newResult(wl, f, out)
			fmt.Fprintf(stdout, "run %d/%d %s: correct %v, sat %.0f ops/s\n", i+1, *n, wl.name, res.Correct, res.Metrics["sat_ops_per_s"].Value)
			for _, e := range res.Errors {
				fmt.Fprintf(stdout, "  FAILED: %s\n", e)
			}
			runs = append(runs, res)
		}
	}
	sps := spreadsOf(runs)
	printSpreads(stdout, sps, *n)
	if !*write {
		return nil
	}
	if err := os.MkdirAll(baselineDir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(baselineDir, fmt.Sprintf("repeat-%d.json", *n)), sps); err != nil {
		return err
	}
	var md strings.Builder
	fmt.Fprintf(&md, "# %d runs of the full set, seed %d, sat phase %g s\n\n", *n, *seed, *seconds)
	printSpreads(&md, sps, *n)
	if err := os.WriteFile(filepath.Join(baselineDir, fmt.Sprintf("repeat-%d.md", *n)), []byte(md.String()), 0o644); err != nil {
		return err
	}
	return writeBenchmarkJSON(sps)
}

// benchmarkDoc is BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []endToEndDoc `json:"end_to_end"`
	PerLayer   []perLayerDoc `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndDoc struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerDoc struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchmarkJSON() (*benchmarkDoc, error) {
	buf, err := os.ReadFile(benchFile)
	if err != nil {
		return nil, err
	}
	doc := &benchmarkDoc{}
	if err := json.Unmarshal(buf, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", benchFile, err)
	}
	return doc, nil
}

// runSeconds is BENCHMARK.json's run_seconds: the length of the saturation
// phase of the driver's runs.
const runSeconds = 20

// benchmarkDocOf renders the catalogue as BENCHMARK.json with the given
// bounds: the file is generated, the code is the source of its names.
func benchmarkDocOf(bounds map[string]float64) *benchmarkDoc {
	doc := &benchmarkDoc{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloads() {
		doc.Workloads = append(doc.Workloads, workloadDoc{wl.name, wl.why})
	}
	for _, d := range catalog() {
		if d.endToEnd {
			doc.EndToEnd = append(doc.EndToEnd, endToEndDoc{d.name, d.unit, better(d), bounds[d.name]})
		} else {
			doc.PerLayer = append(doc.PerLayer, perLayerDoc{d.name, d.unit, better(d)})
		}
	}
	return doc
}

// writeBenchmarkJSON regenerates BENCHMARK.json with bounds from measured
// spreads: one bound per bounded metric, the widest any workload asks for.
// setup_s keeps the cap (a set-up is short and noisy, and the contract asks
// for the largest bound there).
func writeBenchmarkJSON(sps []spread) error {
	bounds := map[string]float64{}
	for _, sp := range sps {
		d, ok := declOf(sp.Metric)
		if !ok || !d.endToEnd || sp.Metric == "setup_s" {
			continue
		}
		if sp.OverCap {
			return fmt.Errorf("%s on %s does not repeat within %.2f: demote it to the per-layer section (catalog.go) instead of widening its bound", sp.Metric, sp.Workload, boundCap)
		}
		if sp.Bound > bounds[sp.Metric] {
			bounds[sp.Metric] = sp.Bound
		}
	}
	bounds["setup_s"] = boundCap
	return writeJSON(benchFile, benchmarkDocOf(bounds))
}

// compare ---------------------------------------------------------------------

func loadResults(path string) ([]*result, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(buf, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// pairBounds returns the bound of every (workload, metric): the five-run
// table's where there is one, else BENCHMARK.json's.
func pairBounds() (func(workload, metric string) (float64, bool), error) {
	perPair := map[[2]string]float64{}
	if matches, _ := filepath.Glob(filepath.Join(baselineDir, "repeat-*.json")); len(matches) > 0 {
		sort.Strings(matches)
		buf, err := os.ReadFile(matches[len(matches)-1])
		if err != nil {
			return nil, err
		}
		var sps []spread
		if err := json.Unmarshal(buf, &sps); err != nil {
			return nil, err
		}
		for _, sp := range sps {
			if sp.Bound > 0 && !sp.OverCap {
				perPair[[2]string{sp.Workload, sp.Metric}] = sp.Bound
			}
		}
	}
	doc, err := readBenchmarkJSON()
	if err != nil {
		return nil, err
	}
	declared := map[string]float64{}
	for _, m := range doc.EndToEnd {
		declared[m.Name] = m.Bound
	}
	return func(workload, metric string) (float64, bool) {
		if b, ok := declared[metric]; ok {
			return b, true
		}
		b, ok := perPair[[2]string{workload, metric}]
		return b, ok
	}, nil
}

// verdict judges b against a for one metric. With several runs a side, the
// medians are compared and a spread wider than the bound on either side
// leaves the row unresolved: a delta below the noise is not called.
func verdict(d decl, bound float64, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 && mb == 0 {
		return "same", 0
	}
	if bound <= 0 {
		// Demoted: it did not repeat within the cap when the bounds were
		// derived, so a single delta says nothing.
		return "unbounded", ratio(mb-ma, math.Abs(ma))
	}
	if math.Max(relIQR(a), relIQR(b)) > bound {
		return "unresolved", ratio(mb-ma, math.Abs(ma))
	}
	change := ratio(mb-ma, math.Abs(ma))
	if ma == 0 {
		change = math.Inf(1)
		if mb < 0 {
			change = math.Inf(-1)
		}
	}
	worse := change
	if d.higher {
		worse = -change
	}
	switch {
	case worse > bound:
		return "worse", change
	case worse < -bound:
		return "better", change
	default:
		return "same", change
	}
}

func cmdCompare(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare a.json b.json (files written by --out)")
	}
	ra, err := loadResults(args[0])
	if err != nil {
		return err
	}
	rb, err := loadResults(args[1])
	if err != nil {
		return err
	}
	boundOf, err := pairBounds()
	if err != nil {
		return err
	}
	type key struct{ wl, metric string }
	collect := func(rs []*result) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range rs {
			for name, v := range r.Metrics {
				m[key{r.Workload, name}] = append(m[key{r.Workload, name}], v.Value)
			}
		}
		return m
	}
	va, vb := collect(ra), collect(rb)
	counts := map[string]int{}
	fmt.Fprintf(stdout, "| workload | metric | a | b | change | bound | verdict |\n|---|---|---|---|---|---|---|\n")
	for _, wl := range workloads() {
		for _, d := range catalog() {
			if !d.endToEnd && !d.userFacing {
				continue
			}
			k := key{wl.name, d.name}
			a, okA := va[k]
			b, okB := vb[k]
			if !okA || !okB {
				continue
			}
			bound, _ := boundOf(wl.name, d.name) // 0: demoted or never measured
			v, change := verdict(d, bound, a, b)
			counts[v]++
			fmt.Fprintf(stdout, "| %s | %s | %.4g | %.4g | %+.1f%% | %.2f | %s |\n",
				wl.name, d.name, median(a), median(b), 100*change, bound, v)
		}
	}
	fmt.Fprintf(stdout, "\n%d same, %d better, %d worse, %d unresolved, %d unbounded\n",
		counts["same"], counts["better"], counts["worse"], counts["unresolved"], counts["unbounded"])
	if counts["worse"] > 0 {
		return fmt.Errorf("%d rows worse than their bound", counts["worse"])
	}
	return nil
}
