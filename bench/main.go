// Command bench is the repository's benchmark: four workloads over the whole
// stack, every answer checked, every metric printed by name with its unit.
//
//	bench [run] [--workload name|all] [--seed n] [--seconds s]   the full run, all phases
//	bench --workload name --seed n --seconds s --trace 0|1       one measured run (BENCHMARK.json's contract)
//	bench ladder [--reps n]                                      the per-layer ladder
//	bench trace [--workload name|all] [--seed n] [--seconds s]   the traced run
//	bench repeat [-n 5] [--seconds s] [--write]                  repeat, report spread, derive bounds
//	bench compare a.json b.json                                  apply the bounds to two result files
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	if err := enterRoot(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := dispatch(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// enterRoot makes the root of the checkout the working directory: every
// path the benchmark touches (BENCHMARK.json, .bench_build/, bench/out/,
// bench/baseline/) is relative to it. bench/run.sh starts there; `go run -C
// bench .` starts one level down.
func enterRoot() error {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "bench", "run.sh")); err == nil {
			return os.Chdir(dir)
		}
	}
	return fmt.Errorf("run from the root of the checkout (bench/run.sh not found)")
}

func dispatch(args []string, stdout io.Writer) error {
	cmd := "run"
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "run":
		return cmdRun(args, stdout)
	case "ladder":
		return cmdLadder(args, stdout)
	case "trace":
		return cmdTrace(args, stdout)
	case "repeat":
		return cmdRepeat(args, stdout)
	case "compare":
		return cmdCompare(args, stdout)
	default:
		return fmt.Errorf("unknown command %q (run, ladder, trace, repeat, compare)", cmd)
	}
}

// runFlags are the flags shared by run and trace.
type runFlags struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
}

func parseRunFlags(name string, args []string) (*runFlags, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	f := &runFlags{}
	fs.StringVar(&f.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&f.seed, "seed", 1, "input seed")
	fs.Float64Var(&f.seconds, "seconds", 10, "length of the saturation phase; the other phases scale with it")
	fs.IntVar(&f.trace, "trace", -1, "0: print exactly the end-to-end metrics of BENCHMARK.json; 1: exactly its per-layer metrics; unset: the full run")
	fs.StringVar(&f.out, "out", "", "also write the results as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if f.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	return f, nil
}

func (f *runFlags) selected() ([]*workload, error) {
	if f.workload == "all" {
		return workloads(), nil
	}
	wl := workloadByName(f.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", f.workload)
	}
	return []*workload{wl}, nil
}

// newEnv prepares the process the way every run is shaped: one process,
// GOMAXPROCS = the number of processors, that many client workers, and a
// scratch directory inside the checkout for archives.
func newEnv(seed int64) (*env, func(), error) {
	root := filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, nil, err
	}
	e := &env{seed: seed, workers: runtime.GOMAXPROCS(0), dir: dir}
	return e, func() { os.RemoveAll(dir) }, nil
}

// result is one workload's run as printed and as written to --out.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   metrics  `json:"metrics"`
}

func newResult(wl *workload, f *runFlags, out *outcome) *result {
	r := &result{Workload: wl.name, Seed: f.seed, Seconds: f.seconds,
		Correct: len(out.errs) == 0 && out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: out.ms}
	for _, err := range out.errs {
		r.Errors = append(r.Errors, err.Error())
	}
	return r
}

// print writes the metrics as a table: name, value, unit, sample count.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed %d  sat %gs  attempted %d  failed %d  correct %v\n",
		r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ei, ej := isEndToEnd(names[i]), isEndToEnd(names[j])
		if ei != ej {
			return ei
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		m := r.Metrics[name]
		samples := ""
		if m.N > 0 {
			samples = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(w, "  %-34s %16.4f %-7s %s\n", name, m.Value, m.Unit, samples)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

// cmdRun is the benchmark proper. Without --trace it runs every phase and
// prints every metric the phases produce. With --trace it is one measured
// run under BENCHMARK.json's contract: the last line of output is one JSON
// object holding exactly the declared end-to-end (0) or per-layer (1)
// metrics.
func cmdRun(args []string, stdout io.Writer) error {
	f, err := parseRunFlags("run", args)
	if err != nil {
		return err
	}
	wls, err := f.selected()
	if err != nil {
		return err
	}
	if f.trace >= 0 && len(wls) != 1 {
		return fmt.Errorf("--trace needs one --workload")
	}
	var results []*result
	var bad int
	for _, wl := range wls {
		e, cleanup, err := newEnv(f.seed)
		if err != nil {
			return err
		}
		var out *outcome
		switch f.trace {
		case 0:
			out, err = runWorkload(wl, e, satPlan(f.seconds))
		case 1:
			out, err = runLayers(wl, e, f.seconds, stdout)
		default:
			out, err = runWorkload(wl, e, fullPlan(f.seconds))
		}
		cleanup()
		if err != nil {
			return err
		}
		res := newResult(wl, f, out)
		res.print(stdout)
		results = append(results, res)
		if !res.Correct {
			bad++
		}
	}
	if f.out != "" {
		if err := writeJSON(f.out, results); err != nil {
			return err
		}
	}
	if f.trace >= 0 {
		line, err := contractLine(results[0], f.trace)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, line)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d workloads failed their checks", bad, len(results))
	}
	return nil
}

// contractLine renders a result as the one JSON object the driver reads:
// exactly the keys correct, attempted, failed and metrics, the metrics being
// exactly the declared section. A per-layer metric the workload cannot
// produce reads 0 there (the section must be complete); the full run omits
// it instead.
func contractLine(r *result, trace int) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for _, d := range catalog() {
		if d.endToEnd != (trace == 0) {
			continue
		}
		m, ok := r.Metrics[d.name]
		if !ok && d.endToEnd {
			return "", fmt.Errorf("%s did not produce the end-to-end metric %s", r.Workload, d.name)
		}
		ms[d.name] = mv{Value: m.Value, Unit: d.unit}
	}
	buf, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	return string(buf), err
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
