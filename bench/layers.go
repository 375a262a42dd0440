package main

import (
	"io"
	"time"
)

// runLayers is the run behind --trace 1: every per-layer metric of one
// workload inside one measured run. It shortens the untraced phases (their
// end-to-end numbers are --trace 0's business; here they feed the counters,
// the latency curve and the generator's own metrics), re-runs the headline
// window traced, and climbs the ladder with fewer repetitions.
func runLayers(wl *workload, e *env, seconds float64, stdout io.Writer) (*outcome, error) {
	d := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	p := plan{setups: 1, warm: d(0.1), sat: d(0.25), paced: [3]time.Duration{d(0.08), d(0.25), d(0.08)},
		epilogue: true, tail: 3 * time.Second, scale: 1}
	l, err := runLadder(e, 3, 0.25)
	if err != nil {
		return nil, err
	}
	l.print(stdout)
	return layersOf(wl, e, p, d(0.2), l)
}

// layersOf runs the plan untraced, the headline window traced for traced,
// and adds the rungs of an already climbed ladder.
func layersOf(wl *workload, e *env, p plan, traced time.Duration, l *ladderRun) (*outcome, error) {
	out, err := runWorkload(wl, e, p)
	if err != nil {
		return nil, err
	}
	tms, err := tracedRun(wl, e, traced, p.scale, out.headlineP50())
	if err != nil {
		return nil, err
	}
	out.ms.merge(tms)
	out.ms.merge(l.metrics())
	return out, nil
}
