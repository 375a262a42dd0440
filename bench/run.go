package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"funcdb"
)

// metric is one reported value, as printed and as written to --out files. N
// is the number of samples behind a timing (0 where that has no meaning).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n,omitempty"`
}

type metrics map[string]metric

func (ms metrics) put(name, unit string, v float64) { ms[name] = metric{Value: v, Unit: unit} }

func (ms metrics) putN(name, unit string, v float64, n int64) {
	ms[name] = metric{Value: v, Unit: unit, N: n}
}

// us records a timing given in nanoseconds, in microseconds.
func (ms metrics) us(name string, ns float64, n int64) { ms.putN(name, "us", ns/1e3, n) }

func (ms metrics) merge(other metrics) {
	for k, v := range other {
		ms[k] = v
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func nowNS() int64 { return time.Now().UnixNano() }

// rootSpan is the benchmark's own span around one client call of a traced
// run: the root every span the program recorded for that request hangs
// under. In-process calls know their trace id; network calls are matched to
// the client's fragment by worker and time.
type rootSpan struct {
	id         uint64
	start, end int64
	worker     int
	read       bool
}

// recorder collects what one measuring goroutine saw. Not safe for
// concurrent use; recorders are merged after the phase.
type recorder struct {
	all, reads, writes hist
	byType             bool // also fill reads/writes (paced windows)
	ops, failed        int64
	firstErr           error
	last               int64 // closed loop: when the previous operation ended
	rangeBuf           [rangeSpan]string
	userBytes          int64 // tuple bytes of the inserts recorded
	roots              []rootSpan
	keepRoots          bool
	// Epilogue bookkeeping: the longest due→done span among operations due
	// at or after mark.
	mark, worstAfterMark int64
	lateAfter, late      int64 // completions after lateAfter (window end)
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// closed records one closed-loop operation: its latency is the time since
// the previous one ended, a single clock read per operation.
func (r *recorder) closed(st *stream, o *op, exp expectation, resp funcdb.Response, err error) {
	now := nowNS()
	r.completed(st, o, exp, resp, err, r.last, now)
	r.last = now
}

// completed records one operation timed from `from` (its due or submission
// time) to done.
func (r *recorder) completed(st *stream, o *op, exp expectation, resp funcdb.Response, err error, from, done int64) {
	lat := done - from
	r.all.add(lat)
	if r.byType {
		if o.kind.isRead() {
			r.reads.add(lat)
		} else {
			r.writes.add(lat)
		}
	}
	r.ops++
	if o.kind == opInsert {
		r.userBytes += int64(userBytes(st, o))
	}
	if r.mark != 0 && from >= r.mark && lat > r.worstAfterMark {
		r.worstAfterMark = lat
	}
	if r.lateAfter != 0 && done > r.lateAfter {
		r.late++
	}
	if cerr := st.check(o, exp, resp, err); cerr != nil {
		r.fail(cerr)
	}
}

func (r *recorder) merge(o *recorder) {
	r.all.merge(&o.all)
	r.reads.merge(&o.reads)
	r.writes.merge(&o.writes)
	r.ops += o.ops
	r.failed += o.failed
	r.userBytes += o.userBytes
	r.late += o.late
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	if o.worstAfterMark > r.worstAfterMark {
		r.worstAfterMark = o.worstAfterMark
	}
	r.roots = append(r.roots, o.roots...)
}

// closedLoop runs every worker with one request outstanding for d and
// returns the merged record and the time the phase really took.
func closedLoop(t target, streams []*stream, d time.Duration) (*recorder, time.Duration) {
	var stop atomic.Bool
	recs := make([]*recorder, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	for w := range streams {
		recs[w] = &recorder{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec, st := recs[w], streams[w]
			rec.last = nowNS()
			if s, ok := t.(stepper); ok {
				for !stop.Load() {
					s.step(w, st, rec)
				}
				return
			}
			for !stop.Load() {
				o := st.next()
				exp := st.issue(o, rec.rangeBuf[:])
				resp, err := t.exec(w, st, o)
				rec.closed(st, o, exp, resp, err)
			}
		}(w)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	total := &recorder{}
	for _, r := range recs {
		total.merge(r)
	}
	return total, elapsed
}

// flight is one open-loop operation between dispatch and completion.
type flight struct {
	st        *stream
	o         *op
	exp       expectation
	due, sent int64
	wait      func() (funcdb.Response, error)
	err       error // dispatch failed: completes at once as a failure
}

// poolSize is the number of goroutines per worker that execute paced
// operations for a client API without a pipelined form. An operation goes to
// the goroutine its key hashes to, so one worker's operations on one key
// stay in issue order — which keeps every expected value exact.
const poolSize = 16

// window is the outcome of one paced window.
type window struct {
	*pacedWindow
	rec *recorder
}

// backlog is the share of the window's operations still outstanding at its
// scheduled end.
func (w *window) backlog() float64 { return ratio(float64(w.rec.late), float64(w.offered)) }

// healthy reports whether the generator kept its schedule; a window that
// did not measured the generator.
func (w *window) healthy() error {
	if lag := w.lag.quantile(0.5) / 1e3; lag > maxLagP50US {
		return &generatorError{fmt.Sprintf("paced window at %d ops/s: generator lag p50 %.0f us exceeds %.0f us", w.rate, lag, maxLagP50US)}
	}
	if lag := w.lagP99US(); lag > maxLagP99US {
		return &generatorError{fmt.Sprintf("paced window at %d ops/s: generator lag p99 %.0f us exceeds %.0f us", w.rate, lag, maxLagP99US)}
	}
	if a := w.achieved(); a < minAchieved {
		return &generatorError{fmt.Sprintf("paced window at %d ops/s: generator achieved %.4f of the offered rate", w.rate, a)}
	}
	return nil
}

// generatorError reports a window the load generator spoiled: the run fails,
// but not because the program answered wrongly.
type generatorError struct{ msg string }

func (e *generatorError) Error() string { return e.msg }

// openLoop offers rate operations per second for d, spread round-robin over
// the workers, and waits for every reply. The pacing goroutine only hands an
// operation to its worker's queue at the due time — no system call, no
// allocation, nothing that could make it late for the next one. Behind the
// queue, a pipelined target has one sender goroutine per worker (the send is
// a write to the socket) and one collector forcing the replies in order, so
// a slow reply never delays a later send; any other target has a pool of
// goroutines per worker calling exec. during, when set, runs alongside the
// window and returns the mark the recorders time unavailability from (the
// failover epilogue's kill).
func openLoop(t target, streams []*stream, rate int, d time.Duration, keepRoots bool, during func(startNS int64) (markNS int64)) *window {
	nw := len(streams)
	pipe, _ := t.(pipelined)
	startNS := nowNS() + int64(sleepMargin)
	endNS := startNS + int64(d)
	offered := int(float64(rate)*d.Seconds()) + 2

	var mark atomic.Int64
	var recs []*recorder
	var wg sync.WaitGroup
	newRec := func() *recorder {
		r := &recorder{byType: true, keepRoots: keepRoots, lateAfter: endNS}
		recs = append(recs, r)
		return r
	}
	complete := func(r *recorder, f *flight, w int, resp funcdb.Response, err error) {
		done := nowNS()
		r.mark = mark.Load()
		r.completed(f.st, f.o, f.exp, resp, err, f.due, done)
		if r.keepRoots {
			r.roots = append(r.roots, rootSpan{start: f.sent, end: done, worker: w, read: f.o.kind.isRead()})
		}
	}
	// Queues are as deep as the window is long: a full queue would block
	// the pacer and turn a slow reply into generator lag.
	queues := make([][]chan *flight, nw)
	for w := 0; w < nw; w++ {
		lanes := poolSize
		if pipe != nil {
			lanes = 1
		}
		for l := 0; l < lanes; l++ {
			ch := make(chan *flight, offered)
			queues[w] = append(queues[w], ch)
			rec := newRec()
			if pipe != nil {
				sent := make(chan *flight, offered)
				wg.Add(2)
				go func(w int) { // sender
					defer wg.Done()
					defer close(sent)
					for f := range ch {
						f.sent = nowNS()
						f.wait, f.err = pipe.begin(w, f.o)
						sent <- f
					}
				}(w)
				go func(w int) { // collector
					defer wg.Done()
					for f := range sent {
						var resp funcdb.Response
						err := f.err
						if err == nil {
							resp, err = f.wait()
						}
						complete(rec, f, w, resp, err)
					}
				}(w)
				continue
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for f := range ch {
					f.sent = nowNS()
					resp, err := t.exec(w, f.st, f.o)
					complete(rec, f, w, resp, err)
				}
			}(w)
		}
	}
	if during != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mark.Store(during(startNS))
		}()
	}
	// Everything the pacer hands out is allocated before the window starts.
	flights := make([]flight, offered)
	rangeBufs := make([]string, 0, (offered/8+1)*rangeSpan)
	pw := pace(rate, startNS, endNS, func(i, due int64) bool {
		w := int(i % int64(nw))
		st := streams[w]
		o := st.next()
		f := &flights[i]
		f.st, f.o, f.due = st, o, due
		var buf []string
		if o.kind == opRange && cap(rangeBufs)-len(rangeBufs) >= rangeSpan {
			n := len(rangeBufs)
			rangeBufs = rangeBufs[:n+rangeSpan]
			buf = rangeBufs[n : n : n+rangeSpan]
		}
		f.exp = st.issue(o, buf)
		lane := 0
		if pipe == nil {
			lane = int((uint32(o.key)+uint32(o.rel)*7919)*2654435761>>16) % poolSize
		}
		queues[w][lane] <- f
		return true
	})
	for _, lanes := range queues {
		for _, ch := range lanes {
			close(ch)
		}
	}
	wg.Wait()
	total := &recorder{}
	for _, r := range recs {
		total.merge(r)
	}
	return &window{pacedWindow: pw, rec: total}
}

// usage is the process's resource use at one instant.
type usage struct {
	mem runtime.MemStats
	cpu time.Duration // user + system
	at  time.Time
}

func readUsage() usage {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&u.mem)
	u.at = time.Now()
	return u
}

// peakGoroutines samples the goroutine count until stop is called and
// returns the peak.
func peakGoroutines() (stop func() int) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	peak := runtime.NumGoroutine()
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
			}
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return peak
	}
}
