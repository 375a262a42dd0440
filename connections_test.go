package funcdb_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/reqtrace"
)

// TestThousandsOfConnections holds 1024 connections open at once against
// a 3-node traced cluster. Half are client.Dial connections to node i%3
// sending text, so about two thirds of their statements are forwarded
// over a gateway's one shared link per owner; the other half are
// DialCluster prepared handles, which go to the owner directly. Each
// connection inserts a few keys of its own and finds each one again.
//
// Every statement must succeed and every find must see its insert. The
// goroutine peak must stay within one server handler per accepted
// socket, plus one worker per connection, plus a fixed floor: no
// goroutine per request or per frame. The stage-order check runs over
// every stitched trace group.
func TestThousandsOfConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("1024 connections is not a -short test")
	}
	const conns, keys, traceEvery = 1024, 2, 16
	// A text connection is one loopback socket, a cluster client one
	// socket to its relation's owner, and both ends live in this process.
	if limit, ok := fdLimit(); ok && limit < conns*2+512 {
		t.Skipf("fd limit %d too low for %d loopback connections", limit, conns)
	}
	addrs, nodes := bootTracedCluster(t, 3)
	rels := []string{"R", "S", "T"}
	accepted := func() (n int64) {
		for _, node := range nodes {
			n += node.MetricsSnapshot().Server.ConnsTotal
		}
		return n
	}
	acceptedBefore := accepted()
	floor := runtime.NumGoroutine()

	var peak atomic.Int64
	sample := func() {
		for n := int64(runtime.NumGoroutine()); ; {
			cur := peak.Load()
			if n <= cur || peak.CompareAndSwap(cur, n) {
				return
			}
		}
	}
	stopSampling := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-tick.C:
				sample()
			}
		}
	}()

	var (
		failed   atomic.Int64
		firstErr sync.Once
		mu       sync.Mutex
		traces   []funcdb.RequestTrace
	)
	fail := func(format string, args ...any) {
		failed.Add(1)
		firstErr.Do(func() { t.Errorf(format, args...) })
	}
	var done, ready sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < conns; i++ {
		done.Add(1)
		ready.Add(1)
		go func(i int) {
			defer done.Done()
			readied := false
			defer func() {
				if !readied {
					ready.Done()
				}
			}()
			rel, tag := rels[(i/6)%len(rels)], fmt.Sprintf("c%d", i)
			traced := funcdb.TracingConfig{SampleEvery: 1}
			var insert, find func(k int64) (funcdb.Response, error)
			var local func() []funcdb.RequestTrace
			if i%2 == 0 {
				opts := []client.Option{client.WithOrigin(tag)}
				if i%traceEvery == 0 {
					opts = append(opts, client.WithTracing(traced))
				}
				cl, err := client.Dial(addrs[(i/2)%len(addrs)], opts...)
				if err != nil {
					fail("conn %d: dial: %v", i, err)
					return
				}
				defer cl.Close()
				insert = func(k int64) (funcdb.Response, error) {
					return cl.Exec(fmt.Sprintf("insert (%d, %q) into %s", k, tag, rel))
				}
				find = func(k int64) (funcdb.Response, error) {
					return cl.Exec(fmt.Sprintf("find %d in %s", k, rel))
				}
				local = cl.LocalTraces
			} else {
				opts := []client.ClusterOption{client.WithClusterOrigin(tag)}
				if i%traceEvery == 1 {
					opts = append(opts, client.WithClusterTracing(traced))
				}
				cc, err := client.DialCluster(addrs, opts...)
				if err != nil {
					fail("conn %d: dial: %v", i, err)
					return
				}
				defer cc.Close()
				ins, fnd := cc.Prepare("insert (?, ?) into "+rel), cc.Prepare("find ? in "+rel)
				insert = func(k int64) (funcdb.Response, error) { return ins.Exec(funcdb.Int(k), funcdb.Str(tag)) }
				find = func(k int64) (funcdb.Response, error) { return fnd.Exec(funcdb.Int(k)) }
				local = cc.LocalTraces
			}
			for j := 0; j < keys; j++ {
				k := int64(i*keys + j)
				if resp, err := insert(k); err != nil || resp.Err != nil {
					fail("conn %d: insert %d: %v / %v", i, k, err, resp.Err)
					return
				}
				resp, err := find(k)
				if err != nil || resp.Err != nil {
					fail("conn %d: find %d: %v / %v", i, k, err, resp.Err)
					return
				}
				if want := funcdb.NewTuple(funcdb.Int(k), funcdb.Str(tag)); !resp.Found || !resp.Tuple.Equal(want) {
					fail("conn %d: find %d = %+v, want its insert %v", i, k, resp, want)
					return
				}
			}
			// Hold the connection until every other one is open too.
			readied = true
			ready.Done()
			<-release
			mu.Lock()
			traces = append(traces, local()...)
			mu.Unlock()
		}(i)
	}
	ready.Wait()
	sample()
	acceptedDuring := accepted() - acceptedBefore
	close(release)
	done.Wait()
	close(stopSampling)
	<-sampled

	if n := failed.Load(); n > 0 {
		t.Fatalf("%d of %d connections failed", n, conns)
	}
	// One worker per connection and one server handler per socket
	// accepted during the run; the floor covers the sampler and the
	// transient goroutines of the cluster's own replication and timers.
	const slack = 64
	if budget := int64(floor) + conns + acceptedDuring + slack; peak.Load() > budget {
		t.Errorf("goroutine peak %d over budget %d (%d at boot + %d workers + %d accepted sockets + %d)",
			peak.Load(), budget, floor, conns, acceptedDuring, slack)
	}

	for _, node := range nodes {
		traces = append(traces, node.Traces()...)
	}
	groups := reqtrace.Stitch(traces)
	t.Logf("goroutine peak %d (boot %d), %d sockets accepted, %d trace fragments in %d groups",
		peak.Load(), floor, acceptedDuring, len(traces), len(groups))
	checkStageOrder(t, groups)
}
