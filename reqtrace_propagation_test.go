package funcdb_test

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/core"
	"funcdb/internal/reqtrace"
)

// bootTracedCluster spins up an n-node loopback cluster with tracing on
// (every request sampled) and returns the addresses and nodes. Cleanup
// is registered on t.
func bootTracedCluster(t *testing.T, n int) ([]string, []*funcdb.ClusterNode) {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*funcdb.ClusterNode, n)
	for i := range nodes {
		node, err := funcdb.OpenClusterNode(funcdb.ClusterNodeConfig{
			ID: i, Nodes: addrs, Listener: lns[i],
			Dir:       filepath.Join(dir, fmt.Sprintf("n%d", i)),
			Relations: []string{"R", "S", "T"},
			Tracing:   &funcdb.TracingConfig{SampleEvery: 1, Ring: 1 << 13},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		go node.Serve()
		t.Cleanup(func() { node.Shutdown() })
	}
	return addrs, nodes
}

// TestTracePropagationThreeNodes drives ONE sampled write through the
// longest path a request can take — client → gateway (a node that does
// not own the relation) → owning primary → mirror apply — and asserts
// a single trace id stitches fragments from every hop, collected from
// both trace surfaces the library offers: the ClusterNode.Traces API
// and the wire Introspect frame.
func TestTracePropagationThreeNodes(t *testing.T) {
	addrs, nodes := bootTracedCluster(t, 3)

	// A relation NOT owned by node 0, so dialing node 0 makes it a
	// gateway that must forward (placement is the lane hash).
	rel := ""
	for _, r := range []string{"R", "S", "T"} {
		if core.LaneOf(r, 3) != 0 {
			rel = r
			break
		}
	}
	if rel == "" {
		t.Fatal("no relation maps off node 0")
	}
	owner := core.LaneOf(rel, 3)

	cl, err := client.Dial(addrs[0], client.WithOrigin("tracer"),
		client.WithTracing(funcdb.TracingConfig{SampleEvery: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Exec(fmt.Sprintf("insert (7, \"traced\") into %s", rel))
	if err != nil || resp.Err != nil {
		t.Fatalf("traced insert: %v %v", err, resp.Err)
	}

	local := cl.LocalTraces()
	if len(local) != 1 || local[0].Hop != 0 {
		t.Fatalf("client recorded %d traces, want exactly the one sampled request at hop 0", len(local))
	}
	id := local[0].ID

	// The mirror's apply leg is asynchronous: poll until every hop's
	// fragment is published, then assert the shape.
	deadline := time.Now().Add(5 * time.Second)
	var all []funcdb.RequestTrace
	hops := map[int]bool{}
	for {
		all = all[:0]
		all = append(all, local...)
		for _, node := range nodes {
			all = append(all, node.Traces()...)
		}
		hops = map[int]bool{}
		for _, tr := range all {
			if tr.ID == id {
				hops[tr.Hop] = true
			}
		}
		if hops[0] && hops[1] && hops[2] && hops[3] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never completed: hops seen %v (want 0..3: client, gateway, owner, mirror)", id, hops)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// One stitched group, with the stages each role must have recorded.
	var group []funcdb.RequestTrace
	for _, g := range reqtrace.Stitch(all) {
		if g[0].ID == id {
			group = g
			break
		}
	}
	stagesAt := func(hop int) map[string]bool {
		out := map[string]bool{}
		for _, tr := range group {
			if tr.Hop != hop {
				continue
			}
			for _, s := range tr.Spans {
				out[s.Stage] = true
			}
		}
		return out
	}
	if !stagesAt(0)["client-send"] {
		t.Errorf("client fragment missing client-send: %v", stagesAt(0))
	}
	gw := stagesAt(1)
	for _, want := range []string{"conn-read", "decode", "forward-hop", "flush"} {
		if !gw[want] {
			t.Errorf("gateway fragment missing %s: %v", want, gw)
		}
	}
	own := stagesAt(2)
	for _, want := range []string{"decode", "lane-commit", "flush"} {
		if !own[want] {
			t.Errorf("owner fragment missing %s: %v", want, own)
		}
	}
	if !stagesAt(3)["replica-apply"] {
		t.Errorf("mirror fragment missing replica-apply: %v", stagesAt(3))
	}
	checkStageOrder(t, [][]funcdb.RequestTrace{group})
	for _, tr := range group {
		switch tr.Hop {
		case 0:
			if !strings.HasPrefix(tr.Node, "client:") {
				t.Errorf("hop 0 on %q, want the client", tr.Node)
			}
		case 2:
			if tr.Node != fmt.Sprintf("node%d", owner) {
				t.Errorf("hop 2 on %q, want the owner node%d", tr.Node, owner)
			}
		}
	}

	// Second surface: the wire Introspect frame must serve the gateway's
	// fragment of the same trace.
	remote, err := cl.Traces()
	if err != nil {
		t.Fatalf("wire Traces: %v", err)
	}
	found := false
	for _, tr := range remote {
		if tr.ID == id && tr.Hop == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("wire Traces from the gateway does not carry trace %s at hop 1", id)
	}

	// And the renderer must lay the whole journey out as one tree.
	text := reqtrace.Render(group)
	if !strings.Contains(text, id) || !strings.Contains(text, "replica-apply") {
		t.Errorf("rendered trace incomplete:\n%s", text)
	}
}

// requestBackbone is the span sequence every request-path server
// fragment records, in causal order.
var requestBackbone = []string{"conn-read", "decode", "encode", "flush"}

// checkStageOrder holds stitched trace groups to the tracing pipeline's
// invariants. A hop missing from a group is not a fault (every recorder
// keeps a bounded ring, so one side's fragment can outlive another's);
// every fragment that is present must satisfy:
//
//   - no span has a negative duration;
//   - a client fragment (node "client:*") carries client-send;
//   - a request-path server fragment carries conn-read and decode, and
//     the backbone stages it has start in backbone order;
//   - fragments of consecutive hops start in hop order (wall clocks,
//     meaningful in one process).
//
// And across all groups, some group stitches a client fragment to a
// server fragment with the full backbone, and some fragment reaches
// replica-apply: the whole pipeline, observed end to end at least once.
func checkStageOrder(t *testing.T, groups [][]funcdb.RequestTrace) {
	t.Helper()
	var problems []string
	problem := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	spanStart := func(tr funcdb.RequestTrace, stage string) (int64, bool) {
		for _, s := range tr.Spans {
			if s.Stage == stage {
				return s.Start, true
			}
		}
		return 0, false
	}
	fullPath, applySeen := false, false
	for _, g := range groups {
		id := g[0].ID
		hasClient, hasFullServer := false, false
		for _, tr := range g {
			for _, s := range tr.Spans {
				if s.Dur < 0 {
					problem("trace %s: %s span on %s has negative duration", id, s.Stage, tr.Node)
				}
			}
			if strings.HasPrefix(tr.Node, "client:") {
				hasClient = true
				if _, ok := spanStart(tr, "client-send"); !ok {
					problem("trace %s: client fragment (%s) missing client-send", id, tr.Node)
				}
				continue
			}
			if _, ok := spanStart(tr, "replica-apply"); ok {
				applySeen = true
				continue
			}
			// conn-read and decode are recorded the instant the frame is
			// read; later stages may be absent (a redirect reply), but those
			// present must be in order.
			last, complete := int64(0), true
			for _, stage := range requestBackbone {
				start, ok := spanStart(tr, stage)
				if !ok {
					complete = false
					if stage == "conn-read" || stage == "decode" {
						problem("trace %s: hop %d (%s) missing %s", id, tr.Hop, tr.Node, stage)
					}
					continue
				}
				if start < last {
					problem("trace %s: hop %d (%s) starts %s before its predecessor", id, tr.Hop, tr.Node, stage)
				}
				last = start
			}
			hasFullServer = hasFullServer || complete
		}
		fullPath = fullPath || hasClient && hasFullServer
		// A later hop cannot start before the earliest span of the hop
		// that caused it. conn-read is excluded: it is a waiting span that
		// begins when the server blocks on the socket, before the previous
		// hop has sent anything.
		earliest := map[int]int64{}
		for _, tr := range g {
			for _, s := range tr.Spans {
				if s.Stage == "conn-read" {
					continue
				}
				if cur, ok := earliest[tr.Hop]; !ok || s.Start < cur {
					earliest[tr.Hop] = s.Start
				}
			}
		}
		for h, start := range earliest {
			if prev, ok := earliest[h-1]; ok && start < prev {
				problem("trace %s: hop %d starts before hop %d", id, h, h-1)
			}
		}
	}
	if !fullPath {
		problem("no stitched trace carries a client fragment and the full %v backbone", requestBackbone)
	}
	if !applySeen {
		problem("no trace reaches replica-apply")
	}
	const shown = 16
	for i, p := range problems {
		if i == shown {
			t.Errorf("... and %d more stage-order problems", len(problems)-shown)
			break
		}
		t.Error(p)
	}
}

// TestTraceDisabledIsInvisible checks the default: with no Tracing
// config the cluster publishes nothing and the client refuses nothing —
// requests run exactly as before, Traces just comes back empty.
func TestTraceDisabledIsInvisible(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := funcdb.OpenClusterNode(funcdb.ClusterNodeConfig{
		ID: 0, Nodes: []string{ln.Addr().String()}, Listener: ln,
		Dir: filepath.Join(dir, "n0"), Relations: []string{"R"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Shutdown() })
	go node.Serve()

	cl, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if resp, err := cl.Exec(`insert (1, "v") into R`); err != nil || resp.Err != nil {
		t.Fatalf("exec: %v %v", err, resp.Err)
	}
	if ts := node.Traces(); len(ts) != 0 {
		t.Errorf("untraced node published %d traces", len(ts))
	}
	if ts, err := cl.Traces(); err != nil || len(ts) != 0 {
		t.Errorf("wire Traces on an untraced node = %d traces, %v", len(ts), err)
	}
}
