// Prepared statements across the cluster: a prepared workload must be
// indistinguishable from the same workload as text — through the
// cluster-aware client (hash-carrying tagged Request frames straight to
// each owner), through a plain connection to one gateway node (the node
// re-forwards over its peer links), and across a primary SIGKILL
// mid-workload (handles forget per-owner registrations with placement
// and transparently re-prepare at the promoted owner). Runs under -race
// in CI.
package cluster_test

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/cluster"
	"funcdb/internal/value"
)

// clusterPreparedOp is one workload step in both text and template form.
type clusterPreparedOp struct {
	text     string
	template string
	args     []funcdb.Item
}

// seededClusterPreparedOps renders the cluster mixed workload (no
// creates — the directory stays fixed) in template form: a handful of
// distinct templates reused across the run, spread over every node's
// relations.
func seededClusterPreparedOps(r *rand.Rand, n int, rels []string) []clusterPreparedOp {
	out := make([]clusterPreparedOp, 0, n)
	for i := 0; i < n; i++ {
		rel := rels[r.Intn(len(rels))]
		k := r.Intn(12)
		switch r.Intn(8) {
		case 0, 1, 2:
			out = append(out, clusterPreparedOp{
				text:     fmt.Sprintf("insert (%d, \"v%d\") into %s", k, k, rel),
				template: "insert (?, ?) into " + rel,
				args:     []funcdb.Item{value.Int(int64(k)), value.Str(fmt.Sprintf("v%d", k))},
			})
		case 3:
			out = append(out, clusterPreparedOp{
				text:     fmt.Sprintf("delete %d from %s", k, rel),
				template: "delete ? from " + rel,
				args:     []funcdb.Item{value.Int(int64(k))},
			})
		case 4, 5:
			out = append(out, clusterPreparedOp{
				text:     fmt.Sprintf("find %d in %s", k, rel),
				template: "find ? in " + rel,
				args:     []funcdb.Item{value.Int(int64(k))},
			})
		case 6:
			out = append(out, clusterPreparedOp{text: "count " + rel, template: "count " + rel})
		default:
			out = append(out, clusterPreparedOp{
				text:     fmt.Sprintf("find %d in NOPE", k), // unknown relation probe
				template: "find ? in NOPE",
				args:     []funcdb.Item{value.Int(int64(k))},
			})
		}
	}
	return out
}

// preparedExecutor is the prepared-handle surface both client flavors
// offer; the harness drives either through one code path.
type preparedExecutor interface {
	Exec(args ...funcdb.Item) (funcdb.Response, error)
}

// runClusterPrepared executes the workload through prepared handles, one
// per distinct template, created by prepare.
func runClusterPrepared(ops []clusterPreparedOp, prepare func(string) preparedExecutor) ([]string, error) {
	handles := make(map[string]preparedExecutor)
	var out []string
	for _, op := range ops {
		h, ok := handles[op.template]
		if !ok {
			h = prepare(op.template)
			handles[op.template] = h
		}
		resp, err := h.Exec(op.args...)
		if err != nil {
			return nil, fmt.Errorf("prepared exec %q: %w", op.text, err)
		}
		out = append(out, resp.String())
	}
	return out, nil
}

// referenceTextRun executes the same ops as sequential text against one
// in-process store.
func referenceTextRun(t *testing.T, ops []clusterPreparedOp) ([]string, map[string][]string) {
	t.Helper()
	ref := funcdb.MustOpen(funcdb.WithRelations(clusterRels...), funcdb.WithOrigin("c0"))
	defer ref.Close()
	var out []string
	for _, op := range ops {
		resp, err := ref.Exec(op.text)
		if err != nil {
			t.Fatalf("reference exec %q: %v", op.text, err)
		}
		out = append(out, resp.String())
	}
	ref.Barrier()
	return out, storeContents(ref)
}

func comparePreparedRuns(t *testing.T, ops []clusterPreparedOp, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d reference responses vs %d prepared responses", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("response %d (%q) differs:\n  text:     %s\n  prepared: %s",
				i, ops[i].text, want[i], got[i])
		}
	}
}

// TestClusterPreparedEquivalence: the seeded workload once as in-process
// text, once as ClusterStmt executions against a 3-node TCP cluster.
// After the first contact per (template, owner) every frame on the wire
// carries only the hash and the positional arguments — and the response
// stream and final contents must still be byte-identical.
func TestClusterPreparedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			ops := seededClusterPreparedOps(r, 150+r.Intn(50), clusterRels)
			want, wantState := referenceTextRun(t, ops)

			tc := startCluster(t, 3, clusterRels)
			cc, err := client.DialCluster(tc.addrs, client.WithClusterOrigin("c0"))
			if err != nil {
				t.Fatal(err)
			}
			defer cc.Close()
			got, err := runClusterPrepared(ops, func(template string) preparedExecutor {
				return cc.Prepare(template)
			})
			if err != nil {
				t.Fatal(err)
			}
			comparePreparedRuns(t, ops, want, got)
			for _, n := range tc.nodes {
				n.Store().Barrier()
			}
			diffContents(t, wantState, tc.merged(t))
		})
	}
}

// TestClusterGatewayPrepared: a PLAIN client prepares on ONE node and
// executes statements for every node's relations. The gateway re-forwards
// non-owned prepared executions to each owner over its peer links as
// tagged Request frames (hash + args, text included), and the
// response stream must match the in-process reference exactly.
func TestClusterGatewayPrepared(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	ops := seededClusterPreparedOps(r, 180, clusterRels)
	want, wantState := referenceTextRun(t, ops)

	tc := startCluster(t, 3, clusterRels)
	c, err := client.Dial(tc.addrs[1], client.WithOrigin("c0"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := runClusterPrepared(ops, func(template string) preparedExecutor {
		return c.Prepare(template)
	})
	if err != nil {
		t.Fatal(err)
	}
	comparePreparedRuns(t, ops, want, got)
	for _, n := range tc.nodes {
		n.Store().Barrier()
	}
	diffContents(t, wantState, tc.merged(t))
}

// TestPreparedFailoverPromotion is satellite 1's scenario end to end: a
// prepared workload is mid-flight when its relation's primary is
// SIGKILLed. The handle must ride through the promotion — forget the dead
// owner's registration along with the placement, re-prepare at the
// winner, and keep every acked insert — with zero caller-visible errors.
func TestPreparedFailoverPromotion(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	lns := make([]net.Listener, 3)
	addrs := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	lns[2].Close() // the subprocess rebinds this port

	tc := &testCluster{addrs: addrs, nodes: make([]*funcdb.ClusterNode, 3)}
	for i := 0; i < 2; i++ {
		node, err := funcdb.OpenClusterNode(funcdb.ClusterNodeConfig{
			ID: i, Nodes: addrs, Listener: lns[i], Dir: t.TempDir(),
			Relations: clusterRels,
			Failover:  &cluster.FailoverConfig{Heartbeat: 50 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes[i] = node
		go node.Serve()
	}
	defer tc.shutdown()

	doomedDir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestClusterNodeHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"FDB_CLUSTER_NODES="+strings.Join(addrs, ","),
		"FDB_CLUSTER_ID=2",
		"FDB_CLUSTER_DIR="+doomedDir,
		"FDB_CLUSTER_FAILOVER_MS=50",
	)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	waitReachable(t, addrs[2])
	for i := 0; i < 2; i++ {
		if err := tc.nodes[i].WaitReady(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	rel := relOwnedBy(t, tc, 2) // the subprocess's relation
	slot := cluster.OwnerIndex(rel, 3)
	cc, err := client.DialCluster(addrs,
		client.WithClusterOrigin("fo"),
		client.WithFailoverRetry(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	insert := cc.Prepare("insert (?, ?) into " + rel)
	find := cc.Prepare("find ? in " + rel)

	// Sequential acked prepared inserts; the SIGKILL lands mid-stream.
	// Before the crash the statement is registered at the doomed owner and
	// frames carry only hash + args — exactly the state a promotion must
	// not strand.
	const half, total = 20, 80
	doInsert := func(i int) {
		t.Helper()
		resp, err := insert.Exec(value.Int(int64(i)), value.Str(fmt.Sprintf("v%d", i)))
		if err != nil || resp.Err != nil {
			t.Fatalf("prepared insert %d not acked: %v / %v", i, err, resp.Err)
		}
	}
	for i := 0; i < half; i++ {
		doInsert(i)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, _ = cmd.Process.Wait()
	resumed := time.Now()
	for i := half; i < total; i++ {
		doInsert(i)
	}
	t.Logf("prepared workload resumed %v after SIGKILL", time.Since(resumed).Round(time.Millisecond))

	// Exactly one survivor serves the slot, in a promoted epoch.
	winner, epoch := waitPromoted(t, tc, []int{0, 1}, slot, 2, 0)
	if n := servingCount(tc, []int{0, 1}, slot); n != 1 {
		t.Fatalf("%d survivors serve slot %d, want exactly 1", n, slot)
	}
	t.Logf("slot %d promoted to node %d in epoch %d", slot, winner, epoch)

	// Zero acked inserts lost, read back through the prepared handle (its
	// own registration also re-prepares at the winner).
	for i := 0; i < total; i++ {
		resp, err := find.Exec(value.Int(int64(i)))
		if err != nil || resp.Err != nil || !resp.Found {
			t.Fatalf("acked prepared insert %d lost after failover (err %v resp %+v)", i, err, resp)
		}
	}
}
