// The cluster equivalence harness: seeded mixed workloads through a
// 3-node real-network (TCP) cluster must produce byte-identical
// responses and equal final databases to one in-process Store — the
// distribution layer (placement, forwarding, redirects, the wire) must
// be invisible to a client. Runs under -race in CI.
package cluster_test

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/cluster"
)

// testCluster is an in-process 3-node real-TCP cluster.
type testCluster struct {
	addrs []string
	nodes []*funcdb.ClusterNode
}

// startCluster is startClusterIn on n fresh temp directories.
func startCluster(t testing.TB, n int, relations []string) *testCluster {
	t.Helper()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	return startClusterIn(t, dirs, relations)
}

// repArchives returns n archive directories, each already holding node
// i's owned relations empty and rep-backed at version 0. A node opened
// on one serves rep: the representation is the archive's, not the
// node's.
func repArchives(t testing.TB, rep funcdb.Rep, n int, relations []string) []string {
	t.Helper()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = t.TempDir()
		st, err := funcdb.Open(
			funcdb.WithRelations(cluster.OwnedRelations(relations, i, n)...),
			funcdb.WithRepresentation(rep),
			funcdb.WithDurability(dirs[i]))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// startClusterIn binds one listener per directory first (so every node
// knows the full membership), then opens and serves the nodes, node i on
// the archive in dirs[i] (created if the directory is empty).
func startClusterIn(t testing.TB, dirs []string, relations []string) *testCluster {
	t.Helper()
	n := len(dirs)
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	tc := &testCluster{addrs: addrs, nodes: make([]*funcdb.ClusterNode, n)}
	for i := range lns {
		node, err := funcdb.OpenClusterNode(funcdb.ClusterNodeConfig{
			ID:        i,
			Nodes:     addrs,
			Listener:  lns[i],
			Dir:       dirs[i],
			Relations: relations,
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes[i] = node
		go node.Serve()
	}
	t.Cleanup(tc.shutdown)
	return tc
}

func (tc *testCluster) shutdown() {
	for _, n := range tc.nodes {
		if n != nil {
			n.Shutdown()
		}
	}
	tc.nodes = nil
}

// merged gathers the cluster's final state: relation name -> rendered
// tuples, assembled from every primary.
func (tc *testCluster) merged(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, n := range tc.nodes {
		cur := n.Store().Current()
		for _, name := range cur.RelationNames() {
			rel, _ := cur.RelationFast(name)
			var tuples []string
			for _, tu := range rel.Tuples() {
				tuples = append(tuples, tu.String())
			}
			if _, dup := out[name]; dup {
				t.Fatalf("relation %q present on two primaries", name)
			}
			out[name] = tuples
		}
	}
	return out
}

// storeContents renders one store the same way.
func storeContents(s *funcdb.Store) map[string][]string {
	out := map[string][]string{}
	cur := s.Current()
	for _, name := range cur.RelationNames() {
		rel, _ := cur.RelationFast(name)
		var tuples []string
		for _, tu := range rel.Tuples() {
			tuples = append(tuples, tu.String())
		}
		out[name] = tuples
	}
	return out
}

func diffContents(t *testing.T, want, got map[string][]string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("relation sets differ: %d in-process vs %d cluster", len(want), len(got))
	}
	for name, wtuples := range want {
		gtuples, ok := got[name]
		if !ok {
			t.Fatalf("relation %q missing from the cluster", name)
		}
		if strings.Join(wtuples, " ") != strings.Join(gtuples, " ") {
			t.Fatalf("relation %q diverged:\n  in-process: %v\n  cluster:    %v", name, wtuples, gtuples)
		}
	}
}

// executor is the surface the harness drives; the in-process store, the
// cluster client, and a plain gateway connection all satisfy it.
type executor interface {
	Exec(q string) (funcdb.Response, error)
	ExecBatch(qs []string) ([]funcdb.Response, error)
}

// seededQueries is the PR 4 mixed workload at the query-text level:
// reads, writes, ranges, creates (including duplicate creates — error
// responses) and unknown-relation probes.
func seededQueries(r *rand.Rand, n int, rels []string, allowCreate bool) []string {
	names := append([]string(nil), rels...)
	created := 0
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		rel := names[r.Intn(len(names))]
		k := r.Intn(12)
		switch r.Intn(10) {
		case 0, 1:
			out = append(out, fmt.Sprintf("insert (%d, \"v%d\") into %s", k, k, rel))
		case 2:
			out = append(out, fmt.Sprintf("delete %d from %s", k, rel))
		case 3:
			out = append(out, fmt.Sprintf("find %d in %s", k, rel))
		case 4:
			out = append(out, "count "+rel)
		case 5:
			out = append(out, "scan "+rel)
		case 6:
			out = append(out, fmt.Sprintf("range 2 9 in %s", rel))
		case 7:
			if allowCreate && r.Intn(2) == 0 && created < 3 {
				name := fmt.Sprintf("N%d", created)
				created++
				names = append(names, name)
				out = append(out, "create "+name+" using avl")
			} else {
				out = append(out, "create "+names[r.Intn(len(names))])
			}
		case 8:
			out = append(out, fmt.Sprintf("find %d in NOPE", k))
		default:
			out = append(out, fmt.Sprintf("insert (%d, \"w\") into %s", 20+k, rel))
		}
	}
	return out
}

// runChunked drives mixed single statements and batches with seeded
// chunk boundaries, so every executor sees the identical call sequence.
func runChunked(ex executor, queries []string, chunkSeed int64) ([]string, error) {
	r := rand.New(rand.NewSource(chunkSeed))
	var out []string
	for i := 0; i < len(queries); {
		n := 1 + r.Intn(16)
		if i+n > len(queries) {
			n = len(queries) - i
		}
		if n == 1 {
			resp, err := ex.Exec(queries[i])
			if err != nil {
				return nil, fmt.Errorf("exec %q: %w", queries[i], err)
			}
			out = append(out, resp.String())
		} else {
			resps, err := ex.ExecBatch(queries[i : i+n])
			if err != nil {
				return nil, fmt.Errorf("batch at %d: %w", i, err)
			}
			for _, resp := range resps {
				out = append(out, resp.String())
			}
		}
		i += n
	}
	return out, nil
}

// clusterRels covers all three nodes of the test clusters: under the
// placement hash with n=3, S/U/V land on node 0, R/T on node 1, W on
// node 2.
var clusterRels = []string{"R", "S", "T", "U", "V", "W"}

// referenceRun executes the workload on one in-process store with the
// same origin and returns the rendered responses plus the final state.
func referenceRun(t *testing.T, queries []string, chunkSeed int64) ([]string, map[string][]string) {
	t.Helper()
	ref := funcdb.MustOpen(funcdb.WithRelations(clusterRels...), funcdb.WithOrigin("c0"))
	defer ref.Close()
	out, err := runChunked(ref, queries, chunkSeed)
	if err != nil {
		t.Fatal(err)
	}
	ref.Barrier()
	return out, storeContents(ref)
}

func compareRuns(t *testing.T, queries, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d reference responses vs %d cluster responses", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("response %d (%q) differs:\n  in-process: %s\n  cluster:    %s",
				i, queries[i], want[i], got[i])
		}
	}
}

// TestClusterEquivalence: the same seeded workload, the same chunking,
// one run in-process and one through DialCluster against a 3-node
// real-TCP cluster — responses must render byte-identically and the
// merged final databases must be equal. The cluster client is given the
// full membership, so it routes every statement straight to its owner.
//
// The cluster run happens three times: on fresh nodes (paged primaries),
// on nodes opened over list-written archives — the shape the paper's own
// experiments ran on — and on nodes opened over AVL-written archives, what
// every cluster node created between PR 16 and PR 20 left on disk. The
// archive-backed primaries keep their shape and are mirrored into pages.
// Placement, replication and the log know nothing of the shape, so beyond
// all matching the oracle the clusters must end on the same log sequence
// number node by node.
func TestClusterEquivalence(t *testing.T) {
	cells := []struct {
		name    string
		want    funcdb.Rep // what the primaries' schema relations must report
		archive bool       // opened over archives written as want
	}{
		{"fresh", cluster.FreshRep, false},
		{"list", funcdb.RepList, true},
		{"avl", funcdb.RepAVL, true},
	}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			queries := seededQueries(r, 120+r.Intn(60), clusterRels, true)
			want, wantState := referenceRun(t, queries, seed*7)

			var seqs [][]int64 // per cell, per node
			for _, cell := range cells {
				var tc *testCluster
				if cell.archive {
					tc = startClusterIn(t, repArchives(t, cell.want, 3, clusterRels), clusterRels)
				} else {
					tc = startCluster(t, 3, clusterRels)
				}
				cc, err := client.DialCluster(tc.addrs, client.WithClusterOrigin("c0"))
				if err != nil {
					t.Fatal(err)
				}
				got, err := runChunked(cc, queries, seed*7)
				cc.Close()
				if err != nil {
					t.Fatalf("%s: %v", cell.name, err)
				}
				compareRuns(t, queries, want, got)
				nodeSeqs := make([]int64, len(tc.nodes))
				for i, n := range tc.nodes {
					n.Store().Barrier()
					nodeSeqs[i] = n.Store().Version()
					cur := n.Store().Current()
					for _, name := range clusterRels {
						if rel, ok := cur.RelationFast(name); ok && rel.Rep() != cell.want {
							t.Fatalf("%s: node %d holds %q as %v, want %v", cell.name, i, name, rel.Rep(), cell.want)
						}
					}
				}
				seqs = append(seqs, nodeSeqs)
				diffContents(t, wantState, tc.merged(t))
				tc.shutdown()
			}
			for c := 1; c < len(cells); c++ {
				for i := range seqs[0] {
					if seqs[0][i] != seqs[c][i] {
						t.Fatalf("node %d ended at log sequence %d on %s but %d on %s",
							i, seqs[0][i], cells[0].name, seqs[c][i], cells[c].name)
					}
				}
			}
		})
	}
}

// TestClusterSeedDiscovery: a cluster client given ONE seed address
// (not the full membership) must still complete the workload — placement
// is discovered by chasing one Redirect per relation and cached, so a
// relation's second statement goes straight to its owner.
func TestClusterSeedDiscovery(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	queries := seededQueries(r, 150, clusterRels, true)
	want, wantState := referenceRun(t, queries, 99)

	tc := startCluster(t, 3, clusterRels)
	cc, err := client.DialCluster(tc.addrs[:1], client.WithClusterOrigin("c0"))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	got, err := runChunked(cc, queries, 99)
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, queries, want, got)
	for _, n := range tc.nodes {
		n.Store().Barrier()
	}
	diffContents(t, wantState, tc.merged(t))
}

// TestClusterGatewayEquivalence: a PLAIN client (no cluster awareness)
// dialed into one node must see the identical response stream too — the
// node is a transparent gateway, forwarding statements for relations it
// does not own over its persistent peer connections.
func TestClusterGatewayEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	queries := seededQueries(r, 160, clusterRels, true)
	want, wantState := referenceRun(t, queries, 13)

	tc := startCluster(t, 3, clusterRels)
	// Dial the node that owns none of ... any node works; pick node 1.
	c, err := client.Dial(tc.addrs[1], client.WithOrigin("c0"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := runChunked(c, queries, 13)
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, queries, want, got)
	for _, n := range tc.nodes {
		n.Store().Barrier()
	}
	diffContents(t, wantState, tc.merged(t))
}

// relOwnedBy finds a relation name owned by the given node index.
func relOwnedBy(t *testing.T, tc *testCluster, node int) string {
	t.Helper()
	for _, rel := range clusterRels {
		if cluster.OwnerIndex(rel, len(tc.addrs)) == node {
			return rel
		}
	}
	t.Fatalf("no test relation owned by node %d", node)
	return ""
}

// TestReplicaStaleness: a replica read is stamped with a version that
// never exceeds the primary's, after the primary settles the replica
// catches up to the exact primary version and contents, and a write
// through the replica path is refused.
func TestReplicaStaleness(t *testing.T) {
	tc := startCluster(t, 3, clusterRels)
	rel := relOwnedBy(t, tc, 2)
	owner := tc.nodes[2]

	// Writes go to the owner; a client anchored at node 0 reads the
	// replica.
	cc, err := client.DialCluster(tc.addrs, client.WithClusterOrigin("c0"))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	const writes = 60
	for i := 0; i < writes; i++ {
		if _, err := cc.Exec(fmt.Sprintf("insert (%d, \"v\") into %s", i, rel)); err != nil {
			t.Fatal(err)
		}
		if i%10 != 0 {
			continue
		}
		resp, err := cc.ExecReplica("count " + rel)
		if err != nil {
			t.Fatal(err)
		}
		primary := owner.Store().Current().Version()
		if resp.Version > primary {
			t.Fatalf("replica read version %d exceeds primary version %d", resp.Version, primary)
		}
		if int64(resp.Count) > primary {
			t.Fatalf("replica count %d exceeds primary version %d", resp.Count, primary)
		}
	}

	// Settle the primary, then wait for the replica to catch up: the
	// stream is asynchronous, but it must converge.
	owner.Store().Barrier()
	primary := owner.Store().Current().Version()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v := tc.nodes[0].ReplicaVersion(2); v == primary {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d, primary at %d", tc.nodes[0].ReplicaVersion(2), primary)
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := cc.ExecReplica("count " + rel)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != primary {
		t.Fatalf("caught-up replica read stamped %d, primary at %d", resp.Version, primary)
	}
	if resp.Count != writes {
		t.Fatalf("caught-up replica sees %d tuples, want %d", resp.Count, writes)
	}
	// The primary path never stamps a version: reads at the owner are
	// current by construction.
	direct, err := cc.Exec("count " + rel)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Version != 0 {
		t.Fatalf("primary read unexpectedly stamped version %d", direct.Version)
	}
	// A replica serves reads only: a write is refused before it is sent.
	if _, err := cc.ExecReplica(fmt.Sprintf("insert (%d, \"v\") into %s", writes, rel)); err == nil {
		t.Fatal("ExecReplica accepted a write")
	}
}

// TestForwardedBatchErrorIndex: a batch with an unparseable statement
// must report the statement's ORIGINAL index wherever translation
// happens — at the cluster client, or at a gateway node that would have
// forwarded the rest of the batch to other owners.
func TestForwardedBatchErrorIndex(t *testing.T) {
	tc := startCluster(t, 3, clusterRels)
	// Build a batch whose statements belong to different owners, with the
	// broken statement NOT first, so the failure crosses the split/
	// forward machinery.
	batch := []string{
		"insert (1, \"a\") into " + relOwnedBy(t, tc, 0),
		"insert (2, \"b\") into " + relOwnedBy(t, tc, 1),
		"insert (3 BROKEN",
		"insert (4, \"d\") into " + relOwnedBy(t, tc, 2),
	}

	cc, err := client.DialCluster(tc.addrs, client.WithClusterOrigin("cc"))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	_, err = cc.ExecBatch(batch)
	var be *funcdb.BatchError
	if !asBatchError(err, &be) || be.Index != 2 {
		t.Fatalf("cluster client: want BatchError index 2, got %v", err)
	}

	// Same through a plain gateway connection: the node translates the
	// batch before routing any of it, so the index survives even though
	// the healthy statements would have been forwarded.
	c, err := client.Dial(tc.addrs[0], client.WithOrigin("pc"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.ExecBatch(batch)
	if !asBatchError(err, &be) || be.Index != 2 {
		t.Fatalf("gateway: want BatchError index 2, got %v", err)
	}
	// Nothing of the failed batch was admitted anywhere.
	for _, n := range tc.nodes {
		n.Store().Barrier()
		if tuples := n.Store().Current().TotalTuples(); tuples != 0 {
			t.Fatalf("node %d admitted %d tuples from a failed batch", n.ID(), tuples)
		}
	}
}

// asBatchError unwraps err into a *funcdb.BatchError.
func asBatchError(err error, be **funcdb.BatchError) bool {
	return errors.As(err, be)
}
