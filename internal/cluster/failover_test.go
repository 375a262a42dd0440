// Leader failover under real faults: a SIGKILLed primary's slot moves to
// the most-caught-up mirror within the lease window with zero acked
// commits lost; a partition produces exactly one epoch winner and no
// dual-serve; the promotion kill matrix crashes the primary at every
// awkward phase and the winner always holds an exact gap-free prefix of
// the acked workload. Runs under -race in CI.
package cluster_test

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/archive"
	"funcdb/internal/cluster"
)

// foOpts shapes one failover test cluster.
type foOpts struct {
	n     int
	lanes int
	hb    time.Duration           // heartbeat (lease = 4x); 0 = 40ms
	ft    *cluster.FaultTransport // optional fault injector on peer links
	dirs  []string                // archive directory per node; nil = fresh temp dirs
	trace *funcdb.TracingConfig   // request tracing on every node; nil = off
}

// startFailoverCluster is startCluster with leases, promotion, and epoch
// fencing on, waiting out every node's boot probation so the first
// statement already has a settled ownership view.
func startFailoverCluster(t testing.TB, o foOpts) *testCluster {
	t.Helper()
	if o.hb == 0 {
		o.hb = 40 * time.Millisecond
	}
	lns := make([]net.Listener, o.n)
	addrs := make([]string, o.n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	if o.dirs == nil {
		o.dirs = make([]string, o.n)
		for i := range o.dirs {
			o.dirs[i] = t.TempDir()
		}
	}
	tc := &testCluster{addrs: addrs, nodes: make([]*funcdb.ClusterNode, o.n)}
	for i := range lns {
		tc.nodes[i] = openFailoverNode(t, o, i, addrs, lns[i])
	}
	t.Cleanup(tc.shutdown)
	for _, node := range tc.nodes {
		if err := node.WaitReady(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return tc
}

// openFailoverNode opens and serves node i of a failover test cluster
// shaped by o (its heartbeat and directories already filled in) on ln.
func openFailoverNode(t testing.TB, o foOpts, i int, addrs []string, ln net.Listener) *funcdb.ClusterNode {
	t.Helper()
	cfg := funcdb.ClusterNodeConfig{
		ID: i, Nodes: addrs, Listener: ln, Dir: o.dirs[i],
		Relations: clusterRels, Lanes: o.lanes, Tracing: o.trace,
		Failover: &cluster.FailoverConfig{Heartbeat: o.hb},
	}
	if o.ft != nil {
		name := fmt.Sprintf("node%d", i)
		cfg.Dialer = o.ft.Dialer(name)
		o.ft.Locate(name, addrs[i])
	}
	node, err := funcdb.OpenClusterNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go node.Serve()
	return node
}

// waitPromoted polls the given live nodes until every one of them agrees
// some NEW owner (not oldOwner) serves the slot in an epoch > atLeast,
// returning the agreed owner and epoch.
func waitPromoted(t *testing.T, tc *testCluster, live []int, slot, oldOwner int, atLeast uint64) (owner int, epoch uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		owner, epoch = -1, 0
		agreed := true
		for _, id := range live {
			o, e, _ := tc.nodes[id].FailoverInfo(slot)
			if o == oldOwner || e <= atLeast {
				agreed = false
				break
			}
			if owner == -1 {
				owner, epoch = o, e
			} else if o != owner || e != epoch {
				agreed = false
				break
			}
		}
		if agreed && owner >= 0 {
			return owner, epoch
		}
		if time.Now().After(deadline) {
			for _, id := range live {
				o, e, s := tc.nodes[id].FailoverInfo(slot)
				t.Logf("node %d: slot %d owner=%d epoch=%d serving=%v", id, slot, o, e, s)
			}
			t.Fatalf("slot %d never moved off node %d past epoch %d", slot, oldOwner, atLeast)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// servingCount returns how many of the given nodes claim to serve the
// slot locally.
func servingCount(tc *testCluster, ids []int, slot int) int {
	n := 0
	for _, id := range ids {
		if _, _, serving := tc.nodes[id].FailoverInfo(slot); serving {
			n++
		}
	}
	return n
}

// takeoverRep reads the representation a takeover store holds rel in,
// from the snapshot its archive was created with (the promoted mirror's
// database): nodeDir is the winner's archive directory.
func takeoverRep(t *testing.T, nodeDir string, slot int, epoch uint64, rel string) funcdb.Rep {
	t.Helper()
	db, err := archive.Recover(filepath.Join(nodeDir, fmt.Sprintf("takeover-%d-e%d", slot, epoch)))
	if err != nil {
		t.Fatalf("takeover archive for slot %d epoch %d: %v", slot, epoch, err)
	}
	r, ok := db.RelationFast(rel)
	if !ok {
		t.Fatalf("takeover store for slot %d has no relation %q", slot, rel)
	}
	return r.Rep()
}

// TestFailoverKillPrimary is the headline: a real subprocess primary is
// SIGKILLed mid-workload. The cluster must resume acking that
// relation's writes (a mirror self-promotes), zero acked commits may be
// lost, and the restarted old primary must demote, catch up from the
// new primary's log, and converge byte-identically as a replica.
func TestFailoverKillPrimary(t *testing.T) {
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
	dirs := []string{t.TempDir(), t.TempDir()}
	for i := 0; i < 2; i++ {
		node, err := funcdb.OpenClusterNode(funcdb.ClusterNodeConfig{
			ID: i, Nodes: addrs, Listener: lns[i], Dir: dirs[i],
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
	spawnVictim := func() *exec.Cmd {
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
		waitReachable(t, addrs[2])
		return cmd
	}
	cmd := spawnVictim()
	defer cmd.Process.Kill()
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

	// Sequential acked inserts; the SIGKILL lands mid-stream. With the
	// retry budget every statement must eventually ack — the ones in
	// flight at the crash ride through the promotion.
	const half, total = 20, 80
	acked := 0
	insert := func(i int) {
		t.Helper()
		resp, err := cc.Exec(fmt.Sprintf("insert (%d, \"v%d\") into %s", i, i, rel))
		if err != nil || resp.Err != nil {
			t.Fatalf("insert %d not acked: %v / %v", i, err, resp.Err)
		}
		acked++
	}
	for i := 0; i < half; i++ {
		insert(i)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, _ = cmd.Process.Wait()
	resumed := time.Now()
	for i := half; i < total; i++ {
		insert(i)
	}
	t.Logf("workload resumed %v after SIGKILL", time.Since(resumed).Round(time.Millisecond))

	// Exactly one survivor serves the slot, in a promoted epoch.
	winner, epoch := waitPromoted(t, tc, []int{0, 1}, slot, 2, 0)
	if n := servingCount(tc, []int{0, 1}, slot); n != 1 {
		t.Fatalf("%d survivors serve slot %d, want exactly 1", n, slot)
	}
	if epoch == 0 {
		t.Fatalf("promotion left epoch 0")
	}
	t.Logf("slot %d promoted to node %d in epoch %d", slot, winner, epoch)
	// The takeover store is the winner's mirror promoted, so it holds the
	// relation in the mirror's shape: the cluster's, pages.
	if rep := takeoverRep(t, dirs[winner], slot, epoch, rel); rep != cluster.FreshRep {
		t.Fatalf("takeover store holds %q as %v, want %v", rel, rep, cluster.FreshRep)
	}

	// Zero acked commits lost: every insert is readable from the winner.
	for i := 0; i < total; i++ {
		resp, err := cc.Exec(fmt.Sprintf("find %d in %s", i, rel))
		if err != nil || resp.Err != nil || !resp.Found {
			t.Fatalf("acked insert %d lost after failover (err %v resp %+v)", i, err, resp)
		}
	}

	// Restart the old primary cold on the same archive. It must see the
	// higher epoch, demote, rewind past anything the winner never saw,
	// and converge to the winner's exact contents as a replica.
	cmd = spawnVictim()
	defer cmd.Process.Kill()

	primaryScan, err := cc.Exec("scan " + rel)
	if err != nil || primaryScan.Err != nil {
		t.Fatalf("scan on winner: %v / %v", err, primaryScan.Err)
	}
	want := make([]string, len(primaryScan.Tuples))
	for i, tu := range primaryScan.Tuples {
		want[i] = tu.String()
	}

	rejoined, err := client.DialCluster(addrs[2:3], client.WithClusterOrigin("rejoin"))
	if err != nil {
		t.Fatal(err)
	}
	defer rejoined.Close()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := rejoined.ExecReplica("scan " + rel)
		if err == nil && resp.Err == nil && len(resp.Tuples) == len(want) {
			got := make([]string, len(resp.Tuples))
			for i, tu := range resp.Tuples {
				got[i] = tu.String()
			}
			if strings.Join(got, " ") == strings.Join(want, " ") {
				break // byte-identical
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted primary never converged to the winner's contents (last err %v)", err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestTakeoverStreamCarriesItsTrace: after a promotion, the takeover
// store's log reaches the surviving mirror with each record's own trace
// context, so a sampled write to the promoted slot has its replica-apply
// span on that mirror under the write's trace id.
func TestTakeoverStreamCarriesItsTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("lease-timing test")
	}
	tc := startFailoverCluster(t, foOpts{n: 3, trace: &funcdb.TracingConfig{SampleEvery: 1}})
	const victim = 0
	rel := relOwnedBy(t, tc, victim)
	tc.nodes[victim].Kill()
	winner, _ := waitPromoted(t, tc, []int{1, 2}, victim, victim, 0)
	survivor := 3 - winner

	cc, err := client.DialCluster(tc.addrs,
		client.WithClusterOrigin("traced"),
		client.WithClusterTracing(funcdb.TracingConfig{SampleEvery: 1}),
		client.WithFailoverRetry(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	// The first acked write proves the survivor's mirror streams from the
	// winner: with the victim dead, only its ack can release the write.
	// Records it caught up on carry no context; the next write is live.
	exec := func(q string) map[string]bool {
		t.Helper()
		before := map[string]bool{}
		for _, tr := range cc.LocalTraces() {
			before[tr.ID] = true
		}
		if resp, err := cc.Exec(q); err != nil || resp.Err != nil {
			t.Fatalf("%s: %v / %v", q, err, resp.Err)
		}
		ids := map[string]bool{}
		for _, tr := range cc.LocalTraces() {
			if !before[tr.ID] {
				ids[tr.ID] = true
			}
		}
		return ids
	}
	exec(fmt.Sprintf("insert (1, \"warm\") into %s", rel))
	ids := exec(fmt.Sprintf("insert (2, \"traced\") into %s", rel))

	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, tr := range tc.nodes[survivor].Traces() {
			if !ids[tr.ID] {
				continue
			}
			for _, sp := range tr.Spans {
				if sp.Stage == "replica-apply" {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d never published a replica-apply span for trace %v of the write node %d applied as the takeover owner", survivor, ids, winner)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMixedRepresentationRestart: the representation is data, not a mode
// of the cluster. An archive written by a list-backed store — or by an
// AVL-backed one, which is what every cluster node wrote between PR 16 and
// PR 20 — is opened as a cluster node beside two fresh peers: the node
// keeps serving the shape its snapshot says, its peers mirror the same log
// into pages, replica reads off those mirrors agree with the primary, and
// when the old node dies the promoted mirror — a paged takeover store —
// answers with exactly what it held.
func TestMixedRepresentationRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("lease-timing test")
	}
	for _, rep := range []funcdb.Rep{funcdb.RepList, funcdb.RepAVL} {
		t.Run(rep.String(), func(t *testing.T) { mixedRepresentationRestart(t, rep) })
	}
}

func mixedRepresentationRestart(t *testing.T, oldRep funcdb.Rep) {
	const old = 2 // the node whose archive predates the cluster
	owned := cluster.OwnedRelations(clusterRels, old, 3)
	if len(owned) == 0 {
		t.Fatalf("node %d owns none of %v", old, clusterRels)
	}
	rel := owned[0]
	slot := cluster.OwnerIndex(rel, 3)

	// Generation 1: an oldRep-backed store writes the archive, then closes.
	oldDir := t.TempDir()
	gen1, err := funcdb.Open(
		funcdb.WithRelations(owned...),
		funcdb.WithRepresentation(oldRep),
		funcdb.WithDurability(oldDir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if resp, err := gen1.Exec(fmt.Sprintf("insert (%d, \"g1-%d\") into %s", i, i, rel)); err != nil || resp.Err != nil {
			t.Fatalf("generation 1 insert %d: %v / %v", i, err, resp.Err)
		}
	}
	if err := gen1.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 2: the same archive under the default config, two fresh
	// peers.
	dirs := []string{t.TempDir(), t.TempDir(), oldDir}
	tc := startFailoverCluster(t, foOpts{n: 3, dirs: dirs})
	scan := func(cc *client.ClusterClient, replica bool) string {
		t.Helper()
		exec := cc.Exec
		if replica {
			exec = cc.ExecReplica
		}
		resp, err := exec("scan " + rel)
		if err != nil || resp.Err != nil {
			t.Fatalf("scan %s (replica=%v): %v / %v", rel, replica, err, resp.Err)
		}
		out := make([]string, len(resp.Tuples))
		for i, tu := range resp.Tuples {
			out[i] = tu.String()
		}
		return strings.Join(out, " ")
	}
	cc, err := client.DialCluster(tc.addrs,
		client.WithClusterOrigin("gen2"),
		client.WithFailoverRetry(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for i := 40; i < 60; i++ {
		if resp, err := cc.Exec(fmt.Sprintf("insert (%d, \"g2-%d\") into %s", i, i, rel)); err != nil || resp.Err != nil {
			t.Fatalf("generation 2 insert %d: %v / %v", i, err, resp.Err)
		}
	}
	store := tc.nodes[old].Store()
	store.Barrier()
	if r, _ := store.Current().RelationFast(rel); r == nil || r.Rep() != oldRep {
		t.Fatalf("reopened node holds %q as %v, want the archive's %v", rel, r, oldRep)
	}
	primary := scan(cc, false)
	if n := strings.Count(primary, "("); n != 60 {
		t.Fatalf("primary holds %d tuples, want 60: %s", n, primary)
	}
	// The peers' mirrors replayed the whole log from sequence 0; once
	// caught up, a replica read off node 0's mirror is the primary's scan.
	deadline := time.Now().Add(10 * time.Second)
	for tc.nodes[0].ReplicaVersion(old) != store.Version() || tc.nodes[1].ReplicaVersion(old) != store.Version() {
		if time.Now().After(deadline) {
			t.Fatalf("mirrors stuck at %d/%d, primary at %d",
				tc.nodes[0].ReplicaVersion(old), tc.nodes[1].ReplicaVersion(old), store.Version())
		}
		time.Sleep(2 * time.Millisecond)
	}
	viaMirror, err := client.DialCluster(tc.addrs[:1], client.WithClusterOrigin("gen2-replica"))
	if err != nil {
		t.Fatal(err)
	}
	defer viaMirror.Close()
	if got := scan(viaMirror, true); got != primary {
		t.Fatalf("paged mirror diverged from its %v-backed primary:\n  primary: %s\n  mirror:  %s", oldRep, primary, got)
	}

	// Kill the old primary: a mirror is promoted, and the takeover store it
	// becomes is paged — with the same contents.
	tc.nodes[old].Kill()
	winner, epoch := waitPromoted(t, tc, []int{0, 1}, slot, old, 0)
	if got := scan(cc, false); got != primary {
		t.Fatalf("promoted mirror diverged:\n  before: %s\n  after:  %s", primary, got)
	}
	if rep := takeoverRep(t, dirs[winner], slot, epoch, rel); rep != cluster.FreshRep {
		t.Fatalf("takeover store holds %q as %v, want %v", rel, rep, cluster.FreshRep)
	}
}

// TestPartitionSingleWinner cuts the primary for a slot away from the
// majority: the majority side must elect exactly one winner in a higher
// epoch, the minority primary must refuse writes (no dual-serve), and on
// heal the deposed primary must adopt the winner's epoch and demote.
func TestPartitionSingleWinner(t *testing.T) {
	if testing.Short() {
		t.Skip("lease-timing test")
	}
	ft := cluster.NewFaultTransport(1)
	tc := startFailoverCluster(t, foOpts{n: 3, ft: ft})
	const victim = 1
	rel := relOwnedBy(t, tc, victim)
	slot := cluster.OwnerIndex(rel, 3)

	cc, err := client.DialCluster(tc.addrs,
		client.WithClusterOrigin("part"),
		client.WithFailoverRetry(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for i := 0; i < 10; i++ {
		if resp, err := cc.Exec(fmt.Sprintf("insert (%d, \"p\") into %s", i, rel)); err != nil || resp.Err != nil {
			t.Fatalf("pre-partition insert %d: %v / %v", i, err, resp.Err)
		}
	}

	ft.Partition([]string{"node1"}, []string{"node0", "node2"})

	// The majority side promotes exactly one winner in a new epoch.
	winner, epoch := waitPromoted(t, tc, []int{0, 2}, slot, victim, 0)
	if n := servingCount(tc, []int{0, 2}, slot); n != 1 {
		t.Fatalf("%d majority nodes serve slot %d, want exactly 1", n, slot)
	}
	t.Logf("majority promoted node %d for slot %d in epoch %d", winner, slot, epoch)

	// No dual-serve: the isolated primary has lost its quorum, so a write
	// sent straight to it must NOT be acked.
	iso, err := client.DialCluster(tc.addrs[victim:victim+1], client.WithClusterOrigin("iso"))
	if err != nil {
		t.Fatal(err)
	}
	defer iso.Close()
	if resp, err := iso.Exec(fmt.Sprintf("insert (901, \"x\") into %s", rel)); err == nil && resp.Err == nil {
		t.Fatalf("isolated minority primary acked a write for slot %d", slot)
	}

	// The majority side keeps acking through the winner.
	winCl, err := client.DialCluster([]string{tc.addrs[0], tc.addrs[2]},
		client.WithClusterOrigin("maj"),
		client.WithFailoverRetry(15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer winCl.Close()
	for i := 10; i < 20; i++ {
		if resp, err := winCl.Exec(fmt.Sprintf("insert (%d, \"p\") into %s", i, rel)); err != nil || resp.Err != nil {
			t.Fatalf("majority insert %d during partition: %v / %v", i, err, resp.Err)
		}
	}

	// Heal: the deposed primary sees the higher epoch and demotes; all
	// three nodes converge on the same (owner, epoch) view.
	ft.Heal()
	deadline := time.Now().Add(15 * time.Second)
	for {
		o, e, serving := tc.nodes[victim].FailoverInfo(slot)
		if o == winner && e == epoch && !serving {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deposed primary never demoted: owner=%d epoch=%d serving=%v (want owner=%d epoch=%d serving=false)",
				o, e, serving, winner, epoch)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := servingCount(tc, []int{0, 1, 2}, slot); n != 1 {
		t.Fatalf("%d nodes serve slot %d after heal, want exactly 1", n, slot)
	}

	// Nothing acked was lost across the partition.
	for i := 0; i < 20; i++ {
		resp, err := winCl.Exec(fmt.Sprintf("find %d in %s", i, rel))
		if err != nil || resp.Err != nil || !resp.Found {
			t.Fatalf("acked insert %d lost across the partition (err %v)", i, err)
		}
	}
}

// TestPromotionKillMatrix crashes the primary (in-process Kill: no
// drain, no flush) at each awkward phase, for 1-lane and 4-lane stores.
// Every acked commit must be on the winner, and the recovered relation
// must hold an exact gap-free prefix of the sequential workload — a gap
// would mean an acked write vanished while a later one survived.
func TestPromotionKillMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-matrix test")
	}
	phases := []string{"mid-batch", "group-commit-flush", "replica-catch-up", "post-promotion"}
	for _, lanes := range []int{1, 4} {
		for _, phase := range phases {
			t.Run(fmt.Sprintf("%s/lanes=%d", phase, lanes), func(t *testing.T) {
				runKillCell(t, phase, lanes)
			})
		}
	}
}

func runKillCell(t *testing.T, phase string, lanes int) {
	n := 3
	if phase == "post-promotion" {
		// Two crashes; the three nodes left are still a majority of five.
		n = 5
	}
	tc := startFailoverCluster(t, foOpts{n: n, lanes: lanes})
	rel := clusterRels[0]
	victim := cluster.OwnerIndex(rel, n)
	slot := victim

	cc, err := client.DialCluster(tc.addrs,
		client.WithClusterOrigin("km"),
		client.WithFailoverRetry(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	acked := 0
	insert := func() {
		t.Helper()
		resp, err := cc.Exec(fmt.Sprintf("insert (%d, \"k%d\") into %s", acked, acked, rel))
		if err != nil || resp.Err != nil {
			t.Fatalf("insert %d not acked (phase %s): %v / %v", acked, phase, err, resp.Err)
		}
		acked++
	}
	insertBatch := func(size int) {
		t.Helper()
		qs := make([]string, size)
		for i := range qs {
			qs[i] = fmt.Sprintf("insert (%d, \"k%d\") into %s", acked+i, acked+i, rel)
		}
		resps, err := cc.ExecBatch(qs)
		if err != nil {
			t.Fatalf("batch at %d not acked (phase %s): %v", acked, phase, err)
		}
		for i, resp := range resps {
			if resp.Err != nil {
				t.Fatalf("batch statement %d failed (phase %s): %v", acked+i, phase, resp.Err)
			}
		}
		acked += size
	}

	live := make([]int, 0, n-1)
	for id := 0; id < n; id++ {
		if id != victim {
			live = append(live, id)
		}
	}
	lastEpoch := uint64(0)
	for i := 0; i < 20; i++ {
		insert()
	}
	switch phase {
	case "mid-batch":
		// Crash while a multi-statement Forward is in flight: the batch
		// itself must ride through the promotion and ack completely.
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(2 * time.Millisecond)
			tc.nodes[victim].Kill()
		}()
		insertBatch(40)
		<-done
	case "group-commit-flush":
		// Crash with writes sitting in the 2ms group-commit window: a
		// burst of acked singles, then the kill with zero settling time.
		for i := 0; i < 30; i++ {
			insert()
		}
		tc.nodes[victim].Kill()
	case "replica-catch-up":
		// Crash while the mirrors are visibly behind: hammer unacked load
		// through a batch, then kill as soon as a survivor reports lag.
		done := make(chan struct{})
		go func() {
			defer close(done)
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				if tc.nodes[victim].Store().Current().Version() > tc.nodes[live[0]].ReplicaVersion(victim) {
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			tc.nodes[victim].Kill()
		}()
		insertBatch(60)
		<-done
	case "post-promotion":
		// First crash, wait for the winner, then crash the winner the
		// instant it starts serving: a second promotion in a higher epoch
		// must still hold every acked commit.
		tc.nodes[victim].Kill()
		winner, epoch := waitPromoted(t, tc, live, slot, victim, 0)
		insert() // acked by the first winner
		tc.nodes[winner].Kill()
		next := make([]int, 0, len(live)-1)
		for _, id := range live {
			if id != winner {
				next = append(next, id)
			}
		}
		live, lastEpoch = next, epoch
	}

	// The cluster resumes: post-crash inserts ack against the winner.
	for i := 0; i < 20; i++ {
		insert()
	}
	winner, epoch := waitPromoted(t, tc, live, slot, victim, lastEpoch)
	if got := servingCount(tc, live, slot); got != 1 {
		t.Fatalf("%d live nodes serve slot %d, want exactly 1", got, slot)
	}
	t.Logf("phase %s lanes %d: %d acked, winner node %d epoch %d", phase, lanes, acked, winner, epoch)

	// Every acked commit on the winner, and the recovered contents are an
	// exact prefix: keys 0..acked-1 all present, nothing above the count
	// but possibly the in-flight tail (none here — the workload is
	// sequential, so the count must be exact).
	for i := 0; i < acked; i++ {
		resp, err := cc.Exec(fmt.Sprintf("find %d in %s", i, rel))
		if err != nil || resp.Err != nil || !resp.Found {
			t.Fatalf("acked insert %d lost (phase %s lanes %d): %v", i, phase, lanes, err)
		}
	}
	resp, err := cc.Exec("count " + rel)
	if err != nil || resp.Err != nil {
		t.Fatalf("count: %v / %v", err, resp.Err)
	}
	if resp.Count != acked {
		t.Fatalf("winner holds %d tuples for %d acked inserts — recovery is not an exact prefix", resp.Count, acked)
	}
}

// TestFaultTransportDeterminism: the injector's drop decisions replay
// identically for the same seed — the property that makes a partition
// test reproducible.
func TestFaultTransportDeterminism(t *testing.T) {
	pattern := func(seed int64) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		got := make(chan []byte, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				got <- nil
				return
			}
			defer conn.Close()
			buf := make([]byte, 256)
			var all []byte
			for {
				n, err := conn.Read(buf)
				all = append(all, buf[:n]...)
				if err != nil {
					got <- all
					return
				}
			}
		}()
		ft := cluster.NewFaultTransport(seed)
		ft.Drop(0.5)
		conn, err := ft.Dialer("a")(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if _, err := conn.Write([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		conn.Close()
		return fmt.Sprintf("%x", <-got)
	}
	a, b := pattern(42), pattern(42)
	if a != b {
		t.Fatalf("same seed diverged:\n  %s\n  %s", a, b)
	}
	if len(a) == 0 || len(a) == 2*64 {
		t.Fatalf("drop probability 0.5 dropped %d of 64 writes — injector inert", 64-len(a)/2)
	}
	if c := pattern(43); c == a {
		t.Fatalf("different seeds produced the identical drop pattern")
	}
}
