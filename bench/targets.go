package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/cluster"
)

// The four systems under test. Each is assembled in-process (as fdbload
// --spawn does) through the public funcdb and funcdb/client packages only;
// the one internal name used here is cluster.FailoverConfig, the type of a
// public ClusterNodeConfig field.

// env is what a workload is opened with.
type env struct {
	seed    int64
	workers int    // client workers = connections = GOMAXPROCS
	dir     string // scratch directory for archives, inside the checkout
	// tracing, when set, switches the program's own request tracing on
	// through its public options; nil is the untraced system every
	// end-to-end number comes from.
	tracing *funcdb.TracingConfig
}

// target is one assembled workload: the system under test plus one client
// handle per worker.
type target interface {
	// exec runs one operation of worker w's stream and waits for its
	// response. The closed loop is exec in a loop unless the target is a
	// stepper.
	exec(w int, st *stream, o *op) (funcdb.Response, error)
	// snapshots reads the metrics of every live part of the system.
	snapshots() []funcdb.MetricsSnapshot
	close() error
}

// stepper is the optional closed-loop form: step runs one unit of worker w's
// loop — an acknowledged group of operations, an operation with a trace
// handle — and records each operation.
type stepper interface {
	step(w int, st *stream, rec *recorder)
}

// pipelined is the optional open-loop form: begin sends o without waiting
// and returns the function that waits for its reply. A target whose client
// API has no such form is paced through a pool of goroutines calling exec.
type pipelined interface {
	begin(w int, o *op) (func() (funcdb.Response, error), error)
}

// traceSource is implemented by targets opened with tracing on: the fragments the
// program's recorders have published so far, from every node and client.
type traceSource interface {
	traces() []funcdb.RequestTrace
}

// ---- engine-point ---------------------------------------------------------

type engineTarget struct {
	store     *funcdb.Store
	find, ins []*funcdb.Stmt // per relation
}

func openEngine(e *env, sh *shape) (target, error) {
	opts := []funcdb.Option{funcdb.WithRepresentation(funcdb.RepAVL)}
	for rel, tuples := range preload(sh) {
		opts = append(opts, funcdb.WithData(rel, tuples...))
	}
	if e.tracing != nil {
		opts = append(opts, funcdb.WithTracing(*e.tracing))
	}
	store, err := funcdb.Open(opts...)
	if err != nil {
		return nil, err
	}
	t := &engineTarget{store: store}
	for _, rel := range sh.rels {
		f, err := store.Prepare("find ? in " + rel)
		if err != nil {
			return nil, err
		}
		i, err := store.Prepare("insert (?, ?) into " + rel)
		if err != nil {
			return nil, err
		}
		t.find, t.ins = append(t.find, f), append(t.ins, i)
	}
	if e.tracing != nil {
		return tracedEngineTarget{t}, nil
	}
	return t, nil
}

// tracedEngineTarget is engineTarget with the program's tracing attached.
// The in-process API starts no traces of its own (only the network server
// does), so the caller hands the transaction a handle from the store's
// recorder: the same bind, submit and force that Stmt.Exec performs, plus the
// handle. The benchmark's root span brackets the whole call and shares the
// handle's id.
type tracedEngineTarget struct{ *engineTarget }

func (t tracedEngineTarget) step(w int, st *stream, rec *recorder) {
	o := st.next()
	exp := st.issue(o, nil)
	start := time.Now().UnixNano()
	var tx funcdb.Transaction
	var err error
	if o.kind == opFind {
		tx, err = t.find[o.rel].Bind(funcdb.Int(int64(o.key)))
	} else {
		tx, err = t.ins[o.rel].Bind(funcdb.Int(int64(o.key)), funcdb.Str(st.values[o.val]))
	}
	var resp funcdb.Response
	if err == nil {
		recd := t.store.TraceRecorder()
		tr := recd.Start()
		tx.Trace = tr
		resp = t.store.Submit(tx).Force()
		recd.Finish(tr)
		if tr.Sampled() {
			rec.roots = append(rec.roots, rootSpan{id: tr.ID(), start: start, end: time.Now().UnixNano(), read: o.kind.isRead()})
		}
	}
	rec.closed(st, o, exp, resp, err)
}

func (t *engineTarget) exec(w int, st *stream, o *op) (funcdb.Response, error) {
	if o.kind == opFind {
		return t.find[o.rel].Exec(funcdb.Int(int64(o.key)))
	}
	return t.ins[o.rel].Exec(funcdb.Int(int64(o.key)), funcdb.Str(st.values[o.val]))
}

func (t *engineTarget) snapshots() []funcdb.MetricsSnapshot {
	return []funcdb.MetricsSnapshot{t.store.MetricsSnapshot()}
}

func (t *engineTarget) traces() []funcdb.RequestTrace { return t.store.Traces() }
func (t *engineTarget) close() error                  { return t.store.Close() }

// ---- durable-write --------------------------------------------------------

// ackGroup is how many writes a durable-write worker issues between two
// Store.Barrier calls; a write counts as complete when its barrier returns.
const ackGroup = 64

type durableTarget struct {
	store *funcdb.Store
	dir   string
	sh    *shape
	// quiet keeps Store.Barrier apart from submissions: the engine waits on
	// a sync.WaitGroup that submissions add to, and a Barrier racing an
	// ExecAsync on another goroutine panics with "WaitGroup is reused
	// before previous Wait has returned". Workers submit under the read
	// lock and barrier under the write lock.
	quiet sync.RWMutex
	// sessions holds one session per worker when tracing is on (see step);
	// nil otherwise.
	sessions []txSession
}

// txSession is the part of the store's session the traced path uses:
// translate through the statement cache, queue, flush — the three things
// Store.ExecAsync does in one call.
type txSession interface {
	Translate(src string) (funcdb.Transaction, error)
	QueueTx(tx funcdb.Transaction) *funcdb.Future
	Flush()
}

func durabilityOptions() []funcdb.DurabilityOption {
	return []funcdb.DurabilityOption{
		funcdb.SyncEveryWrite(),
		funcdb.GroupCommit(2 * time.Millisecond),
		funcdb.SnapshotEvery(4096),
	}
}

func openDurable(e *env, sh *shape) (target, error) {
	dir, err := os.MkdirTemp(e.dir, "durable-")
	if err != nil {
		return nil, err
	}
	opts := []funcdb.Option{
		funcdb.WithRepresentation(funcdb.RepAVL),
		funcdb.WithDurability(dir, durabilityOptions()...),
	}
	for rel, tuples := range preload(sh) {
		opts = append(opts, funcdb.WithData(rel, tuples...))
	}
	if e.tracing != nil {
		opts = append(opts, funcdb.WithTracing(*e.tracing))
	}
	store, err := funcdb.Open(opts...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	t := &durableTarget{store: store, dir: dir, sh: sh}
	if e.tracing != nil {
		for w := 0; w < e.workers; w++ {
			t.sessions = append(t.sessions, store.Session(fmt.Sprintf("bench-w%d", w)))
		}
	}
	return t, nil
}

// step issues ackGroup writes as text, waits for one barrier, and then
// reads every response; each write's latency runs from its submission to
// the barrier's return, which is when a caller may rely on it.
func (t *durableTarget) step(w int, st *stream, rec *recorder) {
	var (
		ops   [ackGroup]*op
		futs  [ackGroup]*funcdb.Future
		errs  [ackGroup]error
		at    [ackGroup]int64
		roots [ackGroup]rootSpan
	)
	t.quiet.RLock()
	for i := range ops {
		o := st.next()
		st.issue(o, nil)
		ops[i], at[i] = o, time.Now().UnixNano()
		if t.sessions == nil {
			futs[i], errs[i] = t.store.ExecAsync(o.text)
			continue
		}
		// As in engineTarget.tracedStep: translate, attach a handle,
		// submit — what ExecAsync does, plus the handle.
		sess := t.sessions[w]
		tx, err := sess.Translate(o.text)
		if err != nil {
			errs[i] = err
			continue
		}
		recd := t.store.TraceRecorder()
		tr := recd.Start()
		tx.Trace = tr
		futs[i] = sess.QueueTx(tx)
		sess.Flush()
		recd.Finish(tr)
		if tr.Sampled() {
			roots[i] = rootSpan{id: tr.ID(), start: at[i]}
		}
	}
	t.quiet.RUnlock()
	t.quiet.Lock()
	t.store.Barrier()
	t.quiet.Unlock()
	ack := time.Now().UnixNano()
	for i, o := range ops {
		var resp funcdb.Response
		if errs[i] == nil {
			resp = futs[i].Force()
		}
		rec.completed(st, o, expectation{}, resp, errs[i], at[i], ack)
		if roots[i].id != 0 {
			roots[i].end = ack
			rec.roots = append(rec.roots, roots[i])
		}
	}
	if err := t.store.DurabilityErr(); err != nil {
		rec.fail(fmt.Errorf("durability: %w", err))
	}
}

func (t *durableTarget) exec(w int, st *stream, o *op) (funcdb.Response, error) {
	return t.store.Exec(o.text)
}

func (t *durableTarget) snapshots() []funcdb.MetricsSnapshot {
	return []funcdb.MetricsSnapshot{t.store.MetricsSnapshot()}
}

// stored flushes everything submitted and returns the archive directory's
// size in bytes.
func (t *durableTarget) stored() int64 {
	t.store.Barrier()
	var total int64
	for _, f := range dirFiles(t.dir) {
		total += f.size
	}
	return total
}

func (t *durableTarget) traces() []funcdb.RequestTrace { return t.store.Traces() }

func (t *durableTarget) close() error {
	err := t.store.Close()
	if rerr := os.RemoveAll(t.dir); err == nil {
		err = rerr
	}
	return err
}

// ---- the network workloads -------------------------------------------------

// spawn boots an n-node loopback cluster: every port bound first, the
// address list shared, then the nodes opened over the bound listeners.
func spawn(e *env, n int, rels []string, failover *cluster.FailoverConfig) (dir string, nodes []*funcdb.ClusterNode, addrs []string, err error) {
	dir, err = os.MkdirTemp(e.dir, "cluster-")
	if err != nil {
		return "", nil, nil, err
	}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			os.RemoveAll(dir)
			return "", nil, nil, lerr
		}
		lns[i] = ln
		addrs = append(addrs, ln.Addr().String())
	}
	fail := func(from int, err error) (string, []*funcdb.ClusterNode, []string, error) {
		for _, l := range lns[from:] {
			l.Close()
		}
		stopNodes(nodes, nil)
		os.RemoveAll(dir)
		return "", nil, nil, err
	}
	for i := 0; i < n; i++ {
		node, oerr := funcdb.OpenClusterNode(funcdb.ClusterNodeConfig{
			ID: i, Nodes: addrs, Listener: lns[i],
			Dir:        filepath.Join(dir, fmt.Sprintf("n%d", i)),
			Relations:  rels,
			Durability: []funcdb.DurabilityOption{funcdb.GroupCommit(2 * time.Millisecond)},
			Tracing:    e.tracing,
			Failover:   failover,
		})
		if oerr != nil {
			return fail(i, oerr)
		}
		nodes = append(nodes, node)
		go node.Serve() // returns when the node is shut down or killed
	}
	for _, node := range nodes {
		if werr := node.WaitReady(5 * time.Second); werr != nil {
			return fail(n, werr)
		}
	}
	return dir, nodes, addrs, nil
}

// stopNodes shuts down every node not marked dead (a killed node's store is
// deliberately left as the crash left it).
func stopNodes(nodes []*funcdb.ClusterNode, dead []bool) error {
	var first error
	for i, node := range nodes {
		if dead != nil && dead[i] {
			continue
		}
		if err := node.Shutdown(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// load preloads the shape's rows through conn in batches.
func load(sh *shape, rel int, execBatch func([]string) ([]funcdb.Response, error)) error {
	const chunk = 500
	batch := make([]string, 0, chunk)
	for k := 0; k < sh.rows; k += chunk {
		batch = batch[:0]
		for j := k; j < k+chunk && j < sh.rows; j++ {
			batch = append(batch, fmt.Sprintf("insert (%d, %q) into %s", j, initialValue(sh, rel, j), sh.rels[rel]))
		}
		resps, err := execBatch(batch)
		if err != nil {
			return err
		}
		for _, r := range resps {
			if r.Err != nil {
				return r.Err
			}
		}
	}
	return nil
}

// ---- wire-text -------------------------------------------------------------

type wireTarget struct {
	dir     string
	node    *funcdb.ClusterNode
	clients []*client.Client
	sh      *shape
}

func openWire(e *env, sh *shape) (target, error) {
	dir, nodes, addrs, err := spawn(e, 1, sh.rels, nil)
	if err != nil {
		return nil, err
	}
	t := &wireTarget{dir: dir, node: nodes[0], sh: sh}
	for w := 0; w < e.workers; w++ {
		opts := []client.Option{client.WithOrigin(fmt.Sprintf("bench-w%d", w))}
		if e.tracing != nil {
			opts = append(opts, client.WithTracing(*e.tracing))
		}
		c, err := client.Dial(addrs[0], opts...)
		if err != nil {
			t.close()
			return nil, err
		}
		t.clients = append(t.clients, c)
	}
	for rel := range sh.rels {
		if err := load(sh, rel, t.clients[0].ExecBatch); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

func (t *wireTarget) exec(w int, st *stream, o *op) (funcdb.Response, error) {
	return t.clients[w].Exec(o.text)
}

func (t *wireTarget) begin(w int, o *op) (func() (funcdb.Response, error), error) {
	p, err := t.clients[w].ExecAsync(o.text)
	if err != nil {
		return nil, err
	}
	return p.Force, nil
}

func (t *wireTarget) snapshots() []funcdb.MetricsSnapshot {
	return []funcdb.MetricsSnapshot{t.node.MetricsSnapshot()}
}

func (t *wireTarget) traces() []funcdb.RequestTrace {
	out := t.node.Traces()
	for _, c := range t.clients {
		out = append(out, c.LocalTraces()...)
	}
	return out
}

func (t *wireTarget) close() error {
	for _, c := range t.clients {
		c.Close()
	}
	err := t.node.Shutdown()
	if rerr := os.RemoveAll(t.dir); err == nil {
		err = rerr
	}
	return err
}

// ---- cluster-prepared -------------------------------------------------------

const clusterNodes = 3

type clusterTarget struct {
	dir       string
	nodes     []*funcdb.ClusterNode
	dead      []bool
	addrs     []string
	cls       []*client.ClusterClient
	find, ins [][]*client.ClusterStmt // [worker][relation]
	sh        *shape
}

// workloadFailover is the failover configuration of cluster-prepared:
// heartbeats every 100 ms, the default lease of four heartbeats, and the
// default semi-sync gate (a write is acknowledged once one mirror has it).
func workloadFailover() *cluster.FailoverConfig {
	return &cluster.FailoverConfig{Heartbeat: 100 * time.Millisecond}
}

func openCluster(e *env, sh *shape) (target, error) {
	t, err := openClusterWith(e, sh, workloadFailover())
	if err != nil {
		return nil, err
	}
	return t, nil
}

func openClusterWith(e *env, sh *shape, failover *cluster.FailoverConfig) (*clusterTarget, error) {
	dir, nodes, addrs, err := spawn(e, clusterNodes, sh.rels, failover)
	if err != nil {
		return nil, err
	}
	t := &clusterTarget{dir: dir, nodes: nodes, dead: make([]bool, len(nodes)), addrs: addrs, sh: sh}
	// The load must be spread: every node owns the same number of
	// relations, or the run measures one hot node (BENCH_0009's R/S/T left
	// one node owning nothing).
	for i, node := range nodes {
		owned := 0
		for _, rel := range sh.rels {
			if _, self := node.Owner(rel); self {
				owned++
			}
		}
		if want := len(sh.rels) / len(nodes); owned != want {
			t.close()
			return nil, fmt.Errorf("node %d owns %d of %v, want %d on every node", i, owned, sh.rels, want)
		}
	}
	for w := 0; w < e.workers; w++ {
		opts := []client.ClusterOption{
			client.WithClusterOrigin(fmt.Sprintf("bench-w%d", w)),
			client.WithFailoverRetry(failoverBudget),
		}
		if e.tracing != nil {
			opts = append(opts, client.WithClusterTracing(*e.tracing))
		}
		cl, err := client.DialCluster(addrs, opts...)
		if err != nil {
			t.close()
			return nil, err
		}
		t.cls = append(t.cls, cl)
		var find, ins []*client.ClusterStmt
		for _, rel := range sh.rels {
			find = append(find, cl.Prepare("find ? in "+rel))
			ins = append(ins, cl.Prepare("insert (?, ?) into "+rel))
		}
		t.find, t.ins = append(t.find, find), append(t.ins, ins)
	}
	for rel := range sh.rels {
		if err := load(sh, rel, t.cls[0].ExecBatch); err != nil {
			t.close()
			return nil, err
		}
	}
	// Dial and prepare on every connection before the first timed
	// operation: one find and one upsert of an unchanged value per
	// (worker, relation).
	for w := range t.cls {
		for rel := range sh.rels {
			if _, err := t.find[w][rel].Exec(funcdb.Int(0)); err != nil {
				t.close()
				return nil, err
			}
			if _, err := t.ins[w][rel].Exec(funcdb.Int(0), funcdb.Str(initialValue(sh, rel, 0))); err != nil {
				t.close()
				return nil, err
			}
		}
	}
	return t, nil
}

// failoverBudget is how long a cluster client keeps retrying a statement
// through a promotion before it gives up; well above the longest outage.
const failoverBudget = 10 * time.Second

func (t *clusterTarget) exec(w int, st *stream, o *op) (funcdb.Response, error) {
	if o.kind == opFind {
		return t.find[w][o.rel].Exec(funcdb.Int(int64(o.key)))
	}
	return t.ins[w][o.rel].Exec(funcdb.Int(int64(o.key)), funcdb.Str(st.values[o.val]))
}

func (t *clusterTarget) snapshots() []funcdb.MetricsSnapshot {
	var out []funcdb.MetricsSnapshot
	for i, node := range t.nodes {
		if !t.dead[i] {
			out = append(out, node.MetricsSnapshot())
		}
	}
	return out
}

func (t *clusterTarget) traces() []funcdb.RequestTrace {
	var out []funcdb.RequestTrace
	for i, node := range t.nodes {
		if !t.dead[i] {
			out = append(out, node.Traces()...)
		}
	}
	for _, cl := range t.cls {
		out = append(out, cl.LocalTraces()...)
	}
	return out
}

// kill crashes the node that owns rel and reports which one it was.
func (t *clusterTarget) kill(rel string) (int, error) {
	for i, node := range t.nodes {
		if _, self := node.Owner(rel); self {
			node.Kill()
			t.dead[i] = true
			return i, nil
		}
	}
	return -1, errors.New("no node owns " + rel)
}

func (t *clusterTarget) close() error {
	for _, cl := range t.cls {
		cl.Close()
	}
	err := stopNodes(t.nodes, t.dead)
	if rerr := os.RemoveAll(t.dir); err == nil {
		err = rerr
	}
	return err
}
