// Cluster-aware dialing: a client that talks to every node of a
// real-network cluster directly, computing placement locally and chasing
// at most one Redirect when its guess is stale — the Redis-cluster MOVED
// discipline over funcdb's wire protocol.
package client

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"funcdb"
	"funcdb/internal/core"
	"funcdb/internal/query"
	"funcdb/internal/reqtrace"
	"funcdb/internal/session"
	"funcdb/internal/wire"
)

// ClusterClient executes statements against a cluster, routing each one
// to the node that owns its relation. It owns the origin/sequence tag
// space (statements ship in tagged Request frames), so a workload run
// through it produces the same tagged response stream as the same
// workload against one in-process store — the cluster equivalence the
// harness checks. Safe for concurrent use; statements issued
// concurrently are tagged in issue order.
type ClusterClient struct {
	origin string
	addrs  []string      // the addresses given to DialCluster, seed order
	retry  time.Duration // failover retry budget (0 = off)

	// Client-side tracing (WithClusterTracing): one recorder for the whole
	// cluster client; sampled requests send their trace context ahead of
	// their Request frames so every node's spans share the trace id.
	traceCfg *funcdb.TracingConfig
	rec      *reqtrace.Recorder

	mu        sync.Mutex
	seq       int
	conns     map[string]*Client
	placement map[string]string // relation -> owning address, learned
	epochs    map[string]uint64 // relation -> newest owner epoch seen (monotone)
	cache     *query.StmtCache
	closed    bool
}

// ClusterOption configures DialCluster.
type ClusterOption func(*ClusterClient)

// WithClusterOrigin sets the tag stamped on the client's statements
// (default "cluster").
func WithClusterOrigin(origin string) ClusterOption {
	return func(c *ClusterClient) { c.origin = origin }
}

// WithFailoverRetry makes the client ride through a primary failover:
// when a statement dies with its connection, is refused by an epoch
// fence ("cluster: fenced"), or exhausts a redirect chase, the client
// forgets the relation's placement, rotates to another seed address,
// and retries until the budget elapses. Redirect epochs are tracked per
// relation so a stale node cannot steer the client backwards. Without
// this option the client keeps the static-placement discipline — one
// redial, one redirect chase, then the error surfaces.
func WithFailoverRetry(budget time.Duration) ClusterOption {
	return func(c *ClusterClient) { c.retry = budget }
}

// WithClusterTracing records client-side span timelines (lazy dials,
// request-sent → response-decoded) under one recorder and sends sampled
// requests' trace context ahead of their Request frames, so server-side
// spans across the whole cluster land under the same trace id.
func WithClusterTracing(cfg funcdb.TracingConfig) ClusterOption {
	return func(c *ClusterClient) { c.traceCfg = &cfg }
}

// DialCluster prepares a cluster client over the given node addresses.
// Connections are dialed lazily, per node, on first use.
//
// When addrs is the full membership in cluster order, the client's first
// placement guess — the lane hash over the list — is already the owner
// and no redirect ever fires. Any subset (even a single seed) also
// works: a misrouted statement comes back as a Redirect carrying the
// owner's address, the client re-sends there (at most once) and caches
// the placement for the relation.
func DialCluster(addrs []string, opts ...ClusterOption) (*ClusterClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: DialCluster needs at least one address")
	}
	c := &ClusterClient{
		origin:    "cluster",
		addrs:     append([]string(nil), addrs...),
		conns:     make(map[string]*Client),
		placement: make(map[string]string),
		epochs:    make(map[string]uint64),
		cache:     query.NewStmtCache(0),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.traceCfg != nil {
		c.rec = reqtrace.New("client:"+c.origin, *c.traceCfg)
	}
	return c, nil
}

// Origin returns the client's tag.
func (c *ClusterClient) Origin() string { return c.origin }

// startTrace opens a trace for one routed request when tracing is on,
// returning the handle and the client-send span's start instant.
func (c *ClusterClient) startTrace() (*reqtrace.T, int64) {
	if c.rec == nil {
		return nil, 0
	}
	return c.rec.Start(), time.Now().UnixNano()
}

// LocalTraces returns the traces published by the cluster client's own
// recorder (nil without WithClusterTracing): the client-side fragments,
// stitched with TracesAll's server fragments by id.
func (c *ClusterClient) LocalTraces() []funcdb.RequestTrace {
	return c.rec.Traces()
}

// conn returns (dialing if needed) the connection to addr. A cached
// connection that Check finds dead — its node closed it, say by
// restarting — is dropped and redialed: a send into a socket its peer
// closed succeeds, so the send's failure cannot be what finds it.
func (c *ClusterClient) conn(addr string) (*Client, bool, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, errors.New("client: cluster client closed")
	}
	cl, ok := c.conns[addr]
	c.mu.Unlock()
	if ok {
		if cl.conn.Check() == nil {
			return cl, false, nil
		}
		c.dropConn(addr, cl)
	}
	// Dial outside the lock; a racing dial to the same addr keeps the
	// first registered connection.
	cl, err := Dial(addr, WithOrigin(c.origin))
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		cl.Close()
		return nil, false, errors.New("client: cluster client closed")
	}
	if have, ok := c.conns[addr]; ok {
		cl.Close()
		return have, false, nil
	}
	c.conns[addr] = cl
	return cl, true, nil
}

// dropConn forgets a connection whose transport failed, so the next
// statement redials.
func (c *ClusterClient) dropConn(addr string, cl *Client) {
	c.mu.Lock()
	if c.conns[addr] == cl {
		delete(c.conns, addr)
	}
	c.mu.Unlock()
	cl.Close()
}

// guess returns the address to try first for a relation — the learned
// placement if present, else the lane hash over the dialed list (exact
// when the list is the full membership in cluster order; a seed pick —
// corrected by one redirect — otherwise) — and whether the answer is
// learned-certain rather than a guess.
func (c *ClusterClient) guess(rel string) (addr string, known bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if addr, ok := c.placement[rel]; ok {
		return addr, true
	}
	return c.addrs[core.LaneOf(rel, len(c.addrs))], false
}

// noteEpoch folds a redirect's owner epoch into the client's knowledge,
// reporting false for a redirect OLDER than what the client has already
// seen — a stale node trying to steer it backwards.
func (c *ClusterClient) noteEpoch(rel string, epoch uint64) bool {
	if epoch == 0 {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch < c.epochs[rel] {
		return false
	}
	c.epochs[rel] = epoch
	return true
}

// nextSeqs reserves n consecutive sequence numbers, returning the first.
func (c *ClusterClient) nextSeqs(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	first := c.seq
	c.seq += n
	return first
}

// sendRun ships a run of same-owner statements to addr as one tagged
// Request frame and returns the reply plus the address that actually
// served it. Without a failover-retry budget this is one sendRunOnce; with
// one, failures that look like a promotion in flight — a dead connection,
// an exhausted redirect chase, a fencing rejection — are retried against
// re-resolved placement until the budget elapses. Which of the run's
// prepared statements carry their text is each connection's own rule, so
// a retry that lands on another node carries whatever that node lacks.
func (c *ClusterClient) sendRun(rel, addr string, flags byte, stmts []wire.Stmt, t *reqtrace.T) (wire.Reply, string, error) {
	r, served, err := c.sendRunOnce(rel, addr, flags, stmts, t)
	if c.retry <= 0 {
		return r, served, err
	}
	deadline := time.Now().Add(c.retry)
	for attempt := 1; ; attempt++ {
		if err == nil && !fencedReply(r) {
			return r, served, nil
		}
		// Forget the relation's placement (its epochs stay: they are
		// monotone, the guard against stale redirects) and re-resolve
		// through a rotating seed: a node that is alive answers or
		// redirects us to the serving owner in its newest epoch.
		c.mu.Lock()
		closed := c.closed
		delete(c.placement, rel)
		c.mu.Unlock()
		if closed || time.Now().After(deadline) {
			return r, served, err
		}
		time.Sleep(failoverRetryPause)
		addr = c.addrs[(core.LaneOf(rel, len(c.addrs))+attempt)%len(c.addrs)]
		r, served, err = c.sendRunOnce(rel, addr, flags, stmts, t)
	}
}

// failoverRetryPause paces placement re-resolution while a promotion is
// in flight.
const failoverRetryPause = 25 * time.Millisecond

// fencedReply reports whether a reply carries an epoch-fence rejection —
// either as a frame-level error or as per-statement errors on responses
// that were resolved fenced (a node closing before a write replicated).
// Fenced statements were never acked, so re-executing the run against
// the re-resolved owner is safe.
func fencedReply(r wire.Reply) bool {
	if r.IsErr {
		return strings.Contains(r.ErrMsg, "cluster: fenced")
	}
	if r.Resp.Err != nil && strings.Contains(r.Resp.Err.Error(), "cluster: fenced") {
		return true
	}
	for _, resp := range r.Resps {
		if resp.Err != nil && strings.Contains(resp.Err.Error(), "cluster: fenced") {
			return true
		}
	}
	return false
}

// sendRunOnce is one delivery attempt, carrying two separate one-shot
// budgets: one REDIAL per target address (the connection can die between
// conn's check and the send — placement is not in question, so a
// reconnect must not spend the redirect budget) and one REDIRECT chase
// (the placement correction). The connection re-sends a refused hash-only
// request with text itself. Only a non-error reply is placement evidence:
// an Error frame, such as a deposed primary's fencing rejection, teaches
// nothing.
func (c *ClusterClient) sendRunOnce(rel, addr string, flags byte, stmts []wire.Stmt, t *reqtrace.T) (wire.Reply, string, error) {
	redialed, redirected := false, false
	for {
		dialNS := time.Now().UnixNano()
		cl, dialed, err := c.conn(addr)
		if err != nil {
			return wire.Reply{}, "", err
		}
		if dialed && t != nil {
			// This request paid for the dial + handshake: attribute it.
			t.SpanNS(reqtrace.StageClientDial, dialNS, time.Now().UnixNano()-dialNS)
		}
		id, err := cl.conn.Request(flags|wire.FwdTagged, 0, stmts, t.Ctx())
		if err != nil {
			if !redialed {
				c.dropConn(addr, cl)
				redialed = true
				continue
			}
			return wire.Reply{}, "", err
		}
		r, err := cl.conn.Await(id, stmts)
		if err != nil {
			return wire.Reply{}, "", err
		}
		if r.Redirect == "" {
			if !r.IsErr && flags&wire.FwdReadLocal == 0 {
				// A replica read is served off-owner on purpose: it
				// teaches no placement.
				c.mu.Lock()
				c.placement[rel] = addr
				c.mu.Unlock()
			}
			return r, addr, nil
		}
		if !c.noteEpoch(rel, r.Epoch) {
			return wire.Reply{}, "", fmt.Errorf("client: stale redirect for %q to %s (epoch %d)", rel, r.Redirect, r.Epoch)
		}
		if redirected {
			return wire.Reply{}, "", fmt.Errorf("client: relation %q still not at %s after one redirect", rel, addr)
		}
		redirected, redialed = true, false
		addr = r.Redirect
	}
}

// execOne tags one statement, routes it, and waits for its response: to
// the relation's owner, or — for a replica read (FwdReadLocal) — to the
// FIRST dialed node, which serves the read itself (replica or primary); a
// redirect only fires when it has no local copy of the relation (its own
// slot before it may serve it), in which case the owner answers.
func (c *ClusterClient) execOne(rel string, st wire.Stmt, flags byte) (funcdb.Response, error) {
	st.Origin, st.Seq = c.origin, c.nextSeqs(1)
	addr := c.addrs[0]
	if flags&wire.FwdReadLocal == 0 {
		addr, _ = c.guess(rel)
	}
	t, sentNS := c.startTrace()
	r, _, err := c.sendRun(rel, addr, flags, []wire.Stmt{st}, t)
	finishTrace(c.rec, t, sentNS)
	if err != nil {
		return funcdb.Response{}, err
	}
	if r.IsErr {
		return funcdb.Response{}, errors.New(r.ErrMsg)
	}
	return r.Resp, nil
}

// Exec routes one statement to its owner and waits for the response.
func (c *ClusterClient) Exec(q string) (funcdb.Response, error) {
	tx, err := c.cache.Translate(q)
	if err != nil {
		return funcdb.Response{}, err
	}
	resp, err := c.execOne(tx.Rel, wire.Stmt{Text: q}, wire.FwdNoForward)
	if err == nil {
		c.invalidateOnCreate(tx)
	}
	return resp, err
}

// ExecReplica serves a read-only statement from the FIRST dialed node —
// from its local replica when it does not own the relation, from the
// primary store itself when it does — stamping Response.Version with the
// version the read observed. Compare it to the owner's current version
// for the read's staleness: a replica read lags by however many commits
// the log shipping hasn't applied yet, an owner-served read is exact.
// Writes are refused.
func (c *ClusterClient) ExecReplica(q string) (funcdb.Response, error) {
	tx, err := c.cache.Translate(q)
	if err != nil {
		return funcdb.Response{}, err
	}
	if !tx.IsReadOnly() {
		return funcdb.Response{}, fmt.Errorf("client: ExecReplica is read-only (%s writes)", tx.Kind)
	}
	return c.execOne(tx.Rel, wire.Stmt{Text: q}, wire.FwdNoForward|wire.FwdReadLocal)
}

// ExecBatch translates the whole batch (all-or-nothing: a failure
// reports a *funcdb.BatchError with the failing statement's index and
// nothing is sent), tags every statement in order, splits it into
// consecutive same-owner runs, ships each run as one Request frame, and
// reassembles the responses in statement order. Statements for one
// relation always travel in one connection's order, so per-relation
// effects and responses match a single-store run exactly. An empty batch
// returns an empty result without sending anything.
func (c *ClusterClient) ExecBatch(queries []string) ([]funcdb.Response, error) {
	if len(queries) == 0 {
		return []funcdb.Response{}, nil
	}
	txs := make([]core.Transaction, len(queries))
	for i, q := range queries {
		tx, err := c.cache.Translate(q)
		if err != nil {
			return nil, &session.BatchError{Index: i, Query: q, Err: err}
		}
		txs[i] = tx
	}
	first := c.nextSeqs(len(queries))

	// One trace covers the whole batch: every run's Request frame is
	// stamped with the same context, so all owners' spans stitch under
	// one id, and one client-send span brackets the full reassembly.
	t, sentNS := c.startTrace()
	defer func() { finishTrace(c.rec, t, sentNS) }()

	out := make([]funcdb.Response, len(queries))
	for i := 0; i < len(queries); {
		rel := txs[i].Rel
		addr, known := c.guess(rel)
		// A Request frame must be single-owner. Statements group together
		// when their placements are both LEARNED to the same node, or when
		// they name the same relation (same relation ⇒ same owner, so the
		// run redirects as a unit even while placement is still a guess).
		j := i + 1
		for j < len(queries) {
			a, k := c.guess(txs[j].Rel)
			if !(known && k && a == addr) && txs[j].Rel != rel {
				break
			}
			j++
		}
		stmts := make([]wire.Stmt, j-i)
		for k := i; k < j; k++ {
			stmts[k-i] = wire.Stmt{Origin: c.origin, Seq: first + k, Text: queries[k]}
		}
		r, _, err := c.sendRun(rel, addr, wire.FwdNoForward, stmts, t)
		if err != nil {
			return nil, err
		}
		if r.IsErr {
			// The owner's translation failed mid-frame: its index is
			// relative to the run — map it back to the batch position, so
			// the BatchError a caller unwraps names the right statement
			// even though the frame was forwarded.
			if r.Index >= 0 && i+r.Index < len(queries) {
				return nil, &session.BatchError{
					Index: i + r.Index,
					Query: queries[i+r.Index],
					Err:   errors.New(r.ErrMsg),
				}
			}
			return nil, errors.New(r.ErrMsg)
		}
		resps, ok := r.Responses(j - i)
		if !ok {
			return nil, fmt.Errorf("client: short reply for a %d-statement run", j-i)
		}
		copy(out[i:j], resps)
		for k := i; k < j; k++ {
			c.invalidateOnCreate(txs[k])
		}
		i = j
	}
	return out, nil
}

// Stats returns one node's metrics snapshot (dialing it if needed).
func (c *ClusterClient) Stats(addr string) (funcdb.MetricsSnapshot, error) {
	cl, _, err := c.conn(addr)
	if err != nil {
		return funcdb.MetricsSnapshot{}, err
	}
	return cl.Stats()
}

// StatsAll snapshots every dialed-list node, keyed by address. Each
// node's Peers rows carry its replica progress against the others, so the
// map is enough to compute cluster-wide replication lag: node i's Version
// minus node j's ReplicaApplied for peer i. Nodes that cannot be reached
// are reported in errs and omitted from the map.
func (c *ClusterClient) StatsAll() (snaps map[string]funcdb.MetricsSnapshot, errs map[string]error) {
	snaps = make(map[string]funcdb.MetricsSnapshot, len(c.addrs))
	errs = make(map[string]error)
	for _, addr := range c.addrs {
		snap, err := c.Stats(addr)
		if err != nil {
			errs[addr] = err
			continue
		}
		snaps[addr] = snap
	}
	return snaps, errs
}

// Traces returns one node's published request traces (dialing it if
// needed).
func (c *ClusterClient) Traces(addr string) ([]funcdb.RequestTrace, error) {
	cl, _, err := c.conn(addr)
	if err != nil {
		return nil, err
	}
	return cl.Traces()
}

// TracesAll gathers every dialed-list node's published traces into one
// list. The fragments of one distributed request share a trace id, so
// reqtrace.Stitch/Render over the merged list draws the full hop tree —
// gateway, owning primary, and mirror apply. Unreachable nodes are
// reported in errs and contribute nothing.
func (c *ClusterClient) TracesAll() (traces []funcdb.RequestTrace, errs map[string]error) {
	errs = make(map[string]error)
	for _, addr := range c.addrs {
		ts, err := c.Traces(addr)
		if err != nil {
			errs[addr] = err
			continue
		}
		traces = append(traces, ts...)
	}
	return traces, errs
}

// invalidateOnCreate drops cached statements touching a relation the
// batch just created, mirroring the session discipline.
func (c *ClusterClient) invalidateOnCreate(tx core.Transaction) {
	if tx.Kind == core.KindCreate {
		c.cache.InvalidateRel(tx.Rel)
	}
}

// Close closes every node connection.
func (c *ClusterClient) Close() error {
	c.mu.Lock()
	c.closed = true
	conns := make([]*Client, 0, len(c.conns))
	for _, cl := range c.conns {
		conns = append(conns, cl)
	}
	c.conns = map[string]*Client{}
	c.mu.Unlock()
	var err error
	for _, cl := range conns {
		if cerr := cl.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
