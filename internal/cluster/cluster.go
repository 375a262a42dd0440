// Package cluster runs the paper's primary-copy distribution model
// (Section 3.1) over the real wire: N nodes, each an fdbserver-style
// listener wrapping a local store, with the lane hash as the placement
// function.
//
// Placement is lane ownership: relation rel's primary lives on node
// core.LaneOf(rel, N) — the same deterministic hash that splits a store's
// admission lanes, so disjoint-relation traffic lands on disjoint nodes
// AND disjoint lanes, and every node (and every cluster-aware client)
// computes the same answer from the relation name alone, with no
// directory service to consult or keep consistent. The root directory of
// the paper's Section 3.2 degenerates to a pure function.
//
// A node is three things at once:
//
//   - the PRIMARY for the relations that hash to it: statements arrive
//     over the wire (directly, forwarded, or from local sessions) and are
//     admitted into its store's lanes;
//   - a GATEWAY for everything else: a statement for a relation owned
//     elsewhere is forwarded over a persistent link to the owner — a
//     wire.Conn, the same request connection a client dials — as a
//     pre-tagged Request frame, and the tagged response is relayed back,
//     so any node can serve any client;
//   - a REPLICA of every peer, always: each node subscribes to every
//     peer's log (the archive's records, one LogRecord frame each, a
//     sampled commit's trace context ahead of its record) and applies it,
//     in order, to a local mirror engine — an insert run as one record
//     and one engine admission.
//     Read-only statements can then be answered locally, stamped with the
//     mirror's version — the client's staleness bound.
//
// The subsystem is deliberately thin glue: the durability log is the
// replication stream, the lane hash is the placement function, the
// session layer is the routing point, and the medium is real TCP.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/lenient"
	"funcdb/internal/metrics"
	"funcdb/internal/query"
	"funcdb/internal/reqtrace"
	"funcdb/internal/session"
)

// LocalStore is the node-local store surface the cluster builds on.
// *funcdb.Store satisfies it (the public OpenClusterNode constructs one);
// tests may substitute lighter implementations.
type LocalStore interface {
	// SubmitTagged admits pre-tagged transactions in one arbitration,
	// storing the future of txs[i] into futs[i] (session.Submitter).
	SubmitTagged(txs []core.Transaction, futs []*session.Future)
	// Lanes reports the store's admission lane count.
	Lanes() int
	// Durable reports whether committed writes reach an archive.
	Durable() bool
	// Barrier waits for every admitted transaction and flushes pending
	// durable records.
	Barrier()
	// DurabilityErr reports the sticky durability failure, if any.
	DurabilityErr() error
	// Version reads the store's present version number: one atomic load,
	// where Current builds a whole database to be asked the same thing.
	Version() int64
	// Current materializes the store's present version.
	Current() *database.Database
	// VersionAt materializes a retained version: the rejoin path rewinds a
	// deposed primary to the winner's promotion base with it.
	VersionAt(seq int64) (*database.Database, error)
	// SubscribeLog streams the committed log (the archive's records, each
	// with its version span, form and commit's trace context): the primary
	// side of replication, under archive.TailFunc's contract.
	SubscribeLog(after int64, fn func(first, last int64, ctx reqtrace.Ctx, form byte, record []byte)) (cancel func(), err error)
	// TraceRecorder returns the store's request-trace recorder (nil when
	// tracing is off).
	TraceRecorder() *reqtrace.Recorder
	// MetricsSnapshot reads the store's metrics.
	MetricsSnapshot() metrics.Snapshot
}

// Config describes one node of a cluster.
type Config struct {
	// ID is this node's index into Addrs.
	ID int
	// Addrs lists every node's advertised address, in cluster order. The
	// list is the cluster membership AND the placement domain: relation
	// rel belongs to node core.LaneOf(rel, len(Addrs)).
	Addrs []string
	// Store is this node's primary store, holding exactly the relations
	// that hash to ID (OwnedRelations selects them from a shared schema).
	Store LocalStore
	// Relations is the cluster-wide schema: the initial relations across
	// all nodes. Each peer's mirror starts from the peer's owned subset.
	Relations []string
	// Failover enables lease-based failure detection, self-promotion of
	// the most-caught-up mirror, and epoch fencing (requires Promote). Nil
	// keeps the slot table static: node s serves slot s in epoch 0 from
	// boot.
	Failover *FailoverConfig
	// Promote builds the takeover store when this node wins a dead
	// peer's slot (funcdb supplies one; required with Failover).
	Promote PromoteFunc
	// Dialer opens outbound connections (forwards, replication streams,
	// heartbeats). Nil means net.Dial("tcp", addr); tests inject a
	// FaultTransport dialer here.
	Dialer DialFunc
}

// OwnerIndex returns the node index owning rel's primary in an n-node
// cluster: the placement function, shared with clients.
func OwnerIndex(rel string, n int) int { return core.LaneOf(rel, n) }

// OwnedRelations selects the relations of a shared schema that node id
// owns in an n-node cluster.
func OwnedRelations(relations []string, id, n int) []string {
	var out []string
	for _, rel := range relations {
		if OwnerIndex(rel, n) == id {
			out = append(out, rel)
		}
	}
	return out
}

// Node is one cluster member: primary, gateway, and replica (see the
// package comment). It implements server.Host (sessions route through
// its submitter) and server.Cluster (placement, replica reads, fencing,
// heartbeats, and its slots' logs for their replicas).
type Node struct {
	id      int
	addrs   []string
	store   LocalStore
	cache   *query.StmtCache
	origin  string
	dial    DialFunc
	promote PromoteFunc

	peers []*peer // by node index; nil at n.id
	m     *metrics.Cluster
	slots *slotTable

	closing atomic.Bool
	wg      sync.WaitGroup // replication loops

	mu       sync.Mutex
	subConns []closable // live replication dials, closed on Close
	mirrors  []*mirror  // by node index, one per peer; nil at n.id until rejoin installs it
}

// closable is the subset of net.Conn Close needs.
type closable interface{ Close() error }

// New assembles a node with a mirror of every peer. Start must be called
// to begin pulling the peers' logs.
func New(cfg Config) (*Node, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("cluster: no node addresses")
	}
	if cfg.ID < 0 || cfg.ID >= len(cfg.Addrs) {
		return nil, fmt.Errorf("cluster: node id %d outside 0..%d", cfg.ID, len(cfg.Addrs)-1)
	}
	if cfg.Store == nil {
		return nil, errors.New("cluster: node needs a local store")
	}
	if cfg.Failover != nil {
		if cfg.Promote == nil {
			return nil, errors.New("cluster: failover requires a Promote factory for takeover stores")
		}
		if len(cfg.Addrs) < 2 {
			return nil, errors.New("cluster: failover needs at least two nodes")
		}
	}
	n := &Node{
		id:      cfg.ID,
		addrs:   append([]string(nil), cfg.Addrs...),
		store:   cfg.Store,
		cache:   query.NewStmtCache(0),
		origin:  fmt.Sprintf("node%d", cfg.ID),
		dial:    cfg.Dialer,
		promote: cfg.Promote,
		m:       &metrics.Cluster{},
	}
	if n.dial == nil {
		n.dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	n.peers = make([]*peer, len(n.addrs))
	n.mirrors = make([]*mirror, len(n.addrs))
	for i, addr := range n.addrs {
		if i == n.id {
			continue
		}
		n.peers[i] = &peer{origin: n.origin, addr: addr, cm: n.m, dialFn: n.dial}
		n.mirrors[i] = newMirror(i, OwnedRelations(cfg.Relations, i, len(n.addrs)))
		n.mirrors[i].keepTail = cfg.Failover != nil
	}
	var fc FailoverConfig // static: no lease, no ack gate
	if cfg.Failover != nil {
		fc = cfg.Failover.withDefaults(len(n.addrs))
	}
	n.slots = newSlotTable(n, fc)
	return n, nil
}

// Start launches the replication loops — one subscription per peer,
// retried until Close — and, with failover, the heartbeat loops.
func (n *Node) Start() {
	for i, m := range n.mirrors {
		if m == nil {
			continue
		}
		n.wg.Add(1)
		go n.replicateFrom(i, m)
	}
	n.slots.start()
}

// Close stops the replication loops and the inter-node connections. The
// local store stays open (the caller owns it). The closing flag is
// published before the sweep and checked by trackConn under the same
// mutex, so a replication dial racing with Close either lands in the
// sweep or is refused at registration — no connection escapes.
func (n *Node) Close() {
	n.closing.Store(true)
	n.mu.Lock()
	for _, c := range n.subConns {
		c.Close()
	}
	n.subConns = nil
	n.mu.Unlock()
	for _, p := range n.peers {
		if p != nil {
			p.close()
		}
	}
	// Wake any write gated on replication acks; it answers ErrFenced.
	n.slots.cond.Broadcast()
	n.wg.Wait()
}

// ID returns the node's cluster index.
func (n *Node) ID() int { return n.id }

// Addr returns the node's advertised address.
func (n *Node) Addr() string { return n.addrs[n.id] }

// ClusterSize returns the number of nodes.
func (n *Node) ClusterSize() int { return len(n.addrs) }

// Owner implements server.Cluster: the advertised address of rel's
// primary, and whether that primary is this node. The slot's CURRENT
// owner answers, which may differ from the placement hash after a
// promotion.
func (n *Node) Owner(rel string) (addr string, self bool) {
	idx := n.slots.ownerOf(OwnerIndex(rel, len(n.addrs)))
	return n.addrs[idx], idx == n.id
}

// Session implements server.Host: a per-connection execution context
// whose submitter is the node's router, sharing the node-wide statement
// cache. Local statements land in the store's lanes; remote ones are
// forwarded — the caller cannot tell which is which.
func (n *Node) Session(origin string) *session.Session {
	return session.New(n, session.WithOrigin(origin), session.WithCache(n.cache))
}

// Lanes implements server.Host.
func (n *Node) Lanes() int { return n.store.Lanes() }

// Durable implements server.Host.
func (n *Node) Durable() bool { return n.store.Durable() }

// Barrier implements server.Host: it settles the local store (admission
// and durability). Forwarded statements settle through their response
// futures — a gateway acks a remote statement only after the owner
// answered — so the local barrier is the node's full drain obligation.
func (n *Node) Barrier() { n.store.Barrier() }

// DurabilityErr implements server.Host.
func (n *Node) DurabilityErr() error { return n.store.DurabilityErr() }

// Store returns the node's primary store.
func (n *Node) Store() LocalStore { return n.store }

// TraceRecorder implements server.Host: the local store's recorder (nil,
// the disabled recorder, when the store does not trace).
func (n *Node) TraceRecorder() *reqtrace.Recorder { return n.store.TraceRecorder() }

// MetricsSnapshot implements server.Host: the local store's snapshot
// extended with this node's routing section and one row per peer. A peer
// row's ReplicaApplied is the newest primary sequence mirrored locally;
// the peer's own Version minus it is the replication lag, which is how
// the benchmark reports lag — from snapshots of both ends.
func (n *Node) MetricsSnapshot() metrics.Snapshot {
	snap := n.store.MetricsSnapshot()
	snap.Origin = n.origin
	cs := n.m.Snapshot()
	cs.Epochs, cs.Owners = n.slotVectors()
	snap.Cluster = &cs
	for i := range n.addrs {
		if i == n.id {
			continue
		}
		p, m := n.peers[i], n.mirrorRef(i)
		ps := metrics.PeerSnapshot{
			Peer: i, Addr: n.addrs[i],
			ForwardFrames: p.frames.Load(), Dials: p.dials.Load(),
			ReplicaApplied: m.version(), ReplicaRecords: m.records.Load(), ReplicaConnects: m.connects.Load(),
		}
		ps.HeartbeatAgeMs, ps.AppliedLag = n.heartbeatAge(i)
		snap.Peers = append(snap.Peers, ps)
	}
	return snap
}

// mirrorRef returns the mirror at a slot: every peer's, and this node's
// own slot's only once rejoin has installed it (nil before, and for a slot
// out of range). The slice is mutated only by that install.
func (n *Node) mirrorRef(i int) *mirror {
	n.mu.Lock()
	defer n.mu.Unlock()
	if i < 0 || i >= len(n.mirrors) {
		return nil
	}
	return n.mirrors[i]
}

func (n *Node) setMirror(i int, m *mirror) {
	n.mu.Lock()
	n.mirrors[i] = m
	n.mu.Unlock()
}

// SubmitTagged implements session.Submitter: the routing point. The
// batch is split into maximal consecutive runs by owning node; local
// runs are admitted into the store in one arbitration, remote runs ship
// as one pre-tagged Request frame each, and the response futures come
// back in submission order, in the caller's out. Routing needs only the
// transaction's syntactic access set — the same property that makes lane
// placement computable before any lock is held.
func (n *Node) SubmitTagged(txs []core.Transaction, out []*session.Future) {
	// Runs are split by owner inline — routeOf is a cheap hash of the
	// relation name, so recomputing the boundary check beats allocating a
	// per-batch owners slice (a measurable cost at thousands of
	// connections, each flushing batches through here).
	for i := 0; i < len(txs); {
		slot := n.routeOf(txs[i])
		j := i + 1
		for j < len(txs) && n.routeOf(txs[j]) == slot {
			j++
		}
		run := txs[i:j]
		st, owner, epoch, err := n.slots.route(slot)
		switch {
		case err != nil:
			for k := i; k < j; k++ {
				out[k] = lenient.Ready(core.Response{
					Origin: txs[k].Origin, Seq: txs[k].Seq, Kind: txs[k].Kind, Err: err,
				})
			}
		case st != nil:
			n.localSubmit(slot, st, run, out[i:j])
		default:
			n.m.Forwarded(len(run))
			// The run's trace handle (the gateway server attaches one handle
			// to every transaction of a traced request) rides to the peer so
			// the owner's spans stitch under the gateway's trace id.
			var tr *reqtrace.T
			for k := range run {
				if run[k].Trace != nil {
					tr = run[k].Trace
					break
				}
			}
			n.peers[owner].forwardTagged(run, out[i:j], epoch, tr)
		}
		i = j
	}
}

// localSubmit admits a run into st, the store this node serves the slot
// from (its own store, or a takeover store), filling futs. With an ack
// gate, write futures are wrapped in it so an acknowledged commit is
// guaranteed to survive a subsequent crash of this node.
func (n *Node) localSubmit(slot int, st LocalStore, run []core.Transaction, futs []*session.Future) {
	st.SubmitTagged(run, futs)
	if n.slots.cfg.SyncReplicas > 0 {
		for k := range futs {
			if !run[k].IsReadOnly() {
				futs[k] = n.slots.gated(slot, st, futs[k])
			}
		}
	}
}

// routeOf places one transaction: the owning node index, n.id for local,
// or -1 for a transaction the primary-copy model cannot route (a custom
// transaction spanning relations with different owners — the
// coordination the paper defers; see internal/primarycopy).
func (n *Node) routeOf(tx core.Transaction) int {
	if tx.Kind != core.KindCustom {
		return OwnerIndex(tx.Rel, len(n.addrs))
	}
	owner := -2
	for _, rel := range append(tx.ReadSet(), tx.WriteSet()...) {
		o := OwnerIndex(rel, len(n.addrs))
		if owner == -2 {
			owner = o
		} else if o != owner {
			return -1
		}
	}
	if owner == -2 || owner != n.id {
		// A custom body is a Go closure: it has no wire form, so it can
		// only run where it was submitted.
		return -1
	}
	return owner
}

// errUnroutable answers a transaction routeOf cannot place.
var errUnroutable = errors.New("cluster: transaction spans multiple owners or has no wire form; the primary-copy model defers that coordination")
