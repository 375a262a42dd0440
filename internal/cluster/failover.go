package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/reqtrace"
	"funcdb/internal/session"
	"funcdb/internal/wire"
)

// This file is the slot table every node keeps, and the failover state
// machine that changes it: lease-based failure detection over dedicated
// heartbeat connections, self-promotion of the most-caught-up mirror when
// a slot's owner dies, epoch fencing of the deposed owner, and the rejoin
// path that rewinds it to the promotion base and re-attaches it as a
// replica.
//
// Terminology: a SLOT is an original owner index — the placement hash
// names slots. An (epoch, owner) pair per slot says who serves it now;
// epochs only grow, and the higher epoch always wins a disagreement, so
// a deposed primary that comes back cannot split-brain: every frame
// class that moves its data (tagged Request, LogRecord, Redirect) carries
// the epoch, and the stale side is refused or redirected. Without
// Config.Failover the table is static: slot s is served by node s in
// epoch 0 from boot, with no leases and no ack gate, and nothing changes
// it.

// DialFunc opens an outbound cluster connection. The default is
// net.Dial("tcp", addr); tests substitute a FaultTransport dialer to
// drop or partition traffic deterministically.
type DialFunc func(addr string) (net.Conn, error)

// PromoteFunc builds the takeover store for a promoted slot from the
// mirror's database at the promotion base. funcdb supplies one that
// opens a durable store (snapshot at the base + fresh log) under the
// node's data directory, so the winner's log for the slot is
// subscribable exactly like a born-primary's.
type PromoteFunc func(slot int, epoch uint64, db *database.Database) (LocalStore, error)

// FailoverConfig enables and tunes failover on a node. All nodes of a
// cluster should agree on the values.
type FailoverConfig struct {
	// Heartbeat is the peer heartbeat interval.
	Heartbeat time.Duration
	// Lease is how long after the last heartbeat (in either direction) a
	// peer is still presumed alive. Promotion happens only after the
	// owner's lease expired AND a majority of the cluster is reachable.
	Lease time.Duration
	// SyncReplicas is the write-ack gate: a write is acknowledged only after
	// at least this many live mirrors acked its record. 0 means 1; negative
	// disables the gate (an acked write may be lost if the primary dies
	// before the stream drains). Clamped to cluster size − 1.
	SyncReplicas int
}

const (
	defaultHeartbeat    = 250 * time.Millisecond
	defaultSyncReplicas = 1
)

func (c FailoverConfig) withDefaults(clusterSize int) FailoverConfig {
	if c.Heartbeat <= 0 {
		c.Heartbeat = defaultHeartbeat
	}
	if c.Lease <= 0 {
		c.Lease = 4 * c.Heartbeat
	}
	if c.SyncReplicas == 0 {
		c.SyncReplicas = defaultSyncReplicas
	}
	if c.SyncReplicas > clusterSize-1 {
		c.SyncReplicas = clusterSize - 1
	}
	return c
}

// ErrFenced reports a request refused by the failover fence: the node is
// not (or no longer, or not yet) the serving owner of the statement's
// slot in the newest epoch it knows, or an acked write could not be
// replicated while the node still held a quorum. The sentinel crosses
// the wire by message text ("cluster: fenced"); clients re-resolve
// placement and retry against the current owner.
var ErrFenced = errors.New("cluster: fenced")

// slotTable is one node's view of who serves each slot. All vector state
// is per slot and guarded by mu; cond broadcasts on every state change and
// every heartbeat tick, which is what wakes the write-ack gate.
type slotTable struct {
	n   *Node
	cfg FailoverConfig // the zero value on a static table: no lease, no ack gate

	mu      sync.Mutex
	cond    *sync.Cond
	started time.Time

	epochs []uint64
	owners []int
	bases  []int64

	serving   bool // this node may serve its own slot
	probation bool // fresh boot: awaiting a majority view with no higher epoch
	demoted   bool // own slot lost to a higher epoch
	rejoining bool

	lastSeen []time.Time
	views    []wire.Heartbeat
	haveView []bool

	takeovers map[int]LocalStore
	subs      map[int]map[int]int64 // slot → subscriber node → acked seq
}

// newSlotTable builds the boot table: epoch 0, slot s served by node s. A
// leased table boots on probation: the node does not serve its own slot
// until a majority has reported no higher epoch. A static one serves it
// from boot.
func newSlotTable(n *Node, cfg FailoverConfig) *slotTable {
	size := len(n.addrs)
	probation := cfg.Lease > 0
	tab := &slotTable{
		n:         n,
		cfg:       cfg,
		epochs:    make([]uint64, size),
		owners:    make([]int, size),
		bases:     make([]int64, size),
		lastSeen:  make([]time.Time, size),
		views:     make([]wire.Heartbeat, size),
		haveView:  make([]bool, size),
		takeovers: make(map[int]LocalStore),
		subs:      make(map[int]map[int]int64),
		serving:   !probation,
		probation: probation,
	}
	for s := range tab.owners {
		tab.owners[s] = s
	}
	tab.cond = sync.NewCond(&tab.mu)
	return tab
}

// leased reports whether the table keeps leases: only then does it
// exchange heartbeats, and so only then can a promotion change it.
func (tab *slotTable) leased() bool { return tab.cfg.Lease > 0 }

// start opens the lease clock and the heartbeat loops of a leased table.
func (tab *slotTable) start() {
	if !tab.leased() {
		return
	}
	tab.mu.Lock()
	tab.started = time.Now()
	tab.mu.Unlock()
	for i := range tab.n.addrs {
		if i == tab.n.id {
			continue
		}
		tab.n.wg.Add(1)
		go tab.heartbeatLoop(i)
	}
}

// ownerOf returns the node currently serving a slot.
func (tab *slotTable) ownerOf(slot int) int {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	return tab.owners[slot]
}

// epochOf returns the newest known epoch for a slot.
func (tab *slotTable) epochOf(slot int) uint64 {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	return tab.epochs[slot]
}

// aliveLocked reports whether a node is presumed alive. A peer never
// heard from counts as alive during the first lease after start (the
// boot grace period: leases must have had a chance to form before
// anyone is declared dead).
func (tab *slotTable) aliveLocked(id int) bool {
	if id == tab.n.id {
		return true
	}
	if id < 0 || id >= len(tab.lastSeen) {
		return false
	}
	if tab.lastSeen[id].IsZero() {
		return time.Since(tab.started) < tab.cfg.Lease
	}
	return time.Since(tab.lastSeen[id]) < tab.cfg.Lease
}

// majorityLocked reports whether this node can reach a majority of the
// cluster (itself included): the serve/promote precondition that keeps a
// minority partition from acking writes or electing a second winner.
func (tab *slotTable) majorityLocked() bool {
	alive := 1
	for id := range tab.lastSeen {
		if id != tab.n.id && tab.aliveLocked(id) {
			alive++
		}
	}
	return alive >= len(tab.lastSeen)/2+1
}

// viewLocked assembles this node's heartbeat payload.
func (tab *slotTable) viewLocked() wire.Heartbeat {
	n := tab.n
	size := len(n.addrs)
	hb := wire.Heartbeat{
		From:    n.id,
		Epochs:  append([]uint64(nil), tab.epochs...),
		Owners:  append([]int(nil), tab.owners...),
		Bases:   append([]int64(nil), tab.bases...),
		Applied: make([]int64, size),
	}
	for s := 0; s < size; s++ {
		switch {
		case s == n.id && !tab.demoted:
			hb.Applied[s] = n.store.Version()
		case tab.owners[s] == n.id && s != n.id:
			if st := tab.takeovers[s]; st != nil {
				hb.Applied[s] = st.Version()
			}
		default:
			if m := n.mirrorRef(s); m != nil {
				hb.Applied[s] = m.version()
			}
		}
	}
	return hb
}

func (tab *slotTable) view() wire.Heartbeat {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	return tab.viewLocked()
}

// merge folds a peer's heartbeat (or ack) into local state: refresh the
// sender's lease, adopt any newer epoch, resolve boot probation, and
// re-check promotion conditions. This is the gossip step — a node two
// hops from a promotion still learns it within a heartbeat interval.
func (tab *slotTable) merge(hb wire.Heartbeat) {
	tab.mu.Lock()
	if hb.From >= 0 && hb.From < len(tab.lastSeen) && hb.From != tab.n.id {
		tab.lastSeen[hb.From] = time.Now()
		tab.views[hb.From] = hb
		tab.haveView[hb.From] = true
	}
	for s := 0; s < len(tab.epochs) && s < len(hb.Epochs); s++ {
		newer := hb.Epochs[s] > tab.epochs[s]
		// Same epoch, different owner: deterministic tiebreak (lower node
		// id) so concurrent equal-epoch claims converge everywhere.
		tie := hb.Epochs[s] == tab.epochs[s] && hb.Epochs[s] > 0 && hb.Owners[s] < tab.owners[s]
		if newer || tie {
			tab.adoptLocked(s, hb.Epochs[s], hb.Owners[s], hb.Bases[s])
		}
	}
	tab.resolveProbationLocked()
	tab.mu.Unlock()
	tab.cond.Broadcast()
	tab.maybePromote()
}

// adoptLocked installs a newer (epoch, owner) for a slot. Adopting a
// higher epoch for OUR OWN slot is the fence closing on us: stop
// serving, and rejoin as a replica of the winner.
func (tab *slotTable) adoptLocked(s int, epoch uint64, owner int, base int64) {
	tab.epochs[s], tab.owners[s], tab.bases[s] = epoch, owner, base
	if owner == tab.n.id {
		return
	}
	if s == tab.n.id {
		tab.serving = false
		tab.probation = false
		tab.demoted = true
		if !tab.rejoining && !tab.n.closing.Load() {
			tab.rejoining = true
			tab.n.wg.Add(1)
			go tab.rejoin(base)
		}
		return
	}
	// A slot we had promoted was claimed by a higher epoch elsewhere:
	// stop serving it (the store stays open until node Close).
	delete(tab.takeovers, s)
}

// resolveProbationLocked ends the fresh-boot probation once a majority
// of the cluster has reported views and none deposed us: only then may
// the node serve its own slot, so a restarted dead primary cannot serve
// a single stale statement before hearing about its succession.
func (tab *slotTable) resolveProbationLocked() {
	if !tab.probation {
		return
	}
	fresh := 1
	for id := range tab.haveView {
		if id != tab.n.id && tab.haveView[id] && tab.aliveLocked(id) {
			fresh++
		}
	}
	if fresh >= len(tab.lastSeen)/2+1 {
		tab.probation = false
		if !tab.demoted {
			tab.serving = true
		}
	}
}

// heartbeatLoop drives one peer's heartbeat connection: dial (through
// the node's dialer, so fault injection sees it), handshake, then one
// Heartbeat→Ack round trip per interval. Heartbeats are written one
// frame per Write — unbuffered — so a fault transport can drop them at
// frame granularity. Either direction of traffic refreshes the lease;
// the loop also ticks the promotion check and wakes gate waiters even
// while the peer is unreachable.
func (tab *slotTable) heartbeatLoop(peerIdx int) {
	n := tab.n
	defer n.wg.Done()
	var conn net.Conn
	var rd *wire.Reader
	drop := func() {
		if conn != nil {
			n.untrackConn(conn)
			conn.Close()
			conn, rd = nil, nil
		}
	}
	defer drop()
	for !n.closing.Load() {
		if conn == nil {
			if c, crd, err := tab.dialHeartbeat(peerIdx); err == nil {
				conn, rd = c, crd
			}
		}
		if conn != nil {
			start := time.Now()
			if err := tab.heartbeatRound(conn, rd); err != nil {
				drop()
			} else {
				n.m.HeartbeatRTT.Since(start)
			}
		}
		tab.tick()
		time.Sleep(tab.cfg.Heartbeat)
	}
}

// dialHeartbeat opens and handshakes one heartbeat connection.
func (tab *slotTable) dialHeartbeat(peerIdx int) (net.Conn, *wire.Reader, error) {
	n := tab.n
	conn, err := n.dial(n.addrs[peerIdx])
	if err != nil {
		return nil, nil, err
	}
	if !n.trackConn(conn) {
		conn.Close()
		return nil, nil, errNodeClosing
	}
	fail := func(err error) (net.Conn, *wire.Reader, error) {
		n.untrackConn(conn)
		conn.Close()
		return nil, nil, err
	}
	rd := wire.NewReader(bufio.NewReaderSize(conn, 4096))
	conn.SetReadDeadline(time.Now().Add(tab.cfg.Lease))
	if _, err := wire.Handshake(conn, rd, wire.Hello{Origin: n.origin + "-hb"}); err != nil {
		return fail(fmt.Errorf("cluster: heartbeat handshake with node %d: %w", peerIdx, err))
	}
	return conn, rd, nil
}

// heartbeatRound is one Heartbeat→Ack exchange.
func (tab *slotTable) heartbeatRound(conn net.Conn, rd *wire.Reader) error {
	if err := wire.WriteFrame(conn, wire.FrameHeartbeat, wire.AppendHeartbeat(nil, tab.view())); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(tab.cfg.Lease))
	typ, payload, err := rd.Next()
	if err != nil {
		return err
	}
	if typ != wire.FrameHeartbeatAck {
		return fmt.Errorf("cluster: unexpected frame %#x on heartbeat link", typ)
	}
	ack, err := wire.DecodeHeartbeat(payload)
	if err != nil {
		return err
	}
	tab.merge(ack)
	return nil
}

// tick runs the periodic obligations of a heartbeat interval: promotion
// checks (leases expire by time, not by traffic) and a broadcast so gate
// waiters re-evaluate liveness.
func (tab *slotTable) tick() {
	tab.maybePromote()
	tab.cond.Broadcast()
}

// maybePromote promotes this node into any slot whose owner's lease has
// expired, IF a majority of the cluster is reachable and this node's
// mirror is the most caught up among the live candidates (ties break to
// the lowest node id). Every live node runs the same deterministic rule
// over gossiped applied-sequences, so they agree on the winner; only the
// winner acts.
func (tab *slotTable) maybePromote() {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if tab.n.closing.Load() || !tab.majorityLocked() {
		return
	}
	for s := range tab.owners {
		owner := tab.owners[s]
		if owner == tab.n.id || s == tab.n.id || tab.aliveLocked(owner) {
			continue
		}
		m := tab.n.mirrorRef(s)
		best, bestApplied := tab.n.id, m.version()
		for p := range tab.views {
			if p == tab.n.id || p == owner || !tab.haveView[p] || !tab.aliveLocked(p) {
				continue
			}
			v := tab.views[p]
			if s < len(v.Applied) && (v.Applied[s] > bestApplied || (v.Applied[s] == bestApplied && p < best)) {
				best, bestApplied = p, v.Applied[s]
			}
		}
		if best != tab.n.id {
			continue
		}
		tab.promoteLocked(s, m)
	}
}

// promoteLocked turns this node into slot s's serving owner: bump the
// epoch, and take the mirror's version as the takeover store's initial one.
// The store's archive starts with that version's snapshot and its log
// floor is the promotion base, so a subscriber below the base catches up
// from the snapshot. The version is taken before the takeover store is
// built, so a record the stream applies meanwhile does not reach the
// store. Runs under tab.mu: promotion is rare and must be atomic against
// routing.
func (tab *slotTable) promoteLocked(s int, m *mirror) {
	epoch := tab.epochs[s] + 1
	db := m.db.Load()
	base := db.Version()
	st, err := tab.n.promote(s, epoch, db)
	if err != nil {
		// Promotion failed locally (disk trouble); leave the slot dark and
		// let a later tick — or another candidate — retry.
		return
	}
	tab.takeovers[s] = st
	tab.epochs[s], tab.owners[s], tab.bases[s] = epoch, tab.n.id, base
	tab.n.m.Promotions.Inc()
}

// route resolves a slot under one lock: the store this node serves it
// from, or — when another node owns it — that owner and the slot's epoch
// (st nil). A slot this node owns but may not serve yet (probation,
// demotion, no takeover store) is fenced with err, and routeOf's
// unplaceable slot -1 is refused.
func (tab *slotTable) route(slot int) (st LocalStore, owner int, epoch uint64, err error) {
	if slot < 0 {
		return nil, 0, 0, errUnroutable
	}
	tab.mu.Lock()
	defer tab.mu.Unlock()
	owner, epoch = tab.owners[slot], tab.epochs[slot]
	switch {
	case owner != tab.n.id:
		return nil, owner, epoch, nil
	case slot == tab.n.id:
		if !tab.serving {
			return nil, owner, epoch, fmt.Errorf("%w: node %d is not serving its slot (probation or demoted)", ErrFenced, tab.n.id)
		}
		return tab.n.store, owner, epoch, nil
	case tab.takeovers[slot] == nil:
		return nil, owner, epoch, fmt.Errorf("%w: no takeover store for slot %d yet", ErrFenced, slot)
	}
	return tab.takeovers[slot], owner, epoch, nil
}

// gatedWrite is a write's response behind the replication-ack gate. It is
// its own future — the cell gated hands out, suspended on the gate itself —
// so gating a write allocates the gate and nothing else.
type gatedWrite struct {
	cell  session.Future
	tab   *slotTable
	slot  int
	v     int64
	inner *session.Future
}

// gated wraps a write future in the replication-ack gate: the response
// is surfaced only after SyncReplicas live mirrors acked sequence v, a
// version at or beyond the write's commit. If the node loses its quorum
// while waiting, the write is answered with ErrFenced — it applied
// locally, but the winner's history will not contain it, and an un-acked
// write is allowed to vanish.
func (tab *slotTable) gated(slot int, v int64, fut *session.Future) *session.Future {
	g := &gatedWrite{tab: tab, slot: slot, v: v, inner: fut}
	return g.cell.Suspend(g)
}

// Eval implements lenient.Thunk for the gated future.
func (g *gatedWrite) Eval(r *core.Response) {
	if *r = g.inner.Force(); r.Err != nil {
		return
	}
	if err := g.tab.waitAcked(g.slot, g.v); err != nil {
		r.Err = err
	}
}

// waitAcked blocks until SyncReplicas live subscribers of the slot have
// acked sequence v, erroring out if the node cannot hold a quorum.
func (tab *slotTable) waitAcked(slot int, v int64) error {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	for {
		if tab.n.closing.Load() {
			return fmt.Errorf("%w: node closing before write was replicated", ErrFenced)
		}
		acked := 0
		for sub, seq := range tab.subs[slot] {
			if seq >= v && tab.aliveLocked(sub) {
				acked++
			}
		}
		if acked >= tab.cfg.SyncReplicas {
			return nil
		}
		if !tab.majorityLocked() {
			return fmt.Errorf("%w: lost quorum for slot %d; write not replicated", ErrFenced, slot)
		}
		tab.cond.Wait()
	}
}

// noteStreamEpoch records an epoch observed on an inbound replication
// stream that is newer than gossip has delivered: the dialed node serves
// the slot in that epoch.
func (tab *slotTable) noteStreamEpoch(slot, owner int, epoch uint64) {
	tab.update(func() {
		if epoch > tab.epochs[slot] {
			tab.adoptLocked(slot, epoch, owner, tab.bases[slot])
		}
	})
}

// rejoin is the deposed primary's path back into the cluster: rewind the
// local history to the winner's promotion base (everything beyond it is
// history only this node ever had — the epoch rule discards it), build a
// mirror of our own former slot at that version, and pull the winner's
// log like any other replica. The node keeps answering for slots it
// still serves throughout.
func (tab *slotTable) rejoin(base int64) {
	n := tab.n
	defer n.wg.Done()
	db := n.store.Current()
	if db.Version() > base {
		var err error
		if db, err = n.store.VersionAt(base); err != nil {
			return
		}
	}
	m := newMirror(n.id, db)
	n.setMirror(n.id, m)
	if n.closing.Load() {
		return
	}
	n.wg.Add(1)
	go n.replicateFrom(n.id, m)
}

// Node surface of the slot table (server.Cluster and introspection).

// HandleHeartbeat implements server.Cluster: merge the sender's view,
// answer with ours. ok=false on a static table, which keeps no leases.
func (n *Node) HandleHeartbeat(hb wire.Heartbeat) (wire.Heartbeat, bool) {
	if !n.slots.leased() {
		return wire.Heartbeat{}, false
	}
	n.slots.merge(hb)
	return n.slots.view(), true
}

// FenceForward implements server.Cluster: it validates an inbound tagged
// Request against the slot's epoch. A frame stamped with an older epoch is
// from a peer (or client) that has not heard about a promotion: refuse it
// so the sender re-resolves. A frame for a slot this node serves is
// additionally gated on the node actually serving (probation, demotion).
func (n *Node) FenceForward(rel string, epoch uint64, hasEpoch bool) error {
	slot, tab := OwnerIndex(rel, len(n.addrs)), n.slots
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if hasEpoch && epoch < tab.epochs[slot] {
		n.m.FencingRejections.Inc()
		return fmt.Errorf("%w: stale epoch %d for slot %d (current %d, owner %d)",
			ErrFenced, epoch, slot, tab.epochs[slot], tab.owners[slot])
	}
	if tab.owners[slot] == n.id && slot == n.id && !tab.serving {
		return fmt.Errorf("%w: node %d is not serving its slot (probation or demoted)", ErrFenced, n.id)
	}
	return nil
}

// OwnerEpoch implements server.Cluster: the newest known epoch for the
// relation's slot, stamped into Redirect frames.
func (n *Node) OwnerEpoch(rel string) uint64 {
	return n.slots.epochOf(OwnerIndex(rel, len(n.addrs)))
}

// SubscribeSlotLog implements server.Cluster: a slot-addressed,
// epoch-stamped log subscription for a slot this node serves — its own
// store's log, or a takeover store's — each record handed over with its
// version span, its form and its commit's trace context, under
// archive.Archive.SubscribeTxns's contract: a subscriber below the store's
// log floor (a compaction, or a takeover store's promotion base) is sent
// the floor's snapshot first. Records are stamped with the slot's serving
// epoch at subscribe time — if this node is later deposed, subscribers see
// the stale epoch and drop the stream.
//
// The subscriber counts toward the slot's write-ack gate from the moment
// it subscribes, at no acked sequence: ack reports that it has applied the
// slot's log through seq, and cancel unsubscribes it and takes it off the
// gate.
func (n *Node) SubscribeSlotLog(slot, sub int, after int64, fn func(first, last int64, epoch uint64, ctx reqtrace.Ctx, form byte, record []byte)) (ack func(seq int64), cancel func(), err error) {
	if slot < 0 || slot >= len(n.addrs) {
		return nil, nil, fmt.Errorf("cluster: no such slot %d", slot)
	}
	tab := n.slots
	tab.mu.Lock()
	owner, epoch := tab.owners[slot], tab.epochs[slot]
	if owner != n.id {
		tab.mu.Unlock()
		return nil, nil, fmt.Errorf("cluster: node %d does not serve slot %d (owner %d, epoch %d)", n.id, slot, owner, epoch)
	}
	st := tab.takeovers[slot]
	if slot == n.id {
		st = n.store
	}
	tab.mu.Unlock()
	if st == nil {
		return nil, nil, fmt.Errorf("cluster: slot %d has no serving store yet", slot)
	}
	unsubscribe, err := st.SubscribeLog(after, func(first, last int64, ctx reqtrace.Ctx, form byte, record []byte) {
		fn(first, last, epoch, ctx, form, record)
	})
	if err != nil {
		return nil, nil, err
	}
	tab.update(func() {
		if tab.subs[slot] == nil {
			tab.subs[slot] = make(map[int]int64)
		}
		if _, ok := tab.subs[slot][sub]; !ok {
			tab.subs[slot][sub] = -1
		}
	})
	ack = func(seq int64) {
		tab.update(func() {
			if acks := tab.subs[slot]; acks != nil && seq > acks[sub] {
				acks[sub] = seq
			}
		})
	}
	cancel = func() {
		unsubscribe()
		tab.update(func() { delete(tab.subs[slot], sub) })
	}
	return ack, cancel, nil
}

// update changes the table under its lock, then wakes every waiter of the
// write-ack gate to re-evaluate.
func (tab *slotTable) update(change func()) {
	tab.mu.Lock()
	change()
	tab.mu.Unlock()
	tab.cond.Broadcast()
}

// FailoverInfo reports a slot's serving owner and epoch as this node
// believes them, and whether THIS node is currently serving the slot
// (introspection for tests and operators).
func (n *Node) FailoverInfo(slot int) (owner int, epoch uint64, servingHere bool) {
	tab := n.slots
	tab.mu.Lock()
	defer tab.mu.Unlock()
	owner, epoch = tab.owners[slot], tab.epochs[slot]
	if owner != n.id {
		return owner, epoch, false
	}
	if slot == n.id {
		return owner, epoch, tab.serving
	}
	return owner, epoch, tab.takeovers[slot] != nil
}

// WaitReady blocks until the node's boot probation has resolved (it may
// serve its slot, or it learned it was deposed), or the timeout expires.
// It sleeps on the slot table's cond, which the merge that resolves
// probation broadcasts; a timer broadcasts at the deadline. A static table
// has no probation.
func (n *Node) WaitReady(timeout time.Duration) error {
	tab := n.slots
	expired := false
	timer := time.AfterFunc(timeout, func() { tab.update(func() { expired = true }) })
	defer timer.Stop()
	tab.mu.Lock()
	defer tab.mu.Unlock()
	for tab.probation {
		if expired {
			return fmt.Errorf("cluster: node %d still in probation after %v", n.id, timeout)
		}
		tab.cond.Wait()
	}
	return nil
}

// heartbeatAge reports how long ago a peer was last heard from, in
// milliseconds (-1 when never, as always on a static table), plus the
// peer's applied lag behind this node's own log per its last heartbeat.
func (n *Node) heartbeatAge(peerIdx int) (ageMs float64, lag int64) {
	tab := n.slots
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if tab.lastSeen[peerIdx].IsZero() {
		return -1, -1
	}
	ageMs = float64(time.Since(tab.lastSeen[peerIdx]).Microseconds()) / 1000
	lag = -1
	if tab.haveView[peerIdx] {
		v := tab.views[peerIdx]
		if n.id < len(v.Applied) {
			own := n.store.Version()
			if l := own - v.Applied[n.id]; l >= 0 {
				lag = l
			}
		}
	}
	return ageMs, lag
}

// slotVectors copies the epoch/owner vectors for the metrics snapshot.
func (n *Node) slotVectors() (epochs []uint64, owners []int) {
	n.slots.mu.Lock()
	defer n.slots.mu.Unlock()
	return append([]uint64(nil), n.slots.epochs...), append([]int(nil), n.slots.owners...)
}
