package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"funcdb/internal/archive"
	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/session"
	"funcdb/internal/wire"
)

// This file is the failover state machine: lease-based failure detection
// over dedicated heartbeat connections, self-promotion of the
// most-caught-up mirror when a slot's owner dies, epoch fencing of the
// deposed owner, and the rejoin path that rewinds it to the promotion
// base and re-attaches it as a replica.
//
// Terminology: a SLOT is an original owner index — the placement hash
// names slots, and without failover slot s is served by node s. Under
// failover an (epoch, owner) pair per slot says who serves it now;
// epochs only grow, and the higher epoch always wins a disagreement, so
// a deposed primary that comes back cannot split-brain: every frame
// class that moves its data (tagged Request, LogRecord, Redirect) carries
// the epoch, and the stale side is refused or redirected.

// DialFunc opens an outbound cluster connection. The default is
// net.Dial("tcp", addr); tests substitute a FaultTransport dialer to
// drop, delay, or partition traffic deterministically.
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
	// SyncReplicas is the write-ack gate: a write is acknowledged only
	// after at least this many live mirrors acked its record (0 disables
	// the gate — acked writes may be lost if the primary dies before the
	// stream drains). Clamped to cluster size − 1.
	SyncReplicas int
}

const (
	defaultHeartbeat    = 250 * time.Millisecond
	defaultSyncReplicas = 1
	// failoverTailCap bounds the per-mirror ring of raw record bytes kept
	// for post-promotion catch-up of subscribers that are behind the
	// takeover store's log floor.
	failoverTailCap = 65536
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

// Rewinder is implemented by stores that can materialize an arbitrary
// retained version (funcdb.Store replays its archive). The rejoin path
// uses it to rewind a deposed primary to the winner's promotion base —
// everything after the base is history only this node ever had, and the
// epoch rule says the winner's history wins.
type Rewinder interface {
	VersionAt(seq int64) (*database.Database, error)
}

// recordTail is a frozen run of raw log-record bytes ending at the
// promotion base: records (from, from+len] in slot sequence order. The
// takeover store's archive floor is the base, so a subscriber starting
// below it is bridged from here.
type recordTail struct {
	from int64
	recs [][]byte
}

func (t *recordTail) end() int64 { return t.from + int64(len(t.recs)) }

// failover is one node's failover state. All vector state is per slot
// and guarded by mu; cond broadcasts on every state change and every
// heartbeat tick, which is what wakes the write-ack gate.
type failover struct {
	n   *Node
	cfg FailoverConfig

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
	tails     map[int]*recordTail
	subs      map[int]map[int]int64 // slot → subscriber node → acked seq
}

func newFailover(n *Node, cfg FailoverConfig) *failover {
	size := len(n.addrs)
	f := &failover{
		n:         n,
		cfg:       cfg.withDefaults(size),
		epochs:    make([]uint64, size),
		owners:    make([]int, size),
		bases:     make([]int64, size),
		lastSeen:  make([]time.Time, size),
		views:     make([]wire.Heartbeat, size),
		haveView:  make([]bool, size),
		takeovers: make(map[int]LocalStore),
		tails:     make(map[int]*recordTail),
		subs:      make(map[int]map[int]int64),
		probation: true,
	}
	for s := range f.owners {
		f.owners[s] = s
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

func (f *failover) start() {
	f.mu.Lock()
	f.started = time.Now()
	f.mu.Unlock()
	for i := range f.n.addrs {
		if i == f.n.id {
			continue
		}
		f.n.wg.Add(1)
		go f.heartbeatLoop(i)
	}
}

// ownerOf returns the node currently serving a slot.
func (f *failover) ownerOf(slot int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.owners[slot]
}

// epochOf returns the newest known epoch for a slot.
func (f *failover) epochOf(slot int) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epochs[slot]
}

// aliveLocked reports whether a node is presumed alive. A peer never
// heard from counts as alive during the first lease after start (the
// boot grace period: leases must have had a chance to form before
// anyone is declared dead).
func (f *failover) aliveLocked(id int) bool {
	if id == f.n.id {
		return true
	}
	if id < 0 || id >= len(f.lastSeen) {
		return false
	}
	if f.lastSeen[id].IsZero() {
		return time.Since(f.started) < f.cfg.Lease
	}
	return time.Since(f.lastSeen[id]) < f.cfg.Lease
}

// majorityLocked reports whether this node can reach a majority of the
// cluster (itself included): the serve/promote precondition that keeps a
// minority partition from acking writes or electing a second winner.
func (f *failover) majorityLocked() bool {
	alive := 1
	for id := range f.lastSeen {
		if id != f.n.id && f.aliveLocked(id) {
			alive++
		}
	}
	return alive >= len(f.lastSeen)/2+1
}

// viewLocked assembles this node's heartbeat payload.
func (f *failover) viewLocked() wire.Heartbeat {
	n := f.n
	size := len(n.addrs)
	hb := wire.Heartbeat{
		From:    n.id,
		Epochs:  append([]uint64(nil), f.epochs...),
		Owners:  append([]int(nil), f.owners...),
		Bases:   append([]int64(nil), f.bases...),
		Applied: make([]int64, size),
	}
	for s := 0; s < size; s++ {
		switch {
		case s == n.id && !f.demoted:
			hb.Applied[s] = n.store.Version()
		case f.owners[s] == n.id && s != n.id:
			if st := f.takeovers[s]; st != nil {
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

func (f *failover) view() wire.Heartbeat {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.viewLocked()
}

// merge folds a peer's heartbeat (or ack) into local state: refresh the
// sender's lease, adopt any newer epoch, resolve boot probation, and
// re-check promotion conditions. This is the gossip step — a node two
// hops from a promotion still learns it within a heartbeat interval.
func (f *failover) merge(hb wire.Heartbeat) {
	f.mu.Lock()
	if hb.From >= 0 && hb.From < len(f.lastSeen) && hb.From != f.n.id {
		f.lastSeen[hb.From] = time.Now()
		f.views[hb.From] = hb
		f.haveView[hb.From] = true
	}
	for s := 0; s < len(f.epochs) && s < len(hb.Epochs); s++ {
		newer := hb.Epochs[s] > f.epochs[s]
		// Same epoch, different owner: deterministic tiebreak (lower node
		// id) so concurrent equal-epoch claims converge everywhere.
		tie := hb.Epochs[s] == f.epochs[s] && hb.Epochs[s] > 0 && hb.Owners[s] < f.owners[s]
		if newer || tie {
			f.adoptLocked(s, hb.Epochs[s], hb.Owners[s], hb.Bases[s])
		}
	}
	f.resolveProbationLocked()
	f.mu.Unlock()
	f.cond.Broadcast()
	f.maybePromote()
}

// adoptLocked installs a newer (epoch, owner) for a slot. Adopting a
// higher epoch for OUR OWN slot is the fence closing on us: stop
// serving, and rejoin as a replica of the winner.
func (f *failover) adoptLocked(s int, epoch uint64, owner int, base int64) {
	f.epochs[s], f.owners[s], f.bases[s] = epoch, owner, base
	if owner == f.n.id {
		return
	}
	if s == f.n.id {
		f.serving = false
		f.probation = false
		f.demoted = true
		if !f.rejoining && !f.n.closing.Load() {
			f.rejoining = true
			f.n.wg.Add(1)
			go f.rejoin(base)
		}
		return
	}
	// A slot we had promoted was claimed by a higher epoch elsewhere:
	// stop serving it (the store stays open until node Close).
	delete(f.takeovers, s)
	delete(f.tails, s)
}

// resolveProbationLocked ends the fresh-boot probation once a majority
// of the cluster has reported views and none deposed us: only then may
// the node serve its own slot, so a restarted dead primary cannot serve
// a single stale statement before hearing about its succession.
func (f *failover) resolveProbationLocked() {
	if !f.probation {
		return
	}
	fresh := 1
	for id := range f.haveView {
		if id != f.n.id && f.haveView[id] && f.aliveLocked(id) {
			fresh++
		}
	}
	if fresh >= len(f.lastSeen)/2+1 {
		f.probation = false
		if !f.demoted {
			f.serving = true
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
func (f *failover) heartbeatLoop(peerIdx int) {
	n := f.n
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
			if c, crd, err := f.dialHeartbeat(peerIdx); err == nil {
				conn, rd = c, crd
			}
		}
		if conn != nil {
			start := time.Now()
			if err := f.heartbeatRound(conn, rd); err != nil {
				drop()
			} else {
				n.m.HeartbeatRTT.Since(start)
			}
		}
		f.tick()
		time.Sleep(f.cfg.Heartbeat)
	}
}

// dialHeartbeat opens and handshakes one heartbeat connection.
func (f *failover) dialHeartbeat(peerIdx int) (net.Conn, *wire.Reader, error) {
	n := f.n
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
	hello := wire.AppendHello(nil, wire.Hello{Origin: fmt.Sprintf("%s-hb", n.origin)})
	if err := wire.WriteFrame(conn, wire.FrameHello, hello); err != nil {
		return fail(err)
	}
	rd := wire.NewReader(bufio.NewReaderSize(conn, 4096))
	conn.SetReadDeadline(time.Now().Add(f.cfg.Lease))
	typ, payload, err := rd.Next()
	if err != nil || typ != wire.FrameWelcome {
		return fail(fmt.Errorf("cluster: heartbeat handshake with node %d failed: %v", peerIdx, err))
	}
	if _, err := wire.DecodeWelcome(payload); err != nil {
		return fail(err)
	}
	return conn, rd, nil
}

// heartbeatRound is one Heartbeat→Ack exchange.
func (f *failover) heartbeatRound(conn net.Conn, rd *wire.Reader) error {
	if err := wire.WriteFrame(conn, wire.FrameHeartbeat, wire.AppendHeartbeat(nil, f.view())); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(f.cfg.Lease))
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
	f.merge(ack)
	return nil
}

// tick runs the periodic obligations of a heartbeat interval: promotion
// checks (leases expire by time, not by traffic) and a broadcast so gate
// waiters re-evaluate liveness.
func (f *failover) tick() {
	f.maybePromote()
	f.cond.Broadcast()
}

// maybePromote promotes this node into any slot whose owner's lease has
// expired, IF a majority of the cluster is reachable and this node's
// mirror is the most caught up among the live candidates (ties break to
// the lowest node id). Every live node runs the same deterministic rule
// over gossiped applied-sequences, so they agree on the winner; only the
// winner acts.
func (f *failover) maybePromote() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n.closing.Load() || !f.majorityLocked() {
		return
	}
	for s := range f.owners {
		owner := f.owners[s]
		if owner == f.n.id || s == f.n.id || f.aliveLocked(owner) {
			continue
		}
		m := f.n.mirrorRef(s)
		if m == nil {
			continue
		}
		best, bestApplied := f.n.id, m.version()
		for p := range f.views {
			if p == f.n.id || p == owner || !f.haveView[p] || !f.aliveLocked(p) {
				continue
			}
			v := f.views[p]
			if s < len(v.Applied) && (v.Applied[s] > bestApplied || (v.Applied[s] == bestApplied && p < best)) {
				best, bestApplied = p, v.Applied[s]
			}
		}
		if best != f.n.id {
			continue
		}
		f.promoteLocked(s, m)
	}
}

// promoteLocked turns this node into slot s's serving owner: bump the
// epoch, snapshot the mirror's database as the takeover store's initial
// version (its log floor is the promotion base), and freeze the mirror's
// record tail so subscribers below the floor can still catch up. Runs
// under f.mu: promotion is rare and must be atomic against routing.
func (f *failover) promoteLocked(s int, m *mirror) {
	epoch := f.epochs[s] + 1
	db := m.eng.Current()
	base := db.Version()
	st, err := f.n.promote(s, epoch, db)
	if err != nil {
		// Promotion failed locally (disk trouble); leave the slot dark and
		// let a later tick — or another candidate — retry.
		return
	}
	f.tails[s] = m.freezeTail()
	f.takeovers[s] = st
	f.epochs[s], f.owners[s], f.bases[s] = epoch, f.n.id, base
	f.n.m.Promotions.Inc()
}

// localStore resolves the store this node serves a slot from, fencing
// requests for slots it does not (or may not yet) serve.
func (f *failover) localStore(slot int) (LocalStore, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.owners[slot] != f.n.id {
		return nil, fmt.Errorf("%w: slot %d is served by node %d (epoch %d)", ErrFenced, slot, f.owners[slot], f.epochs[slot])
	}
	if slot == f.n.id {
		if !f.serving {
			return nil, fmt.Errorf("%w: node %d is not serving its slot (probation or demoted)", ErrFenced, f.n.id)
		}
		return f.n.store, nil
	}
	st := f.takeovers[slot]
	if st == nil {
		return nil, fmt.Errorf("%w: no takeover store for slot %d yet", ErrFenced, slot)
	}
	return st, nil
}

// authorityStore returns the store this node serves a slot from, or nil
// when it is not the serving owner (replica reads then fall back to the
// mirrors).
func (f *failover) authorityStore(slot int) LocalStore {
	st, err := f.localStore(slot)
	if err != nil {
		return nil
	}
	return st
}

// gatedWrite is a write's response behind the replication-ack gate. It is
// its own future — the cell gated hands out, suspended on the gate itself —
// so gating a write allocates the gate and nothing else.
type gatedWrite struct {
	cell  session.Future
	f     *failover
	slot  int
	st    LocalStore
	inner *session.Future
}

// gated wraps a write future in the replication-ack gate: the response
// is surfaced only after SyncReplicas live mirrors acked a sequence at
// or beyond the write's commit. If the node loses its quorum while
// waiting, the write is answered with ErrFenced — it applied locally,
// but the winner's history will not contain it, and an un-acked write is
// allowed to vanish.
func (f *failover) gated(slot int, st LocalStore, fut *session.Future) *session.Future {
	g := &gatedWrite{f: f, slot: slot, st: st, inner: fut}
	return g.cell.Suspend(g)
}

// Eval implements lenient.Thunk for the gated future.
func (g *gatedWrite) Eval() core.Response {
	r := g.inner.Force()
	if r.Err != nil {
		return r
	}
	// The store's current version bounds this write's commit sequence
	// from above: waiting for it is conservative and monotone.
	if err := g.f.waitReplicated(g.slot, g.st.Version()); err != nil {
		r.Err = err
	}
	return r
}

// waitReplicated blocks until SyncReplicas live subscribers of the slot
// have acked sequence v, erroring out if the node cannot hold a quorum.
func (f *failover) waitReplicated(slot int, v int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.n.closing.Load() {
			return fmt.Errorf("%w: node closing before write was replicated", ErrFenced)
		}
		acked := 0
		for sub, seq := range f.subs[slot] {
			if seq >= v && f.aliveLocked(sub) {
				acked++
			}
		}
		if acked >= f.cfg.SyncReplicas {
			return nil
		}
		if !f.majorityLocked() {
			return fmt.Errorf("%w: lost quorum for slot %d; write not replicated", ErrFenced, slot)
		}
		f.cond.Wait()
	}
}

// subscribeSlot serves a slot's log to one subscriber: the frozen
// pre-promotion tail first (for subscribers behind the takeover store's
// log floor), then the authoritative store's log. Records are stamped
// with the slot's serving epoch at subscribe time — if this node is
// later deposed, subscribers see the stale epoch and drop the stream.
func (f *failover) subscribeSlot(slot, sub int, after int64, fn func(seq int64, epoch uint64, record []byte)) (func(), error) {
	f.mu.Lock()
	if f.owners[slot] != f.n.id {
		owner, epoch := f.owners[slot], f.epochs[slot]
		f.mu.Unlock()
		return nil, fmt.Errorf("cluster: node %d does not serve slot %d (owner %d, epoch %d)", f.n.id, slot, owner, epoch)
	}
	epoch := f.epochs[slot]
	var st LocalStore
	var tail *recordTail
	if slot == f.n.id {
		st = f.n.store
	} else {
		st, tail = f.takeovers[slot], f.tails[slot]
	}
	f.mu.Unlock()
	if st == nil {
		return nil, fmt.Errorf("cluster: slot %d has no serving store yet", slot)
	}
	if tail != nil && after < tail.end() {
		if after < tail.from {
			return nil, fmt.Errorf("%w: takeover tail for slot %d starts at %d, subscriber wants %d",
				archive.ErrLogTrimmed, slot, tail.from, after)
		}
		for i := after - tail.from; i < int64(len(tail.recs)); i++ {
			fn(tail.from+i+1, epoch, tail.recs[i])
		}
		after = tail.end()
	}
	return st.SubscribeLog(after, func(seq int64, record []byte) {
		fn(seq, epoch, record)
	})
}

// Subscriber-ack bookkeeping (the server's slot-log stream calls these
// through the Node).

func (f *failover) subAttached(slot, sub int) {
	f.mu.Lock()
	if f.subs[slot] == nil {
		f.subs[slot] = make(map[int]int64)
	}
	if _, ok := f.subs[slot][sub]; !ok {
		f.subs[slot][sub] = -1
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

func (f *failover) subAck(slot, sub int, seq int64) {
	f.mu.Lock()
	if m := f.subs[slot]; m != nil && seq > m[sub] {
		m[sub] = seq
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

func (f *failover) subGone(slot, sub int) {
	f.mu.Lock()
	if m := f.subs[slot]; m != nil {
		delete(m, sub)
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

// fence validates an inbound tagged Request against the slot's epoch. A
// frame stamped with an older epoch is from a peer (or client) that has not
// heard about a promotion: refuse it so the sender re-resolves. A frame
// for a slot this node serves is additionally gated on the node actually
// serving (probation, demotion).
func (f *failover) fence(slot int, epoch uint64, hasEpoch bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if hasEpoch && epoch < f.epochs[slot] {
		f.n.m.FencingRejections.Inc()
		return fmt.Errorf("%w: stale epoch %d for slot %d (current %d, owner %d)",
			ErrFenced, epoch, slot, f.epochs[slot], f.owners[slot])
	}
	if f.owners[slot] == f.n.id && slot == f.n.id && !f.serving {
		return fmt.Errorf("%w: node %d is not serving its slot (probation or demoted)", ErrFenced, f.n.id)
	}
	return nil
}

// noteStreamEpoch records an epoch observed on an inbound replication
// stream that is newer than gossip has delivered: the dialed node serves
// the slot in that epoch.
func (f *failover) noteStreamEpoch(slot, owner int, epoch uint64) {
	f.mu.Lock()
	if epoch > f.epochs[slot] {
		f.adoptLocked(slot, epoch, owner, f.bases[slot])
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

// rejoin is the deposed primary's path back into the cluster: rewind the
// local history to the winner's promotion base (everything beyond it is
// history only this node ever had — the epoch rule discards it), build a
// mirror of our own former slot at that version, and pull the winner's
// log like any other replica. The node keeps answering for slots it
// still serves throughout.
func (f *failover) rejoin(base int64) {
	n := f.n
	defer n.wg.Done()
	cur := n.store.Current()
	db := cur
	if cur.Version() > base {
		rw, ok := n.store.(Rewinder)
		if !ok {
			return // cannot rewind: stay fenced, serve nothing for the slot
		}
		var err error
		if db, err = rw.VersionAt(base); err != nil {
			return
		}
	}
	m := newMirrorFromDB(n.id, db)
	m.keepTail = true
	n.setMirror(n.id, m)
	if n.closing.Load() {
		return
	}
	n.wg.Add(1)
	go n.replicateFrom(n.id, m)
}

// Node surface for the failover machinery (server capabilities and
// introspection).

// HandleHeartbeat implements server.HeartbeatSink: merge the sender's
// view, answer with ours. ok=false without failover.
func (n *Node) HandleHeartbeat(hb wire.Heartbeat) (wire.Heartbeat, bool) {
	if n.fo == nil {
		return wire.Heartbeat{}, false
	}
	n.fo.merge(hb)
	return n.fo.view(), true
}

// FenceForward implements server.Fencer.
func (n *Node) FenceForward(rel string, epoch uint64, hasEpoch bool) error {
	if n.fo == nil {
		return nil
	}
	return n.fo.fence(OwnerIndex(rel, len(n.addrs)), epoch, hasEpoch)
}

// OwnerEpoch implements server.Fencer: the newest known epoch for the
// relation's slot, stamped into Redirect frames.
func (n *Node) OwnerEpoch(rel string) uint64 {
	if n.fo == nil {
		return 0
	}
	return n.fo.epochOf(OwnerIndex(rel, len(n.addrs)))
}

// SubscribeSlotLog implements server.SlotLogSource: a slot-addressed,
// epoch-stamped log subscription. Without failover only the node's own
// slot is subscribable, epoch 0.
func (n *Node) SubscribeSlotLog(slot, sub int, after int64, fn func(seq int64, epoch uint64, record []byte)) (func(), error) {
	if slot < 0 || slot >= len(n.addrs) {
		return nil, fmt.Errorf("cluster: no such slot %d", slot)
	}
	if n.fo == nil {
		if slot != n.id {
			return nil, fmt.Errorf("cluster: node %d does not serve slot %d", n.id, slot)
		}
		return n.store.SubscribeLog(after, func(seq int64, record []byte) {
			fn(seq, 0, record)
		})
	}
	return n.fo.subscribeSlot(slot, sub, after, fn)
}

// SubscriberAttached implements server.SlotLogSource.
func (n *Node) SubscriberAttached(slot, sub int) {
	if n.fo != nil {
		n.fo.subAttached(slot, sub)
	}
}

// SubscriberAck implements server.SlotLogSource.
func (n *Node) SubscriberAck(slot, sub int, seq int64) {
	if n.fo != nil {
		n.fo.subAck(slot, sub, seq)
	}
}

// SubscriberGone implements server.SlotLogSource.
func (n *Node) SubscriberGone(slot, sub int) {
	if n.fo != nil {
		n.fo.subGone(slot, sub)
	}
}

// FailoverInfo reports a slot's serving owner and epoch as this node
// believes them, and whether THIS node is currently serving the slot
// (introspection for tests and operators). Without failover the static
// placement is reported with epoch 0.
func (n *Node) FailoverInfo(slot int) (owner int, epoch uint64, servingHere bool) {
	if n.fo == nil {
		return slot, 0, slot == n.id
	}
	f := n.fo
	f.mu.Lock()
	defer f.mu.Unlock()
	owner, epoch = f.owners[slot], f.epochs[slot]
	if owner != n.id {
		return owner, epoch, false
	}
	if slot == n.id {
		return owner, epoch, f.serving
	}
	return owner, epoch, f.takeovers[slot] != nil
}

// WaitReady blocks until the node's boot probation has resolved (it may
// serve its slot, or it learned it was deposed), or the timeout expires.
// A no-op without failover.
func (n *Node) WaitReady(timeout time.Duration) error {
	if n.fo == nil {
		return nil
	}
	deadline := time.Now().Add(timeout)
	f := n.fo
	for {
		f.mu.Lock()
		done := !f.probation
		f.mu.Unlock()
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: node %d still in probation after %v", n.id, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// heartbeatAge reports how long ago a peer was last heard from, in
// milliseconds (-1 when never, or without failover), plus the peer's
// applied lag behind this node's own log per its last heartbeat.
func (n *Node) heartbeatAge(peerIdx int) (ageMs float64, lag int64) {
	if n.fo == nil {
		return -1, -1
	}
	f := n.fo
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.lastSeen[peerIdx].IsZero() {
		return -1, -1
	}
	ageMs = float64(time.Since(f.lastSeen[peerIdx]).Microseconds()) / 1000
	lag = -1
	if f.haveView[peerIdx] {
		v := f.views[peerIdx]
		if n.id < len(v.Applied) {
			own := n.store.Version()
			if l := own - v.Applied[n.id]; l >= 0 {
				lag = l
			}
		}
	}
	return ageMs, lag
}

// failoverVectors copies the epoch/owner vectors for the metrics
// snapshot (nil without failover).
func (n *Node) failoverVectors() (epochs []uint64, owners []int) {
	if n.fo == nil {
		return nil, nil
	}
	n.fo.mu.Lock()
	defer n.fo.mu.Unlock()
	return append([]uint64(nil), n.fo.epochs...), append([]int(nil), n.fo.owners...)
}
