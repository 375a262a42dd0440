package cluster

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
)

// FaultTransport is a deterministic fault injector for cluster links:
// every connection a node dials goes through it, and a seeded RNG
// decides — reproducibly — which writes are dropped. Network partitions
// sever live connections between the separated groups and refuse new
// dials across the cut, which is exactly what a lease-based failure
// detector sees when a switch dies.
//
// It wraps outbound dials only (heartbeats, forwards, replication
// streams all dial through the node's DialFunc), so the process under
// test still binds real listeners; the injector needs no cooperation
// from the accepting side.
type FaultTransport struct {
	mu        sync.Mutex
	rng       *rand.Rand
	dropProb  float64
	groups    map[string]int    // node name → partition group; empty = healed
	addrNames map[string]string // listen address → node name (via Locate)
	conns     map[*faultConn]struct{}
}

// NewFaultTransport returns an injector whose random decisions replay
// identically for the same seed.
func NewFaultTransport(seed int64) *FaultTransport {
	return &FaultTransport{
		rng:    rand.New(rand.NewSource(seed)),
		groups: make(map[string]int),
		conns:  make(map[*faultConn]struct{}),
	}
}

// Dialer returns the DialFunc for one node. The name identifies which
// side of a partition the node lives on.
func (t *FaultTransport) Dialer(from string) DialFunc {
	return func(addr string) (net.Conn, error) {
		t.mu.Lock()
		if t.severedLocked(from, addr) {
			t.mu.Unlock()
			return nil, fmt.Errorf("fault: %s is partitioned from %s", from, addr)
		}
		t.mu.Unlock()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		fc := &faultConn{Conn: conn, t: t, from: from, to: addr}
		t.mu.Lock()
		t.conns[fc] = struct{}{}
		t.mu.Unlock()
		return fc, nil
	}
}

// Drop sets the probability (0..1) that any single Write is silently
// discarded. Cluster frames are written one frame per Write on the
// paths that matter for failover (heartbeats), so a drop is a lost
// frame, not a torn one; on streamed connections a drop kills the
// connection state and forces a redial, which is also a legitimate
// fault.
func (t *FaultTransport) Drop(p float64) {
	t.mu.Lock()
	t.dropProb = p
	t.mu.Unlock()
}

// Partition splits the nodes into groups: traffic within a group flows,
// traffic between groups is cut — live connections crossing the cut are
// severed immediately and dials across it fail until Heal. Node names
// must match the `from` passed to Dialer; a node in no group can talk
// to everyone.
func (t *FaultTransport) Partition(groups ...[]string) {
	t.mu.Lock()
	t.groups = make(map[string]int)
	for i, g := range groups {
		for _, name := range g {
			t.groups[name] = i
		}
	}
	var sever []*faultConn
	for fc := range t.conns {
		if t.severedLocked(fc.from, fc.to) {
			sever = append(sever, fc)
		}
	}
	t.mu.Unlock()
	for _, fc := range sever {
		fc.Conn.Close()
	}
}

// Heal removes any partition.
func (t *FaultTransport) Heal() {
	t.mu.Lock()
	t.groups = make(map[string]int)
	t.mu.Unlock()
}

// severedLocked reports whether from→toAddr crosses a partition cut.
// Partitions are name-based (dialers know names, dials know addresses);
// tests register the name↔address mapping with Locate. An unregistered
// destination, or a node in no group, is reachable by everyone.
func (t *FaultTransport) severedLocked(from, toAddr string) bool {
	if len(t.groups) == 0 {
		return false
	}
	gf, okf := t.groups[from]
	to, known := t.addrNames[toAddr]
	if !known {
		return false
	}
	gt, okt := t.groups[to]
	return okf && okt && gf != gt
}

// Locate registers a node's listen address under its name so partitions
// can match dials by destination.
func (t *FaultTransport) Locate(name, addr string) {
	t.mu.Lock()
	if t.addrNames == nil {
		t.addrNames = make(map[string]string)
	}
	t.addrNames[addr] = name
	t.mu.Unlock()
}

// faultConn applies the injector's current partition and drop policy to
// writes.
type faultConn struct {
	net.Conn
	t    *FaultTransport
	from string
	to   string
}

func (c *faultConn) Write(b []byte) (int, error) {
	t := c.t
	t.mu.Lock()
	if t.severedLocked(c.from, c.to) {
		t.mu.Unlock()
		c.Conn.Close()
		return 0, fmt.Errorf("fault: connection %s→%s severed by partition", c.from, c.to)
	}
	drop := t.dropProb > 0 && t.rng.Float64() < t.dropProb
	t.mu.Unlock()
	if drop {
		// Pretend the bytes went out; the peer never sees them.
		return len(b), nil
	}
	return c.Conn.Write(b)
}

func (c *faultConn) Close() error {
	t := c.t
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
	return c.Conn.Close()
}
