// The gateway's peer link: one wire.Conn per owner, shared by every
// connection the gateway serves, read by whichever caller forces a
// forwarded future, and following the same prepared-statement text rule
// as any client connection. Runs under -race in CI.
package cluster_test

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/cluster"
	"funcdb/internal/query"
	"funcdb/internal/value"
	"funcdb/internal/wire"
)

// linkTap is a gateway's dialer: it dials like net.Dial and keeps every
// connection it opened, so a test can read what the gateway wrote on a
// link, and stall it.
type linkTap struct {
	mu    sync.Mutex
	conns []*tapConn
}

func (lt *linkTap) dial(addr string) (net.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &tapConn{Conn: nc, addr: addr}
	lt.mu.Lock()
	lt.conns = append(lt.conns, c)
	lt.mu.Unlock()
	return c, nil
}

// forwardLink returns the link origin opened to addr for forwarding: the
// connection whose Hello carries the node's bare origin (replication
// streams say origin+"-repl").
func (lt *linkTap) forwardLink(t *testing.T, addr, origin string) *tapConn {
	t.Helper()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	var found *tapConn
	for _, c := range lt.conns {
		if c.addr != addr {
			continue
		}
		typ, payload, err := wire.NewReader(bytes.NewReader(c.written())).Next()
		if err != nil || typ != wire.FrameHello {
			continue
		}
		if h, err := wire.DecodeHello(payload); err == nil && h.Origin == origin {
			if found != nil {
				t.Fatalf("%s dialed %s to forward more than once", origin, addr)
			}
			found = c
		}
	}
	if found == nil {
		t.Fatalf("%s never dialed %s to forward", origin, addr)
	}
	return found
}

// tapConn records every byte written and, once stalled, swallows writes:
// the peer never sees them, so it never answers.
type tapConn struct {
	net.Conn
	addr string

	mu      sync.Mutex
	sent    bytes.Buffer
	stalled bool
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	stalled := c.stalled
	c.mu.Unlock()
	n, err := len(p), error(nil)
	if !stalled {
		n, err = c.Conn.Write(p)
	}
	c.mu.Lock()
	c.sent.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) stall() {
	c.mu.Lock()
	c.stalled = true
	c.mu.Unlock()
}

func (c *tapConn) written() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.sent.Bytes()...)
}

// requests decodes every Request frame written on the link so far.
func (c *tapConn) requests(t *testing.T) []wire.Request {
	t.Helper()
	var out []wire.Request
	rd := wire.NewReader(bytes.NewReader(c.written()))
	for {
		typ, payload, err := rd.Next()
		if err != nil {
			return out
		}
		if typ != wire.FrameRequest {
			continue
		}
		var req wire.Request
		if err := wire.DecodeRequestInto(payload, &req); err != nil {
			t.Fatalf("forwarded request %d: %v", len(out), err)
		}
		out = append(out, req)
	}
}

// startTappedCluster is a 3-node static cluster whose node 1 — the
// gateway these tests dial — opens its outbound connections through tap.
func startTappedCluster(t *testing.T, tap *linkTap) *testCluster {
	t.Helper()
	tc, _ := startGatewayCluster(t, tap.dial, nil)
	return tc
}

// startGatewayCluster is a 3-node static cluster whose node 1 dials
// through dial (nil: the default) and whose node 0 accepts through
// listen(ln) (nil: ln itself). It returns the nodes' configurations, for
// a test that restarts one.
func startGatewayCluster(t *testing.T, dial cluster.DialFunc, listen func(net.Listener) net.Listener) (*testCluster, []funcdb.ClusterNodeConfig) {
	t.Helper()
	cfgs := make([]funcdb.ClusterNodeConfig, 3)
	addrs := make([]string, 3)
	for i := range cfgs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i].Listener, addrs[i] = ln, ln.Addr().String()
	}
	if listen != nil {
		cfgs[0].Listener = listen(cfgs[0].Listener)
	}
	tc := &testCluster{addrs: addrs, nodes: make([]*funcdb.ClusterNode, 3)}
	t.Cleanup(tc.shutdown)
	for i := range cfgs {
		cfg := &cfgs[i]
		cfg.ID, cfg.Nodes, cfg.Dir = i, addrs, t.TempDir()
		cfg.Relations = clusterRels
		if i == 1 {
			cfg.Dialer = dial
		}
		node, err := funcdb.OpenClusterNode(*cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes[i] = node
		go node.Serve()
	}
	return tc, cfgs
}

// forcer is a pipelined execution, text or prepared.
type forcer interface {
	Force() (funcdb.Response, error)
}

// TestGatewayLinkSharedByConnections: sixteen connections to one gateway
// pipeline text and prepared executions for relations owned by the two
// other nodes, and force them last to first. Every reply travels the
// gateway's one link per owner, read by whichever connection forces
// first; each response must still equal the in-process reference, and
// neither link may have been dialed twice. Then the owner of one link is
// killed with forwards in flight on it: every one of their futures must
// resolve with an error, and none may hang.
func TestGatewayLinkSharedByConnections(t *testing.T) {
	tap := &linkTap{}
	tc := startTappedCluster(t, tap)
	rel0, rel2 := relOwnedBy(t, tc, 0), relOwnedBy(t, tc, 2)

	const conns, rounds = 16, 8
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			origin := fmt.Sprintf("g%02d", g)
			c, err := client.Dial(tc.addrs[1], client.WithOrigin(origin))
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			insert2 := c.Prepare("insert (?, ?) into " + rel2)
			find0 := c.Prepare("find ? in " + rel0)
			var texts []string
			var pending []forcer
			add := func(text string, p forcer, err error) {
				if err != nil {
					t.Errorf("%s: %q: %v", origin, text, err)
				}
				texts, pending = append(texts, text), append(pending, p)
			}
			for j := 0; j < rounds; j++ {
				k := int64(g*100 + j) // each connection writes its own keys
				text := fmt.Sprintf(`insert (%d, "t%d") into %s`, k, k, rel0)
				p, err := c.ExecAsync(text)
				add(text, p, err)
				sp, err := insert2.ExecAsync(value.Int(k), value.Str(fmt.Sprintf("p%d", k)))
				add(fmt.Sprintf(`insert (%d, "p%d") into %s`, k, k, rel2), sp, err)
				text = fmt.Sprintf("find %d in %s", k, rel2)
				p, err = c.ExecAsync(text)
				add(text, p, err)
				sp, err = find0.ExecAsync(value.Int(k))
				add(fmt.Sprintf("find %d in %s", k, rel0), sp, err)
			}
			got := make([]string, len(pending))
			for i := len(pending) - 1; i >= 0; i-- {
				resp, err := pending[i].Force()
				if err != nil {
					t.Errorf("%s: %q: %v", origin, texts[i], err)
					return
				}
				got[i] = resp.String()
			}
			ref := funcdb.MustOpen(funcdb.WithRelations(clusterRels...), funcdb.WithOrigin(origin))
			defer ref.Close()
			for i, text := range texts {
				want, err := ref.Exec(text)
				if err != nil {
					t.Errorf("reference %q: %v", text, err)
					return
				}
				if want.String() != got[i] {
					t.Errorf("%s: %q through the gateway:\n  got  %s\n  want %s", origin, text, got[i], want.String())
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, p := range tc.nodes[1].MetricsSnapshot().Peers {
		if p.Dials != 1 || p.ForwardFrames == 0 {
			t.Errorf("gateway link to node %d: %d dials, %d frames; want 1 dial and some frames", p.Peer, p.Dials, p.ForwardFrames)
		}
	}

	// Stall the link to node 0, so the forwards below are sent and never
	// answered, then kill node 0 under them.
	link := tap.forwardLink(t, tc.addrs[0], "node1")
	link.stall()
	before := len(link.requests(t))
	const inflight = 4 // statements per connection, in one batch: one frame
	results := make(chan funcdb.Response, conns*inflight)
	for g := 0; g < conns; g++ {
		c, err := client.Dial(tc.addrs[1], client.WithOrigin(fmt.Sprintf("k%02d", g)))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		batch := make([]string, inflight)
		for j := range batch {
			batch[j] = fmt.Sprintf("find %d in %s", j, rel0)
		}
		go func() {
			resps, err := c.ExecBatch(batch)
			if err != nil {
				resps = make([]funcdb.Response, inflight)
				for j := range resps {
					resps[j].Err = err
				}
			}
			for _, resp := range resps {
				results <- resp
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for sent := 0; sent < conns*inflight; {
		sent = 0
		for _, req := range link.requests(t)[before:] {
			sent += len(req.Stmts)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d statements forwarded", sent, conns*inflight)
		}
		time.Sleep(time.Millisecond)
	}
	tc.nodes[0].Kill()
	timeout := time.After(10 * time.Second)
	for i := 0; i < conns*inflight; i++ {
		select {
		case resp := <-results:
			if resp.Err == nil {
				t.Errorf("a forward in flight when its owner died was answered: %s", resp)
			}
		case <-timeout:
			t.Fatalf("%d of %d futures on the dead link still unresolved", conns*inflight-i, conns*inflight)
		}
	}
}

// TestGatewayForwardsHashOnlyAfterFirstContact: a gateway forwards a
// prepared statement under the same text rule as any client connection.
// The first forward carries the text and later ones the hash alone; once
// the owner has evicted the statement, the next forward is refused once,
// re-sent with the text, and the caller sees a normal response.
func TestGatewayForwardsHashOnlyAfterFirstContact(t *testing.T) {
	tap := &linkTap{}
	tc := startTappedCluster(t, tap)
	rel0 := relOwnedBy(t, tc, 0)
	c, err := client.Dial(tc.addrs[1], client.WithOrigin("c0"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	text := fmt.Sprintf("insert (?, ?) into %s", rel0)
	insert := c.Prepare(text)
	exec := func(k int64) {
		t.Helper()
		resp, err := insert.Exec(value.Int(k), value.Str("v"))
		if err != nil || resp.Err != nil {
			t.Fatalf("insert %d: %v / %v", k, err, resp.Err)
		}
	}
	for k := int64(0); k < 3; k++ {
		exec(k)
	}

	// Evict the statement from the owner's cache with fillers sent to the
	// owner directly: the gateway's link still believes it is held.
	owner, err := client.Dial(tc.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	for i := 0; i < query.DefaultStmtCacheSize; i++ {
		if _, err := owner.Prepare(fmt.Sprintf("find %d in %s", i, rel0)).Exec(); err != nil {
			t.Fatalf("filler %d: %v", i, err)
		}
	}
	unknown := tc.nodes[0].MetricsSnapshot().Server.UnknownStmts
	exec(3)
	if got := tc.nodes[0].MetricsSnapshot().Server.UnknownStmts; got != unknown+1 {
		t.Fatalf("owner refused %d forwards after the eviction, want 1", got-unknown)
	}

	hash := query.HashText(text)
	var withText []bool
	for _, req := range tap.forwardLink(t, tc.addrs[0], "node1").requests(t) {
		for _, st := range req.Stmts {
			if st.Hash != hash {
				t.Fatalf("forward of an unexpected statement %+v", st)
			}
			withText = append(withText, st.HasText)
		}
	}
	// Three executions before the eviction, the refused one, its re-send.
	if got, want := fmt.Sprint(withText), fmt.Sprint([]bool{true, false, false, false, true}); got != want {
		t.Fatalf("forwards carried text %s, want %s", got, want)
	}
}

// smallBuffers caps a TCP connection's socket buffers, so a few hundred
// kilobytes nobody reads fill a link.
func smallBuffers(nc net.Conn) net.Conn {
	if tcp, ok := nc.(*net.TCPConn); ok {
		tcp.SetReadBuffer(64 << 10)
		tcp.SetWriteBuffer(64 << 10)
	}
	return nc
}

// smallBufListener accepts connections with small socket buffers.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return smallBuffers(nc), nil
}

// TestGatewayDrainsAReplyWhileForwarding: one batch through the gateway
// forwards a scan whose reply is larger than the link's socket buffers,
// then — after a statement for another owner splits the run — a large
// insert to the same owner. The owner answers the scan before it reads
// the insert, and blocks writing a reply nobody awaits yet; the gateway's
// send of the insert must drain that reply rather than block against it,
// or both ends wait forever.
func TestGatewayDrainsAReplyWhileForwarding(t *testing.T) {
	dial := func(addr string) (net.Conn, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return smallBuffers(nc), nil
	}
	tc, _ := startGatewayCluster(t, dial, func(ln net.Listener) net.Listener { return smallBufListener{ln} })
	rel0, rel2 := relOwnedBy(t, tc, 0), relOwnedBy(t, tc, 2)
	owner, err := client.Dial(tc.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	const rows = 8 // 256 KiB each: a 2 MiB scan reply
	for k := 0; k < rows; k++ {
		q := fmt.Sprintf(`insert (%d, "%s") into %s`, k, strings.Repeat("x", 256<<10), rel0)
		if resp, err := owner.Exec(q); err != nil || resp.Err != nil {
			t.Fatalf("insert %d: %v / %v", k, err, resp.Err)
		}
	}
	gw, err := client.Dial(tc.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	batch := []string{
		"scan " + rel0,
		fmt.Sprintf(`insert (1, "b") into %s`, rel2),
		fmt.Sprintf(`insert (%d, "%s") into %s`, rows, strings.Repeat("y", 2<<20), rel0),
	}
	type result struct {
		resps []funcdb.Response
		err   error
	}
	done := make(chan result, 1)
	go func() {
		resps, err := gw.ExecBatch(batch)
		done <- result{resps, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if n := len(r.resps[0].Tuples); n != rows {
			t.Errorf("scan through the gateway: %d tuples, want %d", n, rows)
		}
		for i, resp := range r.resps {
			if resp.Err != nil {
				t.Errorf("statement %d: %v", i, resp.Err)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("batch unanswered: the gateway blocked sending to an owner blocked replying to it")
	}
}

// TestGatewayRedialsAfterOwnerRestart: the gateway's link to an owner
// goes idle and the owner restarts. The next forward must go out on a
// fresh link instead of failing on the dead one.
func TestGatewayRedialsAfterOwnerRestart(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no socket peek: a dead idle link is found by its next forward")
	}
	tc, cfgs := startGatewayCluster(t, nil, nil)
	rel0 := relOwnedBy(t, tc, 0)
	c, err := client.Dial(tc.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exec := func(q string) funcdb.Response {
		t.Helper()
		resp, err := c.Exec(q)
		if err != nil || resp.Err != nil {
			t.Fatalf("%q through the gateway: %v / %v", q, err, resp.Err)
		}
		return resp
	}
	exec(fmt.Sprintf(`insert (1, "a") into %s`, rel0))

	if err := tc.nodes[0].Shutdown(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", tc.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	cfgs[0].Listener = ln
	node, err := funcdb.OpenClusterNode(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	tc.nodes[0] = node
	go node.Serve()
	if err := node.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	if resp := exec(fmt.Sprintf("find 1 in %s", rel0)); !resp.Found {
		t.Fatal("the insert made before the restart is gone")
	}
	for _, p := range tc.nodes[1].MetricsSnapshot().Peers {
		if p.Peer == 0 && p.Dials != 2 {
			t.Errorf("gateway link to the restarted owner: %d dials, want 2", p.Dials)
		}
	}
}
