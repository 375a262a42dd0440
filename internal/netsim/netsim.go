// Package netsim simulates the paper's distributed substrate (Section 3):
// a local network whose medium is one large merge of tagged messages, with
// per-site choose functions selecting each site's substream.
//
// "An important observation is that the network medium acts as one large
// merge pseudo-function. The stream of messages which appear on it over
// time will not be deterministic, but will consist of an interleaving of
// messages generated at different nodes. ... A site effectively selects the
// messages directed to it by applying a choose function to the entire
// message stream, which selects those messages having a tag which coincides
// with the site tag." (Section 3.1, Figure 3-1.)
//
// Sites also implement the paper's site pragmas (Section 3.2): MY-SITE
// returns the local site, and RESULT-ON evaluates a registered function at
// a named site, returning its value as a lenient future — "yields the value
// of the first argument, but requires the outermost function to be computed
// on the specified site."
package netsim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"funcdb/internal/lenient"
	"funcdb/internal/topo"
)

// SiteID names a site (PE) in the network.
type SiteID int

// Message is one tagged unit on the medium. Dst is the tag choose matches
// on; Corr correlates replies with requests.
type Message struct {
	Src     SiteID
	Dst     SiteID
	Kind    string
	Corr    int64
	Payload any
}

// Stats aggregates medium-level counters.
type Stats struct {
	// Messages is the number of messages that crossed the medium.
	Messages atomic.Int64
	// Hops is the total hop count of all routed messages (0 hops for
	// self-sends).
	Hops atomic.Int64
}

// Network is the in-memory medium connecting a fixed set of sites.
type Network struct {
	topo    topo.Topology
	medium  chan Message
	inboxes []chan Message
	stats   Stats

	tapMu sync.Mutex
	tap   []Message // optional medium log for figures/tests

	closeOnce sync.Once
	done      chan struct{}
	routed    sync.WaitGroup
}

// Option configures a Network.
type Option func(*Network)

// WithTopology makes the network charge hop counts according to a PE
// topology (sites are PEs). Without it, all distinct sites are one hop
// apart.
func WithTopology(t topo.Topology) Option {
	return func(n *Network) { n.topo = t }
}

// NewNetwork creates a network of nSites sites. The medium is a single
// channel — the "one large merge": arrival order is the serialization.
func NewNetwork(nSites int, opts ...Option) *Network {
	if nSites <= 0 {
		panic("netsim: network needs at least one site")
	}
	n := &Network{
		medium:  make(chan Message, nSites*4),
		inboxes: make([]chan Message, nSites),
		done:    make(chan struct{}),
	}
	for _, opt := range opts {
		opt(n)
	}
	if n.topo == nil {
		n.topo = topo.NewComplete(nSites)
	}
	if n.topo.Size() < nSites {
		panic(fmt.Sprintf("netsim: topology %s too small for %d sites", n.topo.Name(), nSites))
	}
	for i := range n.inboxes {
		n.inboxes[i] = make(chan Message, 64)
	}
	n.routed.Add(1)
	go n.route()
	return n
}

// route drains the medium, applying the choose function: each message is
// delivered to the inbox whose site tag matches its destination.
func (n *Network) route() {
	defer n.routed.Done()
	for {
		select {
		case m := <-n.medium:
			n.deliver(m)
		case <-n.done:
			// Drain anything already on the medium, then stop.
			for {
				select {
				case m := <-n.medium:
					n.deliver(m)
				default:
					return
				}
			}
		}
	}
}

func (n *Network) deliver(m Message) {
	if int(m.Dst) < 0 || int(m.Dst) >= len(n.inboxes) {
		return // dropped: no such tag, nothing chooses it
	}
	n.stats.Messages.Add(1)
	n.stats.Hops.Add(int64(n.topo.Hops(int(m.Src), int(m.Dst))))
	n.tapMu.Lock()
	if n.tap != nil {
		n.tap = append(n.tap, m)
	}
	n.tapMu.Unlock()
	select {
	case n.inboxes[m.Dst] <- m:
	case <-n.done:
	}
}

// Size returns the number of sites.
func (n *Network) Size() int { return len(n.inboxes) }

// Hops returns the hop distance between two sites under the network's
// topology.
func (n *Network) Hops(a, b SiteID) int { return n.topo.Hops(int(a), int(b)) }

// Stats returns the medium counters.
func (n *Network) Stats() (messages, hops int64) {
	return n.stats.Messages.Load(), n.stats.Hops.Load()
}

// EnableTap starts recording every delivered message (for tests and the
// Figure 3-1 demo).
func (n *Network) EnableTap() {
	n.tapMu.Lock()
	defer n.tapMu.Unlock()
	if n.tap == nil {
		n.tap = []Message{}
	}
}

// Tap returns a copy of the recorded medium log.
func (n *Network) Tap() []Message {
	n.tapMu.Lock()
	defer n.tapMu.Unlock()
	out := make([]Message, len(n.tap))
	copy(out, n.tap)
	return out
}

// Send puts a message on the medium. It fails once the network is closed.
func (n *Network) Send(m Message) error {
	select {
	case <-n.done:
		return errors.New("netsim: network closed")
	default:
	}
	select {
	case n.medium <- m:
		return nil
	case <-n.done:
		return errors.New("netsim: network closed")
	}
}

// sendOffLoop is Send for a site's inbox loop, which must never block on
// the medium: the router may at that moment be blocked pushing into this
// very site's full inbox, and only the loop drains that inbox. A message
// that does not fit right now is handed to a goroutine that waits instead.
//
// What this gives up: replies from one site are no longer FIFO (a waiting
// goroutine can lose the race to a later direct send; callers match
// replies by Corr, so nothing depends on the order), and the number of
// waiting goroutines is bounded only by the number of requests in flight.
// It covers dispatch's reply only: a handler that calls Site.Call or
// Network.Send inline still blocks its loop on the medium and can rebuild
// the cycle, so such a handler must send off-loop itself.
// TestInlineRepliesUnderFlood holds the cycle shut for dispatch's reply.
func (n *Network) sendOffLoop(m Message) {
	select {
	case <-n.done:
	case n.medium <- m:
	default:
		go func() { _ = n.Send(m) }()
	}
}

// Inbox returns the chosen substream for a site.
func (n *Network) Inbox(s SiteID) <-chan Message {
	return n.inboxes[s]
}

// Close shuts the medium down. Pending messages are dropped after a final
// drain; sites block forever on their inboxes unless they also select on
// their own shutdown signals, so call Site.Stop first.
func (n *Network) Close() {
	n.closeOnce.Do(func() { close(n.done) })
	n.routed.Wait()
}

// Choose filters a recorded message stream by site tag — the literal
// functional form of the paper's choose, used on medium logs.
func Choose(messages []Message, site SiteID) []Message {
	var out []Message
	for _, m := range messages {
		if m.Dst == site {
			out = append(out, m)
		}
	}
	return out
}

// HandlerFunc processes one request message at a site and returns the reply
// payload (nil for one-way messages).
type HandlerFunc func(s *Site, m Message) any

// Site is one network participant: an inbox loop, a handler table, and the
// request/reply plumbing behind RESULT-ON.
type Site struct {
	id  SiteID
	net *Network

	handlers map[string]HandlerFunc

	mu      sync.Mutex
	nextID  int64
	pending map[int64]func(any)

	stopOnce sync.Once
	stopped  chan struct{}
	loopDone chan struct{}
}

// NewSite attaches a site runtime to network slot id. Register handlers
// before calling Run.
func NewSite(n *Network, id SiteID) *Site {
	return &Site{
		id:       id,
		net:      n,
		handlers: map[string]HandlerFunc{},
		pending:  map[int64]func(any){},
		stopped:  make(chan struct{}),
		loopDone: make(chan struct{}),
	}
}

// MySite is the paper's MY-SITE:[] pragma.
func (s *Site) MySite() SiteID { return s.id }

// Network returns the site's network.
func (s *Site) Network() *Network { return s.net }

// Register installs the handler for a message kind. It must be called
// before Run.
func (s *Site) Register(kind string, h HandlerFunc) {
	s.handlers[kind] = h
}

// Run processes the site's chosen substream until Stop. It is typically
// run in its own goroutine.
func (s *Site) Run() {
	defer close(s.loopDone)
	inbox := s.net.Inbox(s.id)
	for {
		select {
		case <-s.stopped:
			return
		case m := <-inbox:
			s.dispatch(m)
		}
	}
}

func (s *Site) dispatch(m Message) {
	if m.Kind == "reply" {
		s.mu.Lock()
		resolve := s.pending[m.Corr]
		delete(s.pending, m.Corr)
		s.mu.Unlock()
		if resolve != nil {
			resolve(m.Payload)
		}
		return
	}
	h, ok := s.handlers[m.Kind]
	if !ok {
		return // unknown kind: dropped, like an unchosen tag
	}
	result := h(s, m)
	if result != nil && m.Corr != 0 {
		s.net.sendOffLoop(Message{
			Src: s.id, Dst: m.Src, Kind: "reply", Corr: m.Corr, Payload: result,
		})
	}
}

// Stop terminates the site loop.
func (s *Site) Stop() {
	s.stopOnce.Do(func() { close(s.stopped) })
	<-s.loopDone
}

// Call sends a request to another site and returns a future for the reply
// payload. It is the plumbing beneath ResultOn.
func (s *Site) Call(dst SiteID, kind string, payload any) *lenient.Cell[any] {
	s.mu.Lock()
	s.nextID++
	corr := s.nextID
	ch := make(chan any, 1)
	s.pending[corr] = func(v any) { ch <- v }
	s.mu.Unlock()

	if err := s.net.Send(Message{Src: s.id, Dst: dst, Kind: kind, Corr: corr, Payload: payload}); err != nil {
		s.mu.Lock()
		delete(s.pending, corr)
		s.mu.Unlock()
		return lenient.Ready[any](err)
	}
	return lenient.Lazy(func() any { return <-ch })
}

// ResultOn is the paper's RESULT-ON:[functional-expression, site] pragma:
// evaluate the function registered under name at the target site, with the
// given argument, and return the value as a lenient future. When the target
// is the local site the call degenerates to local evaluation, preserving
// the pragma's transparency.
func (s *Site) ResultOn(target SiteID, name string, arg any) *lenient.Cell[any] {
	if target == s.id {
		h, ok := s.handlers["eval:"+name]
		if !ok {
			return lenient.Ready[any](fmt.Errorf("netsim: function %q not registered at site %d", name, s.id))
		}
		arg := arg
		return lenient.Spawn(func() any {
			return h(s, Message{Src: s.id, Dst: s.id, Kind: "eval:" + name, Payload: arg})
		})
	}
	return s.Call(target, "eval:"+name, arg)
}

// RegisterFunc exposes a named function to remote ResultOn calls.
func (s *Site) RegisterFunc(name string, f func(arg any) any) {
	s.Register("eval:"+name, func(_ *Site, m Message) any { return f(m.Payload) })
}
