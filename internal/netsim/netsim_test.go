package netsim

import (
	"sync"
	"testing"
	"time"

	"funcdb/internal/lenient"
	"funcdb/internal/topo"
)

func TestMessageDelivery(t *testing.T) {
	n := NewNetwork(3)
	defer n.Close()
	if err := n.Send(Message{Src: 0, Dst: 2, Kind: "ping", Payload: "hello"}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-n.Inbox(2):
		if m.Payload != "hello" || m.Src != 0 {
			t.Errorf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message not delivered")
	}
}

func TestChooseSelectsOwnTag(t *testing.T) {
	// Figure 3-1: each site's substream is exactly the messages tagged for
	// it, in medium order.
	n := NewNetwork(3)
	n.EnableTap()
	defer n.Close()
	for i := 0; i < 9; i++ {
		if err := n.Send(Message{Src: 0, Dst: SiteID(i % 3), Kind: "m", Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Drain inboxes to ensure routing completed.
	for site := 0; site < 3; site++ {
		for j := 0; j < 3; j++ {
			select {
			case m := <-n.Inbox(SiteID(site)):
				if int(m.Dst) != site {
					t.Errorf("site %d chose a message tagged %d", site, m.Dst)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("site %d starved", site)
			}
		}
	}
	log := n.Tap()
	if len(log) != 9 {
		t.Fatalf("tap recorded %d messages", len(log))
	}
	for site := SiteID(0); site < 3; site++ {
		chosen := Choose(log, site)
		if len(chosen) != 3 {
			t.Errorf("Choose(site %d) = %d messages", site, len(chosen))
		}
		for _, m := range chosen {
			if m.Dst != site {
				t.Errorf("Choose leaked a message for %d to %d", m.Dst, site)
			}
		}
	}
}

func TestHopAccounting(t *testing.T) {
	n := NewNetwork(8, WithTopology(topo.NewHypercube(3)))
	defer n.Close()
	if err := n.Send(Message{Src: 0, Dst: 7, Kind: "x"}); err != nil { // 3 hops
		t.Fatal(err)
	}
	<-n.Inbox(7)
	msgs, hops := n.Stats()
	if msgs != 1 || hops != 3 {
		t.Errorf("stats = %d msgs %d hops, want 1/3", msgs, hops)
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	n := NewNetwork(2)
	defer n.Close()
	if err := n.Send(Message{Src: 0, Dst: 99, Kind: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(Message{Src: 0, Dst: 1, Kind: "x"}); err != nil {
		t.Fatal(err)
	}
	// The second message arrives; the first vanished (no site chooses it).
	select {
	case m := <-n.Inbox(1):
		if m.Dst != 1 {
			t.Errorf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("valid message lost behind invalid one")
	}
	msgs, _ := n.Stats()
	if msgs != 1 {
		t.Errorf("stats counted dropped message: %d", msgs)
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	n := NewNetwork(2)
	n.Close()
	if err := n.Send(Message{Src: 0, Dst: 1}); err == nil {
		t.Error("Send after Close succeeded")
	}
}

func TestBadNetworkConfigPanics(t *testing.T) {
	cases := []func(){
		func() { NewNetwork(0) },
		func() { NewNetwork(9, WithTopology(topo.NewHypercube(2))) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSiteRequestReply(t *testing.T) {
	n := NewNetwork(2)
	defer n.Close()
	server := NewSite(n, 0)
	client := NewSite(n, 1)
	server.Register("double", func(_ *Site, m Message) any {
		return m.Payload.(int) * 2
	})
	go server.Run()
	go client.Run()
	defer server.Stop()
	defer client.Stop()

	got := client.Call(0, "double", 21).Force()
	if got != 42 {
		t.Errorf("Call = %v", got)
	}
}

func TestMySitePragma(t *testing.T) {
	n := NewNetwork(2)
	defer n.Close()
	s := NewSite(n, 1)
	if s.MySite() != 1 {
		t.Errorf("MySite = %d", s.MySite())
	}
	if s.Network() != n {
		t.Error("Network accessor broken")
	}
}

func TestResultOnRemote(t *testing.T) {
	// RESULT-ON evaluates the expression at the named site.
	n := NewNetwork(3)
	defer n.Close()
	var evalSite SiteID = -1
	var mu sync.Mutex
	worker := NewSite(n, 2)
	worker.RegisterFunc("where", func(arg any) any {
		mu.Lock()
		evalSite = worker.MySite()
		mu.Unlock()
		return int(worker.MySite())*100 + arg.(int)
	})
	caller := NewSite(n, 0)
	go worker.Run()
	go caller.Run()
	defer worker.Stop()
	defer caller.Stop()

	got := caller.ResultOn(2, "where", 7).Force()
	if got != 207 {
		t.Errorf("ResultOn = %v", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if evalSite != 2 {
		t.Errorf("function evaluated at site %d, want 2", evalSite)
	}
}

func TestResultOnLocal(t *testing.T) {
	n := NewNetwork(1)
	defer n.Close()
	s := NewSite(n, 0)
	s.RegisterFunc("inc", func(arg any) any { return arg.(int) + 1 })
	// Local ResultOn needs no running loop: it evaluates in place.
	got := s.ResultOn(0, "inc", 5).Force()
	if got != 6 {
		t.Errorf("local ResultOn = %v", got)
	}
	v := s.ResultOn(0, "missing", 1).Force()
	if _, isErr := v.(error); !isErr {
		t.Errorf("missing function returned %v", v)
	}
}

func TestResultOnIsAFuture(t *testing.T) {
	// The caller can keep computing while the remote evaluation runs.
	n := NewNetwork(2)
	defer n.Close()
	release := make(chan struct{})
	worker := NewSite(n, 1)
	worker.RegisterFunc("slow", func(arg any) any {
		<-release
		return "done"
	})
	caller := NewSite(n, 0)
	go worker.Run()
	go caller.Run()
	defer worker.Stop()
	defer caller.Stop()

	fut := caller.ResultOn(1, "slow", nil)
	// Not forced yet: we get here without blocking.
	close(release)
	if got := fut.Force(); got != "done" {
		t.Errorf("ResultOn = %v", got)
	}
}

func TestUnknownKindDropped(t *testing.T) {
	n := NewNetwork(2)
	defer n.Close()
	s := NewSite(n, 0)
	s.Register("ping", func(*Site, Message) any { return "pong" })
	go s.Run()
	defer s.Stop()
	if err := n.Send(Message{Src: 1, Dst: 0, Kind: "nobody-handles-this", Corr: 1}); err != nil {
		t.Fatal(err)
	}
	// A handled request proves the loop survived the dropped message.
	s2 := NewSite(n, 1)
	go s2.Run()
	defer s2.Stop()
	if got := s2.Call(0, "ping", nil).Force(); got != "pong" {
		t.Errorf("Call after dropped message = %v", got)
	}
}

func TestConcurrentCallers(t *testing.T) {
	n := NewNetwork(4)
	defer n.Close()
	server := NewSite(n, 0)
	server.RegisterFunc("id", func(arg any) any { return arg })
	go server.Run()
	defer server.Stop()

	var wg sync.WaitGroup
	for c := 1; c < 4; c++ {
		cl := NewSite(n, SiteID(c))
		go cl.Run()
		defer cl.Stop()
		for i := 0; i < 20; i++ {
			wg.Add(1)
			go func(cl *Site, i int) {
				defer wg.Done()
				if got := cl.ResultOn(0, "id", i).Force(); got != i {
					t.Errorf("id(%d) = %v", i, got)
				}
			}(cl, i)
		}
	}
	wg.Wait()
}

// TestInlineRepliesUnderFlood: a site flooded with calls whose handler
// replies inline must keep draining its inbox. The router blocks on a full
// inbox, so a site loop that blocked on the full medium in turn would close
// a cycle nobody breaks; here the callers' site is the flooded site, so the
// replies compete with the requests for the same inbox.
func TestInlineRepliesUnderFlood(t *testing.T) {
	n := NewNetwork(2)
	defer n.Close()
	s := NewSite(n, 0)
	s.RegisterFunc("id", func(arg any) any { return arg })
	go s.Run()
	defer s.Stop()

	const calls = 1000
	done := make(chan struct{})
	go func() {
		defer close(done)
		replies := make([]*lenient.Cell[any], calls)
		for i := range replies {
			replies[i] = s.Call(0, "eval:id", i)
		}
		for i, r := range replies {
			if got := r.Force(); got != i {
				t.Errorf("id(%d) = %v", i, got)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("site loop and router deadlocked on each other's full queues")
	}
}
