//go:build unix

package wire

import (
	"net"
	"testing"
	"time"

	"funcdb/internal/reqtrace"
)

// TestConnCheckFindsAClosedLink: Check passes an open idle link and finds
// one whose peer has closed it, before a request is sent into it.
func TestConnCheckFindsAClosedLink(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		srv, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		serveHandshake(t, srv, srv)
		accepted <- srv
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := NewConn(nc, Hello{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	if err := c.Check(); err != nil {
		t.Fatalf("Check on an open idle link: %v", err)
	}
	srv.Close()
	for deadline := time.Now().Add(5 * time.Second); c.Check() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Check never found the peer's close")
		}
	}
	if _, err := c.Request(0, 0, []Stmt{{Text: "find 1 in R"}}, reqtrace.Ctx{}); err == nil {
		t.Fatal("a request was sent into a link Check found closed")
	}
}
