package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"funcdb"
	"funcdb/internal/core"
	"funcdb/internal/query"
	"funcdb/internal/reqtrace"
	"funcdb/internal/wire"
)

// ClusterStmt is a prepared statement against a cluster. The client
// parses the text ONCE locally (for the routing relation and the '?'
// count) and never again; executions ship the statement's text hash plus
// positional arguments as a ForwardPrepared frame to the owner, which
// resolves the hash in its statement cache — no text, no parse, on
// either side of the wire.
//
// Statement identity is negotiated per owner: the first execution against
// an address includes the text so the owner registers it; once an
// execution succeeds there, later frames to that address carry the hash
// alone. An owner that dropped the statement (cache eviction, schema
// invalidation, a restart) answers ErrUnknownStmt and the client
// transparently re-sends with the text. A failover does the same through
// the placement machinery: a fence or a dead connection forgets both the
// relation's placement and the address's statement registration, so the
// retried execution re-prepares at whichever node owns the relation now.
// Safe for concurrent use.
type ClusterStmt struct {
	c    *ClusterClient
	text string
	hash uint64

	mu        sync.Mutex
	parsed    bool
	rel       string
	kind      core.Kind
	nparams   int
	confirmed map[string]bool // addr -> owner is known to hold the statement
}

// Prepare returns a prepared-statement handle for q. Nothing crosses the
// wire yet — the text ships (once per owner) on first execution.
func (c *ClusterClient) Prepare(q string) *ClusterStmt {
	return &ClusterStmt{c: c, text: q, hash: query.HashText(q), confirmed: make(map[string]bool)}
}

// Query returns the statement's source text.
func (s *ClusterStmt) Query() string { return s.text }

// ensure parses the text client-side (once) for the routing relation and
// parameter count.
func (s *ClusterStmt) ensure() (rel string, nparams int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.parsed {
		prep, err := s.c.cache.Get(s.text)
		if err != nil {
			return "", 0, err
		}
		s.rel, s.kind, s.nparams, s.parsed = prep.Rel(), prep.Kind(), prep.NumParams(), true
	}
	return s.rel, s.nparams, nil
}

// NumParams returns the number of '?' placeholders (parsing locally on
// first call).
func (s *ClusterStmt) NumParams() (int, error) {
	_, n, err := s.ensure()
	return n, err
}

func (s *ClusterStmt) isConfirmed(addr string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.confirmed[addr]
}

func (s *ClusterStmt) confirm(addr string) {
	s.mu.Lock()
	s.confirmed[addr] = true
	s.mu.Unlock()
}

// forgetAddr drops the belief that addr holds the statement: the next
// frame there carries the text again.
func (s *ClusterStmt) forgetAddr(addr string) {
	s.mu.Lock()
	delete(s.confirmed, addr)
	s.mu.Unlock()
}

// Exec routes one prepared execution to the owning node and waits for
// the response.
func (s *ClusterStmt) Exec(args ...funcdb.Item) (funcdb.Response, error) {
	if err := validArgs(args); err != nil {
		return funcdb.Response{}, err
	}
	rel, nparams, err := s.ensure()
	if err != nil {
		return funcdb.Response{}, err
	}
	if len(args) != nparams {
		return funcdb.Response{}, fmt.Errorf("client: statement has %d parameters, got %d arguments", nparams, len(args))
	}
	seq := s.c.nextSeqs(1)
	// One-element run; HasText is decided per target address inside the
	// send loop.
	stmts := []wire.PreparedFwdStmt{{Origin: s.c.origin, Seq: seq, Hash: s.hash, Text: s.text, Args: args}}
	addr, _ := s.c.guess(rel)
	t, sentNS := s.c.startTrace()
	a, _, err := s.c.sendPreparedRun(s, rel, addr, wire.FwdNoForward, stmts, t)
	s.c.finishTrace(t, sentNS)
	if err != nil {
		return funcdb.Response{}, err
	}
	if a.isErr {
		return funcdb.Response{}, errors.New(a.errMsg)
	}
	if s.kind == core.KindCreate {
		s.c.cache.InvalidateRel(rel)
	}
	return a.resp, nil
}

// sendPreparedRun is sendRun for a prepared execution: the same failover
// discipline (fence and dead-connection retries against re-resolved
// placement under the retry budget), plus statement re-registration —
// rotating away from an address also forgets that the address held the
// statement, so the retry re-prepares wherever it lands.
func (c *ClusterClient) sendPreparedRun(s *ClusterStmt, rel, addr string, flags byte, stmts []wire.PreparedFwdStmt, t *reqtrace.T) (arrived, string, error) {
	a, served, err := c.sendPreparedOnce(s, rel, addr, flags, stmts, t)
	if c.retry <= 0 {
		return a, served, err
	}
	deadline := time.Now().Add(c.retry)
	for attempt := 1; ; attempt++ {
		fenced := err == nil && fencedReply(a)
		if err == nil && !fenced {
			return a, served, nil
		}
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed || time.Now().After(deadline) {
			return a, served, err
		}
		c.forget(rel)
		s.forgetAddr(addr)
		if served != "" {
			s.forgetAddr(served)
		}
		time.Sleep(failoverRetryPause)
		next := c.addrs[(core.LaneOf(rel, len(c.addrs))+attempt)%len(c.addrs)]
		addr = next
		a, served, err = c.sendPreparedOnce(s, rel, next, flags, stmts, t)
	}
}

// sendPreparedOnce is one delivery attempt: one redial per address, one
// redirect chase, and one re-send-with-text when a hash-only frame is
// refused as an unknown statement (the owner evicted or never had it —
// nothing was admitted, so re-sending is safe).
func (c *ClusterClient) sendPreparedOnce(s *ClusterStmt, rel, addr string, flags byte, stmts []wire.PreparedFwdStmt, t *reqtrace.T) (arrived, string, error) {
	redialed, redirected, reprepared := false, false, false
	for {
		dialNS := time.Now().UnixNano()
		cl, dialed, err := c.conn(addr)
		if err != nil {
			return arrived{}, "", err
		}
		if dialed && t != nil {
			t.SpanNS(reqtrace.StageClientDial, dialNS, time.Now().UnixNano()-dialNS)
		}
		hasText := !s.isConfirmed(addr)
		for i := range stmts {
			stmts[i].HasText = hasText
		}
		id, err := cl.forwardPrepared(flags, stmts, t)
		if err != nil {
			if !redialed {
				c.dropConn(addr, cl)
				redialed = true
				continue
			}
			return arrived{}, "", err
		}
		a, err := cl.recv(id)
		if err != nil {
			return arrived{}, "", err
		}
		if a.isErr && isUnknownStmtMsg(a.errMsg) && !hasText && !reprepared {
			// The owner dropped the statement since we confirmed it:
			// re-send carrying the text so it re-registers.
			s.forgetAddr(addr)
			reprepared = true
			continue
		}
		if a.redirect == "" {
			if !a.isErr {
				c.learn(rel, addr)
				s.confirm(addr)
			}
			return a, addr, nil
		}
		if !c.noteEpoch(rel, a.rdEpoch) {
			return arrived{}, "", fmt.Errorf("client: stale redirect for %q to %s (epoch %d)", rel, a.redirect, a.rdEpoch)
		}
		if redirected {
			return arrived{}, "", fmt.Errorf("client: relation %q still not at %s after one redirect", rel, addr)
		}
		redirected, redialed, reprepared = true, false, false
		addr = a.redirect
	}
}

// forwardPrepared ships pre-tagged prepared executions as one
// FrameForwardPrepared (claiming no epoch, like forward) and returns the
// request id.
func (c *Client) forwardPrepared(flags byte, stmts []wire.PreparedFwdStmt, t *reqtrace.T) (uint64, error) {
	return c.send(wire.FrameForwardPrepared, t, func(dst []byte, id uint64) []byte {
		dst, _ = wire.AppendForwardPrepared(dst, id, flags, 0, stmts) // args pre-validated
		return dst
	})
}
