package client

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"funcdb"
	"funcdb/internal/reqtrace"
	"funcdb/internal/session"
	"funcdb/internal/wire"
)

// IsUnknownStmt reports whether an error (or wire error text) is the
// server refusing a stale statement id: the plan was evicted,
// invalidated by a schema change, or belongs to a previous server
// incarnation. The check is textual because server errors cross the wire
// as text (like the cluster's "cluster: fenced" sentinel); Stmt handles
// it transparently by re-preparing, so callers rarely see it.
func IsUnknownStmt(err error) bool {
	return err != nil && isUnknownStmtMsg(err.Error())
}

func isUnknownStmtMsg(msg string) bool {
	return strings.Contains(msg, "unknown prepared statement")
}

// Stmt is a prepared statement over the wire: the query text crosses
// once (FramePrepare, sent lazily on first use), the server plans it into
// its statement cache and answers with a dense id, and every execution
// ships id + positional args only — no text, no server-side parse.
//
// A Stmt survives the statement's eviction from the server cache: an
// execution answered with ErrUnknownStmt re-prepares and re-sends
// transparently (safe — a refused statement was never admitted). Safe
// for concurrent use.
type Stmt struct {
	c    *Client
	text string

	mu       sync.Mutex
	prepared bool
	id       uint64
	nparams  int
}

// Prepare returns a prepared-statement handle for q. No wire traffic
// happens yet: the statement auto-prepares on first use (or on an
// explicit NumParams call), so building handles is free.
func (c *Client) Prepare(q string) *Stmt {
	return &Stmt{c: c, text: q}
}

// Query returns the statement's source text.
func (s *Stmt) Query() string { return s.text }

// NumParams returns the number of '?' placeholders, preparing the
// statement on first call.
func (s *Stmt) NumParams() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.ensureLocked(); err != nil {
		return 0, err
	}
	return s.nparams, nil
}

// ensure returns the statement's current server-side id, preparing it
// over the wire if this handle has none.
func (s *Stmt) ensure() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ensureLocked()
}

func (s *Stmt) ensureLocked() (uint64, error) {
	if s.prepared {
		return s.id, nil
	}
	rid, err := s.c.send(wire.FramePrepare, nil, func(dst []byte, id uint64) []byte {
		return wire.AppendPrepare(dst, id, s.text)
	})
	if err != nil {
		return 0, err
	}
	a, err := s.c.recv(rid)
	if err != nil {
		return 0, err
	}
	if a.isErr {
		return 0, errors.New(a.errMsg)
	}
	if !a.prepared {
		return 0, fmt.Errorf("client: request %d is not a prepare", rid)
	}
	s.id, s.nparams, s.prepared = a.stmtID, a.nparams, true
	return s.id, nil
}

// forget drops the handle's server-side id if it still is stale: the next
// execution re-prepares. Racing executions that already re-prepared are
// left alone.
func (s *Stmt) forget(stale uint64) {
	s.mu.Lock()
	if s.prepared && s.id == stale {
		s.prepared = false
	}
	s.mu.Unlock()
}

// validArgs rejects zero items before encoding: an invalid item must be
// the caller's error, never a torn frame.
func validArgs(args []funcdb.Item) error {
	for i, a := range args {
		if !a.IsValid() {
			return fmt.Errorf("client: bind parameter %d is the zero item", i+1)
		}
	}
	return nil
}

// StmtPending is one in-flight prepared execution. Unlike the plain
// Pending it retains the arguments, so Force can transparently re-prepare
// and re-send after an ErrUnknownStmt refusal.
type StmtPending struct {
	s      *Stmt
	id     uint64 // request id awaiting a reply
	stmtID uint64 // statement id the request was sent under
	args   []funcdb.Item
	t      *reqtrace.T // client-side trace (nil untraced)
	sentNS int64
}

// ExecAsync ships one prepared execution without waiting, auto-preparing
// on first use.
func (s *Stmt) ExecAsync(args ...funcdb.Item) (*StmtPending, error) {
	if err := validArgs(args); err != nil {
		return nil, err
	}
	stmtID, err := s.ensure()
	if err != nil {
		return nil, err
	}
	t, sentNS := s.c.startTrace()
	rid, err := s.sendExec(stmtID, args, t)
	if err != nil {
		return nil, err
	}
	return &StmtPending{s: s, id: rid, stmtID: stmtID, args: args, t: t, sentNS: sentNS}, nil
}

func (s *Stmt) sendExec(stmtID uint64, args []funcdb.Item, t *reqtrace.T) (uint64, error) {
	return s.c.request(0, []wire.Stmt{{Stmt: stmtID, Args: args}}, t)
}

// Force blocks until the response arrives. A stale-statement refusal is
// retried once after re-preparing — safe, because a refused statement was
// never admitted.
func (p *StmtPending) Force() (funcdb.Response, error) {
	a, err := p.s.c.recv(p.id)
	p.s.c.finishTrace(p.t, p.sentNS)
	if err != nil {
		return funcdb.Response{}, err
	}
	if a.isErr && isUnknownStmtMsg(a.errMsg) {
		p.s.forget(p.stmtID)
		stmtID, err := p.s.ensure()
		if err != nil {
			return funcdb.Response{}, err
		}
		rid, err := p.s.sendExec(stmtID, p.args, nil)
		if err != nil {
			return funcdb.Response{}, err
		}
		if a, err = p.s.c.recv(rid); err != nil {
			return funcdb.Response{}, err
		}
	}
	switch {
	case a.isErr:
		return funcdb.Response{}, errors.New(a.errMsg)
	case a.redirect != "":
		return funcdb.Response{}, fmt.Errorf("client: prepared request redirected to %s (use DialCluster to chase placements)", a.redirect)
	case a.batch:
		return funcdb.Response{}, errors.New("client: prepared request answered as a batch")
	}
	return a.resp, nil
}

// Exec ships one prepared execution and waits for the response.
func (s *Stmt) Exec(args ...funcdb.Item) (funcdb.Response, error) {
	p, err := s.ExecAsync(args...)
	if err != nil {
		return funcdb.Response{}, err
	}
	return p.Force()
}

// ExecBatch ships every argument set as ONE request — one admission
// arbitration on the server, like ExecBatch — and waits for all
// responses. Binding is all-or-nothing on the server, so a stale
// statement id fails the whole request before anything is admitted, and
// the batch re-prepares and retries exactly once. No argument sets return
// an empty result without sending anything.
func (s *Stmt) ExecBatch(argSets ...[]funcdb.Item) ([]funcdb.Response, error) {
	for i, args := range argSets {
		if err := validArgs(args); err != nil {
			return nil, &session.BatchError{Index: i, Query: s.text, Err: err}
		}
	}
	if len(argSets) == 0 {
		return []funcdb.Response{}, nil
	}
	stmts := make([]wire.Stmt, len(argSets))
	t, sentNS := s.c.startTrace()
	for attempt := 0; ; attempt++ {
		stmtID, err := s.ensure()
		if err != nil {
			return nil, err
		}
		for i, args := range argSets {
			stmts[i] = wire.Stmt{Stmt: stmtID, Args: args}
		}
		rid, err := s.c.request(0, stmts, t)
		if err != nil {
			return nil, err
		}
		a, err := s.c.recv(rid)
		if t != nil {
			// One client-send span for the whole operation (the rare
			// re-prepare retry extends nothing: the trace is finished).
			s.c.finishTrace(t, sentNS)
			t = nil
		}
		if err != nil {
			return nil, err
		}
		if a.isErr {
			if attempt == 0 && isUnknownStmtMsg(a.errMsg) {
				s.forget(stmtID)
				continue
			}
			if a.index >= 0 && a.index < len(argSets) {
				return nil, &session.BatchError{Index: a.index, Query: s.text, Err: errors.New(a.errMsg)}
			}
			return nil, errors.New(a.errMsg)
		}
		resps, ok := a.responses(len(argSets))
		if !ok {
			return nil, fmt.Errorf("client: request %d is not a batch", rid)
		}
		return resps, nil
	}
}
