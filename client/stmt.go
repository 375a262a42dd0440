package client

import (
	"fmt"
	"strings"
	"sync"

	"funcdb"
	"funcdb/internal/query"
	"funcdb/internal/reqtrace"
	"funcdb/internal/session"
	"funcdb/internal/wire"
)

// IsUnknownStmt reports whether an error (or wire error text) is a server
// refusing a statement hash it does not hold: the statement was never sent
// there with its text, or its plan was evicted, invalidated by a schema
// change, or belongs to a previous server incarnation. The check is
// textual because server errors cross the wire as text (like the cluster's
// "cluster: fenced" sentinel); the connection handles it transparently by
// re-sending with the text, so callers rarely see it.
func IsUnknownStmt(err error) bool {
	return err != nil && strings.Contains(err.Error(), query.ErrUnknownStmt.Error())
}

// stmtText is what a prepared-statement handle knows without asking any
// server: the template text, the text's FNV-1a hash — the statement's one
// name on the wire — and one local parse, for the '?' count (and, in a
// cluster, the routing relation). Stmt and ClusterStmt share it.
type stmtText struct {
	text string
	hash uint64

	once sync.Once
	prep *query.Prepared
	err  error
}

func newStmtText(q string) stmtText {
	return stmtText{text: q, hash: query.HashText(q)}
}

// parse returns the template's local parse, running the parser once.
func (h *stmtText) parse() (*query.Prepared, error) {
	h.once.Do(func() { h.prep, h.err = query.Prepare(h.text) })
	return h.prep, h.err
}

// Query returns the statement's source text.
func (h *stmtText) Query() string { return h.text }

// NumParams returns the number of '?' placeholders, parsing the template
// locally on first call. Nothing crosses the wire.
func (h *stmtText) NumParams() (int, error) {
	prep, err := h.parse()
	if err != nil {
		return 0, err
	}
	return prep.NumParams(), nil
}

// check validates one argument set against the local parse before
// anything is encoded: an invalid item or a wrong count is the caller's
// error, never a request.
func (h *stmtText) check(args []funcdb.Item) (*query.Prepared, error) {
	prep, err := h.parse()
	if err != nil {
		return nil, err
	}
	for i, a := range args {
		if !a.IsValid() {
			return nil, fmt.Errorf("client: bind parameter %d is the zero item", i+1)
		}
	}
	if len(args) != prep.NumParams() {
		return nil, fmt.Errorf("client: statement has %d parameters, got %d arguments", prep.NumParams(), len(args))
	}
	return prep, nil
}

// wireStmt is one execution as a request carries it: the hash, the
// text and the arguments. The connection decides whether the text rides.
func (h *stmtText) wireStmt(args []funcdb.Item) wire.Stmt {
	return wire.Stmt{Hash: h.hash, Text: h.text, Args: args}
}

// Stmt is a prepared statement over one connection. The template parses
// once, locally; executions ship its text hash plus positional arguments,
// and the server resolves the hash in its statement cache — no text, no
// server-side parse. The connection's text rule decides when the text
// rides: with the first execution, and again after the server dropped the
// statement (eviction, invalidation, a restart), when a hash-only
// execution answered with ErrUnknownStmt is re-sent once with the text,
// transparently (safe — a refused statement was never admitted). Safe for
// concurrent use.
type Stmt struct {
	stmtText
	c *Client
}

// Prepare returns a prepared-statement handle for q. No wire traffic
// happens: the template parses locally on first use, and its text ships
// with the first execution.
func (c *Client) Prepare(q string) *Stmt {
	return &Stmt{stmtText: newStmtText(q), c: c}
}

// send ships one request executing the statement once per argument set.
func (s *Stmt) send(argSets [][]funcdb.Item, t *reqtrace.T) (uint64, []wire.Stmt, error) {
	stmts := make([]wire.Stmt, len(argSets))
	for i, args := range argSets {
		stmts[i] = s.wireStmt(args)
	}
	id, err := s.c.conn.Request(0, 0, stmts, t.Ctx())
	return id, stmts, err
}

// StmtPending is one in-flight prepared execution.
type StmtPending struct {
	p     Pending
	stmts []wire.Stmt
}

// Force blocks until the response arrives.
func (p *StmtPending) Force() (funcdb.Response, error) { return p.p.await(p.stmts) }

// ExecAsync ships one prepared execution without waiting.
func (s *Stmt) ExecAsync(args ...funcdb.Item) (*StmtPending, error) {
	if _, err := s.check(args); err != nil {
		return nil, err
	}
	t, sentNS := s.c.startTrace()
	id, stmts, err := s.send([][]funcdb.Item{args}, t)
	if err != nil {
		return nil, err
	}
	return &StmtPending{Pending{c: s.c, id: id, t: t, sentNS: sentNS}, stmts}, nil
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
// responses. Resolution is all-or-nothing on the server, so an evicted
// statement fails the whole request before anything is admitted, and the
// batch is re-sent with the text exactly once. No argument sets return an
// empty result without sending anything.
func (s *Stmt) ExecBatch(argSets ...[]funcdb.Item) ([]funcdb.Response, error) {
	if _, err := s.parse(); err != nil {
		return nil, err
	}
	for i, args := range argSets {
		if _, err := s.check(args); err != nil {
			return nil, &session.BatchError{Index: i, Query: s.text, Err: err}
		}
	}
	if len(argSets) == 0 {
		return []funcdb.Response{}, nil
	}
	t, sentNS := s.c.startTrace()
	id, stmts, err := s.send(argSets, t)
	if err != nil {
		return nil, err
	}
	resps, err := s.c.awaitBatch(id, stmts, func(int) string { return s.text })
	finishTrace(s.c.rec, t, sentNS)
	return resps, err
}
