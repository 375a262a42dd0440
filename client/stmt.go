package client

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

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
// "cluster: fenced" sentinel); Stmt and ClusterStmt handle it
// transparently by re-sending with the text, so callers rarely see it.
func IsUnknownStmt(err error) bool {
	return err != nil && isUnknownStmtMsg(err.Error())
}

func isUnknownStmtMsg(msg string) bool {
	return strings.Contains(msg, "unknown prepared statement")
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

// wireStmt is one execution as a request carries it: the hash and the
// arguments, plus the text when withText.
func (h *stmtText) wireStmt(args []funcdb.Item, withText bool) wire.Stmt {
	return wire.Stmt{Hash: h.hash, Text: h.text, HasText: withText, Args: args}
}

// Stmt is a prepared statement over one connection. The template parses
// once, locally; executions ship its text hash plus positional arguments,
// and the server resolves the hash in its statement cache — no text, no
// server-side parse. The text rides along only until the connection is
// known to hold the statement: the first execution carries text and hash,
// and after the first success executions carry the hash alone.
//
// A Stmt survives the statement's eviction from the server cache: a
// hash-only execution answered with ErrUnknownStmt is re-sent once with
// the text, transparently (safe — a refused statement was never
// admitted). Safe for concurrent use.
type Stmt struct {
	stmtText
	c *Client
	// held records that the server answered an execution of this
	// statement without refusing it, so it holds the statement.
	held atomic.Bool
}

// Prepare returns a prepared-statement handle for q. No wire traffic
// happens: the template parses locally on first use, and its text ships
// with the first execution.
func (c *Client) Prepare(q string) *Stmt {
	return &Stmt{stmtText: newStmtText(q), c: c}
}

// send ships one request executing the statement once per argument set.
// The first statement carries the text while the connection is not known
// to hold the statement, or when withText forces it; the server resolves
// a request's statements in order, so the rest find it by hash. It reports
// whether the text went out.
func (s *Stmt) send(argSets [][]funcdb.Item, withText bool, t *reqtrace.T) (id uint64, sentText bool, err error) {
	withText = withText || !s.held.Load()
	stmts := make([]wire.Stmt, len(argSets))
	for i, args := range argSets {
		stmts[i] = s.wireStmt(args, withText && i == 0)
	}
	id, err = s.c.request(0, stmts, t)
	return id, withText, err
}

// await receives a send's reply. A hash-only request refused as an
// unknown statement is re-sent once with the text; any reply that is not
// an Error proves the server holds the statement.
func (s *Stmt) await(id uint64, sentText bool, argSets [][]funcdb.Item) (arrived, error) {
	a, err := s.c.recv(id)
	if err == nil && a.isErr && !sentText && isUnknownStmtMsg(a.errMsg) {
		s.held.Store(false)
		if id, _, err = s.send(argSets, true, nil); err == nil {
			a, err = s.c.recv(id)
		}
	}
	if err == nil && !a.isErr {
		s.held.Store(true)
	}
	return a, err
}

// StmtPending is one in-flight prepared execution. Unlike the plain
// Pending it retains the arguments, so Force can transparently re-send
// with the text after an ErrUnknownStmt refusal.
type StmtPending struct {
	s        *Stmt
	id       uint64 // request id awaiting a reply
	sentText bool   // the request carried the text
	argSets  [][]funcdb.Item
	t        *reqtrace.T // client-side trace (nil untraced)
	sentNS   int64
}

// ExecAsync ships one prepared execution without waiting.
func (s *Stmt) ExecAsync(args ...funcdb.Item) (*StmtPending, error) {
	if _, err := s.check(args); err != nil {
		return nil, err
	}
	argSets := [][]funcdb.Item{args}
	t, sentNS := s.c.startTrace()
	id, sentText, err := s.send(argSets, false, t)
	if err != nil {
		return nil, err
	}
	return &StmtPending{s: s, id: id, sentText: sentText, argSets: argSets, t: t, sentNS: sentNS}, nil
}

// Force blocks until the response arrives.
func (p *StmtPending) Force() (funcdb.Response, error) {
	a, err := p.s.await(p.id, p.sentText, p.argSets)
	p.s.c.finishTrace(p.t, p.sentNS)
	switch {
	case err != nil:
		return funcdb.Response{}, err
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
	id, sentText, err := s.send(argSets, false, t)
	if err != nil {
		return nil, err
	}
	a, err := s.await(id, sentText, argSets)
	s.c.finishTrace(t, sentNS)
	if err != nil {
		return nil, err
	}
	if a.isErr {
		if a.index >= 0 && a.index < len(argSets) {
			return nil, &session.BatchError{Index: a.index, Query: s.text, Err: errors.New(a.errMsg)}
		}
		return nil, errors.New(a.errMsg)
	}
	resps, ok := a.responses(len(argSets))
	if !ok {
		return nil, fmt.Errorf("client: request %d is not a batch", id)
	}
	return resps, nil
}
