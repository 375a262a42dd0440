package client

import (
	"fmt"
	"sync"

	"funcdb"
	"funcdb/internal/core"
	"funcdb/internal/query"
	"funcdb/internal/wire"
)

// ClusterStmt is a prepared statement against a cluster. The client
// parses the text ONCE locally (for the routing relation and the '?'
// count) and never again; executions ship the statement's text hash plus
// positional arguments in a tagged Request frame to the owner, which
// resolves the hash in its statement cache — no text, no parse, on
// either side of the wire.
//
// Statement identity is negotiated per owner: the first execution against
// an address includes the text so the owner registers it; once an
// execution succeeds there, later frames to that address carry the hash
// alone (the cluster client remembers which node holds which statement). An owner that dropped the statement (cache eviction, schema
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

	mu      sync.Mutex
	parsed  bool
	rel     string
	kind    core.Kind
	nparams int
}

// Prepare returns a prepared-statement handle for q. Nothing crosses the
// wire yet — the text ships (once per owner) on first execution.
func (c *ClusterClient) Prepare(q string) *ClusterStmt {
	return &ClusterStmt{c: c, text: q, hash: query.HashText(q)}
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
	resp, err := s.c.execOne(rel, wire.Stmt{Hash: s.hash, Text: s.text, Args: args}, wire.FwdNoForward)
	if err == nil && s.kind == core.KindCreate {
		s.c.cache.InvalidateRel(rel)
	}
	return resp, err
}
