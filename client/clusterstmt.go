package client

import (
	"funcdb"
	"funcdb/internal/core"
	"funcdb/internal/wire"
)

// ClusterStmt is a prepared statement against a cluster. It follows
// Stmt's rule, per owner: the template parses ONCE locally (for the
// routing relation and the '?' count), executions ship its text hash plus
// positional arguments in a tagged Request frame to the owner, the first
// execution against an address carries the text too, and once an
// execution succeeds there, later frames to that address carry the hash
// alone (the cluster client remembers which node holds which statement).
// An owner that dropped the statement (cache eviction, schema
// invalidation, a restart) answers ErrUnknownStmt and the client
// transparently re-sends with the text. A failover does the same through
// the placement machinery: a fence or a dead connection forgets both the
// relation's placement and the address's hold on the statement, so the
// retried execution carries the text to whichever node owns the relation
// now. Safe for concurrent use.
type ClusterStmt struct {
	stmtText
	c *ClusterClient
}

// Prepare returns a prepared-statement handle for q. Nothing crosses the
// wire yet — the text ships (once per owner) on first execution.
func (c *ClusterClient) Prepare(q string) *ClusterStmt {
	return &ClusterStmt{stmtText: newStmtText(q), c: c}
}

// Exec routes one prepared execution to the owning node and waits for
// the response.
func (s *ClusterStmt) Exec(args ...funcdb.Item) (funcdb.Response, error) {
	prep, err := s.check(args)
	if err != nil {
		return funcdb.Response{}, err
	}
	resp, err := s.c.execOne(prep.Rel(), s.wireStmt(args, false), wire.FwdNoForward)
	if err == nil && prep.Kind() == core.KindCreate {
		s.c.cache.InvalidateRel(prep.Rel())
	}
	return resp, err
}
