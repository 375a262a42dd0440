package client

import (
	"funcdb"
	"funcdb/internal/core"
	"funcdb/internal/wire"
)

// ClusterStmt is a prepared statement against a cluster. The template
// parses ONCE locally (for the routing relation and the '?' count), and
// executions ship its text hash plus positional arguments in a tagged
// Request frame to the owner. Each node connection follows the one text
// rule (see Stmt): the text rides until that connection's node holds the
// statement, and again, once, after the node dropped it (cache eviction,
// schema invalidation, a restart). A failover retry that lands on another
// node, or on a redialed connection, carries the text there the same way.
// Safe for concurrent use.
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
	resp, err := s.c.execOne(prep.Rel(), s.wireStmt(args), wire.FwdNoForward)
	if err == nil && prep.Kind() == core.KindCreate {
		s.c.cache.InvalidateRel(prep.Rel())
	}
	return resp, err
}
