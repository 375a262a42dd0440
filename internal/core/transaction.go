// Package core implements the paper's primary contribution: functional
// transaction processing over a stream of database versions.
//
// Section 2.1: "Our viewpoint is that each transaction reads a database,
// and conceptually produces a new instance of it. Thus, we describe
//
//	transaction: databases --> responses x databases
//
// The new database is then used for the next transaction to be processed."
// The whole system is the recursive stream program of Figure 2-1:
//
//	old-databases = initial-database ^ new-databases
//	[responses, new-databases] = apply-stream:[transactions, old-databases]
//
// Two engines execute that program:
//
//   - ApplyStreamTraced interprets it while recording the unit-task
//     dataflow DAG (internal/trace), reproducing the paper's Rediflow
//     simulations (Tables I-III).
//   - Engine executes it over real lenient cells (internal/lenient): each
//     transaction is a function of per-relation cells — evaluated by its
//     submitter when its inputs are already values, a spawned future
//     otherwise — so independent transactions genuinely run in parallel
//     and conflicting ones pipeline — with no locks in user code,
//     Section 2.3's claim made operational.
package core

import (
	"fmt"

	"funcdb/internal/database"
	"funcdb/internal/eval"
	"funcdb/internal/relation"
	"funcdb/internal/reqtrace"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

// Kind classifies a transaction's operation.
type Kind uint8

// Transaction kinds.
const (
	KindFind Kind = iota + 1
	KindInsert
	KindDelete
	KindScan
	KindCount
	KindRange
	KindCreate
	KindCustom
)

// String returns the kind's query-language verb.
func (k Kind) String() string {
	switch k {
	case KindFind:
		return "find"
	case KindInsert:
		return "insert"
	case KindDelete:
		return "delete"
	case KindScan:
		return "scan"
	case KindCount:
		return "count"
	case KindRange:
		return "range"
	case KindCreate:
		return "create"
	case KindCustom:
		return "custom"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// CustomFunc is a user-supplied transaction body: an arbitrary function
// from a database to a response and a new database, the paper's general
// transaction type. It must be pure: derive the new database only from the
// argument database via its functional operations.
type CustomFunc func(ctx *eval.Ctx, db *database.Database, after trace.TaskID) (Response, *database.Database, trace.Op)

// Transaction is one element of the transaction stream. The built-in kinds
// cover the query language; KindCustom carries an arbitrary functional
// body with declared read/write sets.
//
// Origin and Seq are the tag the merge operation pairs with each request
// "in order to direct the response for each transaction back to its
// origin" (Section 2.4). The processing engines ignore the tag but keep it
// associated with the response.
type Transaction struct {
	Origin string
	Seq    int

	Kind  Kind
	Rel   string
	Tuple value.Tuple  // insert
	Key   value.Item   // find, delete
	Lo    value.Item   // range
	Hi    value.Item   // range
	Rep   relation.Rep // create

	Custom CustomFunc
	Reads  []string // custom: relations read
	Writes []string // custom: relations written

	Query string // source text, for reports and figures

	// Prepared-statement provenance, set on transactions bound from a
	// prepared template. When such a transaction must be forwarded to
	// another node, Query holds the '?' template (unbindable as text), so
	// the cluster ships PrepHash + PrepArgs instead and the owner rebinds
	// against its own statement cache. Routing hints only: the engines
	// ignore both, and neither is persisted or part of the tag.
	PrepHash uint64
	PrepArgs []value.Item

	// Trace, when non-nil, is the request's live trace handle: the engine
	// brackets its lane-wait/plan/lane-commit stages onto it and the
	// archive's commit observer attaches the group-commit fsync span.
	// Baggage like PrepHash: the engines' semantics ignore it, it is never
	// persisted, and a nil handle costs one pointer comparison.
	Trace *reqtrace.T
}

// Tag returns the origin tag rendered as "origin#seq".
func (t Transaction) Tag() string { return fmt.Sprintf("%s#%d", t.Origin, t.Seq) }

// IsReadOnly reports whether the transaction cannot modify the database:
// "a transaction tr is read-only if it returns the same database as its
// argument" (Section 2.2).
func (t Transaction) IsReadOnly() bool {
	switch t.Kind {
	case KindFind, KindScan, KindCount, KindRange:
		return true
	case KindCustom:
		return len(t.Writes) == 0
	default:
		return false
	}
}

// ReadSet returns the relations the transaction may read. The paper:
// "Usually the specific relations are syntactically derivable from the
// query."
func (t Transaction) ReadSet() []string {
	if t.Kind == KindCustom {
		return append([]string(nil), t.Reads...)
	}
	if t.Rel == "" {
		return nil
	}
	return []string{t.Rel}
}

// WriteSet returns the relations the transaction may replace.
func (t Transaction) WriteSet() []string {
	switch t.Kind {
	case KindInsert, KindDelete:
		return []string{t.Rel}
	case KindCreate:
		return []string{t.Rel}
	case KindCustom:
		return append([]string(nil), t.Writes...)
	default:
		return nil
	}
}

// Validate reports a structurally invalid transaction.
func (t Transaction) Validate() error {
	switch t.Kind {
	case KindInsert:
		if t.Rel == "" || t.Tuple.IsZero() {
			return fmt.Errorf("core: insert needs a relation and a tuple: %+v", t)
		}
	case KindFind, KindDelete:
		if t.Rel == "" || !t.Key.IsValid() {
			return fmt.Errorf("core: %v needs a relation and a key: %+v", t.Kind, t)
		}
	case KindScan, KindCount:
		if t.Rel == "" {
			return fmt.Errorf("core: %v needs a relation: %+v", t.Kind, t)
		}
	case KindRange:
		if t.Rel == "" || !t.Lo.IsValid() || !t.Hi.IsValid() {
			return fmt.Errorf("core: range needs a relation and bounds: %+v", t)
		}
	case KindCreate:
		if t.Rel == "" || t.Rep == 0 {
			return fmt.Errorf("core: create needs a relation name and representation: %+v", t)
		}
	case KindCustom:
		if t.Custom == nil {
			return fmt.Errorf("core: custom transaction without a body: %+v", t)
		}
	default:
		return fmt.Errorf("core: unknown transaction kind %v", t.Kind)
	}
	return nil
}

// Apply runs the transaction as a function from a database version to a
// response and a successor version. Errors (e.g. unknown relations) are
// reported in the response — the database stream must keep flowing for the
// transactions behind this one.
func (t Transaction) Apply(ctx *eval.Ctx, db *database.Database, after trace.TaskID) (Response, *database.Database, trace.Op) {
	resp := Response{Origin: t.Origin, Seq: t.Seq, Kind: t.Kind}
	switch t.Kind {
	case KindInsert:
		next, op, err := db.Insert(ctx, t.Rel, t.Tuple, after)
		if err != nil {
			resp.Err = err
			return resp, db, op
		}
		resp.Tuple = t.Tuple
		return resp, next, op

	case KindFind:
		tu, found, done, err := db.Find(ctx, t.Rel, t.Key, after)
		resp.Err = err
		resp.Found = found
		resp.Tuple = tu
		return resp, db, trace.Op{Done: done}

	case KindDelete:
		next, found, op, err := db.Delete(ctx, t.Rel, t.Key, after)
		resp.Err = err
		resp.Found = found
		return resp, next, op

	case KindScan:
		tuples, done, err := db.Scan(ctx, t.Rel, after)
		resp.Err = err
		resp.Tuples = tuples
		resp.Count = len(tuples)
		return resp, db, trace.Op{Done: done}

	case KindCount:
		n, done, err := db.Count(ctx, t.Rel, after)
		resp.Err = err
		resp.Count = n
		return resp, db, trace.Op{Done: done}

	case KindRange:
		tuples, done, err := db.RangeScan(ctx, t.Rel, t.Lo, t.Hi, after)
		resp.Err = err
		resp.Tuples = tuples
		resp.Count = len(tuples)
		return resp, db, trace.Op{Done: done}

	case KindCreate:
		next, op, err := db.CreateRelation(ctx, t.Rel, t.Rep, after)
		if err != nil {
			resp.Err = err
			return resp, db, op
		}
		return resp, next, op

	case KindCustom:
		r, next, op := t.Custom(ctx, db, after)
		r.Origin, r.Seq = t.Origin, t.Seq
		if r.Kind == 0 {
			r.Kind = KindCustom
		}
		return r, next, op

	default:
		resp.Err = fmt.Errorf("core: unknown transaction kind %v", t.Kind)
		return resp, db, trace.Op{Done: after}
	}
}

// Insert builds an insert transaction.
func Insert(rel string, tuple value.Tuple) Transaction {
	return Transaction{Kind: KindInsert, Rel: rel, Tuple: tuple}
}

// Find builds a find transaction.
func Find(rel string, key value.Item) Transaction {
	return Transaction{Kind: KindFind, Rel: rel, Key: key}
}

// Delete builds a delete transaction.
func Delete(rel string, key value.Item) Transaction {
	return Transaction{Kind: KindDelete, Rel: rel, Key: key}
}

// Scan builds a scan transaction.
func Scan(rel string) Transaction { return Transaction{Kind: KindScan, Rel: rel} }

// Count builds a count transaction.
func Count(rel string) Transaction { return Transaction{Kind: KindCount, Rel: rel} }

// Range builds a range transaction over lo <= key <= hi.
func Range(rel string, lo, hi value.Item) Transaction {
	return Transaction{Kind: KindRange, Rel: rel, Lo: lo, Hi: hi}
}

// Create builds a create-relation transaction.
func Create(rel string, rep relation.Rep) Transaction {
	return Transaction{Kind: KindCreate, Rel: rel, Rep: rep}
}

// Custom builds a custom transaction with declared read and write sets.
func Custom(body CustomFunc, reads, writes []string) Transaction {
	return Transaction{
		Kind:   KindCustom,
		Custom: body,
		Reads:  append([]string(nil), reads...),
		Writes: append([]string(nil), writes...),
	}
}
