package core

import (
	"fmt"
	"strings"

	"funcdb/internal/value"
)

// Response is one element of the response stream: the result of one
// transaction, tagged with the origin of the request so it can be routed
// back (Section 2.4's tagging discipline).
//
// A Response decoded from a reply frame shares one copy of the frame with
// every other response of that frame: its strings are substrings of the
// copy and its tuples' fields slices of one item block. Keeping any part
// of it — one tuple of a large range, one string — keeps the whole
// frame's bytes alive.
type Response struct {
	Origin string
	Seq    int
	Kind   Kind

	Found  bool          // find, delete: whether the key was present
	Tuple  value.Tuple   // find: the tuple; insert: the inserted tuple
	Tuples []value.Tuple // scan, range: the matching tuples
	Count  int           // count/scan/range: cardinality
	Err    error         // operation-level failure (e.g. unknown relation)

	Note string // custom transactions: free-form result text

	// Version, when nonzero, is the database version the response was
	// computed against — set by replica reads so clients can observe
	// staleness.
	Version int64
}

// Tag returns the origin tag rendered as "origin#seq".
func (r Response) Tag() string { return fmt.Sprintf("%s#%d", r.Origin, r.Seq) }

// OK reports whether the transaction succeeded.
func (r Response) OK() bool { return r.Err == nil }

// String renders the response the way the REPL prints it.
func (r Response) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %v: ", r.Tag(), r.Kind)
	switch {
	case r.Err != nil:
		fmt.Fprintf(&b, "error: %v", r.Err)
	case r.Kind == KindFind && r.Found:
		fmt.Fprintf(&b, "found %s", r.Tuple)
	case r.Kind == KindFind:
		b.WriteString("not found")
	case r.Kind == KindInsert:
		fmt.Fprintf(&b, "inserted %s", r.Tuple)
	case r.Kind == KindDelete && r.Found:
		b.WriteString("deleted")
	case r.Kind == KindDelete:
		b.WriteString("not found")
	case r.Kind == KindScan || r.Kind == KindRange:
		fmt.Fprintf(&b, "%d tuples", r.Count)
		if len(r.Tuples) > 0 && len(r.Tuples) <= 8 {
			parts := make([]string, 0, len(r.Tuples))
			for _, tu := range r.Tuples {
				parts = append(parts, tu.String())
			}
			fmt.Fprintf(&b, ": %s", strings.Join(parts, " "))
		}
	case r.Kind == KindCount:
		fmt.Fprintf(&b, "%d", r.Count)
	case r.Kind == KindCreate:
		b.WriteString("created")
	case r.Note != "":
		b.WriteString(r.Note)
	default:
		b.WriteString("ok")
	}
	return b.String()
}
