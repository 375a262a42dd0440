package query

import (
	"fmt"

	"funcdb/internal/core"
	"funcdb/internal/value"
)

// slotField names the transaction field a bind parameter fills.
type slotField uint8

const (
	slotKey   slotField = iota + 1 // find/delete key
	slotLo                         // range lower bound
	slotHi                         // range upper bound
	slotTuple                      // insert tuple field (index says which)
)

// paramSlot is one '?' placeholder: where its bound item lands.
type paramSlot struct {
	field slotField
	index int // tuple field index when field == slotTuple
}

// Prepared is a parsed query template with '?' bind placeholders: the
// parser has run once, and Bind substitutes data items into the recorded
// slots to mint submittable transactions — parse once, bind many, so the
// lexer and parser are off the submission hot path. Placeholders stand for
// data items only (keys, range bounds, tuple fields); relation names and
// verbs are fixed at prepare time, which is what lets the access set be
// planned without reparsing.
//
// A Prepared value is immutable after Prepare returns and safe for
// concurrent Bind calls.
type Prepared struct {
	src   string
	hash  uint64           // FNV-1a of src, the statement's wire identity
	tx    core.Transaction // template; slot positions hold zero items
	items []value.Item     // insert tuple template (nil for other verbs)
	slots []paramSlot
}

// HashText returns the FNV-1a 64-bit hash of a statement's source text:
// the identity a forwarded prepared statement ships on the wire so the
// owning node can resolve it against its own cache without the text.
func HashText(src string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(src); i++ {
		h ^= uint64(src[i])
		h *= prime64
	}
	return h
}

// Prepare parses src once into a bindable statement. Queries with no
// placeholders prepare fine (NumParams reports 0) — Bind with no arguments
// then returns the plain translation.
func Prepare(src string) (*Prepared, error) {
	prep := &Prepared{src: src, hash: HashText(src)}
	tx, err := translate(src, prep)
	if err != nil {
		return nil, err
	}
	prep.tx = tx
	return prep, nil
}

// Src returns the prepared query text.
func (p *Prepared) Src() string { return p.src }

// Hash returns HashText(Src()): the statement's wire identity.
func (p *Prepared) Hash() uint64 { return p.hash }

// Rel returns the relation the statement touches ("" for statements with
// no relation). Relation names are fixed at prepare time — placeholders
// stand for data items only — so the statement's access set is static,
// which is what lets a statement cache invalidate by relation name.
func (p *Prepared) Rel() string { return p.tx.Rel }

// Kind returns the statement's transaction kind.
func (p *Prepared) Kind() core.Kind { return p.tx.Kind }

// NumParams returns the number of '?' placeholders.
func (p *Prepared) NumParams() int { return len(p.slots) }

// Bind substitutes args into the placeholders, left to right, and returns
// the resulting transaction. The receiver is not modified.
func (p *Prepared) Bind(args ...value.Item) (core.Transaction, error) {
	if len(args) != len(p.slots) {
		return core.Transaction{}, fmt.Errorf("query: %q needs %d bind parameters, got %d",
			p.src, len(p.slots), len(args))
	}
	tx := p.tx
	if len(p.slots) == 0 {
		return tx, nil // nothing to substitute: the template is the transaction
	}
	var items []value.Item
	if p.items != nil {
		items = append([]value.Item(nil), p.items...)
	}
	for i, s := range p.slots {
		if !args[i].IsValid() {
			return core.Transaction{}, fmt.Errorf("query: bind parameter %d of %q is the zero item", i+1, p.src)
		}
		switch s.field {
		case slotKey:
			tx.Key = args[i]
		case slotLo:
			tx.Lo = args[i]
		case slotHi:
			tx.Hi = args[i]
		case slotTuple:
			items[s.index] = args[i]
		}
	}
	if items != nil {
		tx.Tuple = value.TupleOf(items) // the copy above is the tuple's own
	}
	return tx, nil
}

// MustBind is Bind for statically valid arguments; it panics on error.
func (p *Prepared) MustBind(args ...value.Item) core.Transaction {
	tx, err := p.Bind(args...)
	if err != nil {
		panic(err)
	}
	return tx
}
