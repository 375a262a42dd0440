package query

import (
	"fmt"

	"funcdb/internal/core"
	"funcdb/internal/relation"
	"funcdb/internal/value"
)

// parser is a recursive-descent parser over the token stream. When prep is
// non-nil the parser is building a prepared statement: '?' placeholders are
// legal in data-item positions and record bind slots into prep.
type parser struct {
	src  string
	toks []token
	pos  int
	prep *Prepared
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) fail(t token, format string, args ...any) error {
	return &SyntaxError{Query: p.src, Pos: t.pos, Msg: fmt.Sprintf(format, args...)}
}

// expectWord consumes a specific keyword.
func (p *parser) expectWord(word string) error {
	t := p.next()
	if t.kind != tokWord || t.text != word {
		return p.fail(t, "expected %q", word)
	}
	return nil
}

// ident consumes a relation name.
func (p *parser) ident() (string, error) {
	t := p.next()
	if t.kind != tokWord {
		return "", p.fail(t, "expected a relation name, got %v", t.kind)
	}
	return t.text, nil
}

// item consumes one scalar item: an integer, a quoted string, or a bare
// word (which denotes a string item, so the paper's symbolic "x" works).
func (p *parser) item() (value.Item, error) {
	t := p.next()
	switch t.kind {
	case tokInt:
		return value.Int(t.i), nil
	case tokString:
		return value.Str(t.text), nil
	case tokWord:
		return value.Str(t.text), nil
	default:
		return value.Item{}, p.fail(t, "expected a data item, got %v", t.kind)
	}
}

// paramItem consumes one data-item position that may be a '?' placeholder
// in a prepared statement: the slot is recorded and a zero item stands in.
func (p *parser) paramItem(field slotField, index int) (value.Item, error) {
	if p.peek().kind == tokParam {
		t := p.next()
		if p.prep == nil {
			return value.Item{}, p.fail(t, "'?' placeholder outside a prepared statement (use Prepare)")
		}
		p.prep.slots = append(p.prep.slots, paramSlot{field: field, index: index})
		return value.Item{}, nil
	}
	return p.item()
}

// tupleItems consumes either a parenthesized tuple or a single item (a
// 1-tuple), returning the field items. Placeholders are legal per field
// when preparing.
func (p *parser) tupleItems() ([]value.Item, error) {
	if p.peek().kind != tokLParen {
		it, err := p.paramItem(slotTuple, 0)
		if err != nil {
			return nil, err
		}
		return []value.Item{it}, nil
	}
	p.next() // consume '('
	var items []value.Item
	for {
		it, err := p.paramItem(slotTuple, len(items))
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		t := p.next()
		switch t.kind {
		case tokComma:
			continue
		case tokRParen:
			return items, nil
		default:
			return nil, p.fail(t, "expected ',' or ')' in tuple")
		}
	}
}

// rep consumes a representation name after "using".
func (p *parser) rep() (relation.Rep, error) {
	t := p.next()
	if t.kind == tokInt && t.i == 2 && p.peek().kind == tokInt && p.peek().i == -3 {
		// "2-3" lexes as the integers 2 and -3.
		p.next()
		return relation.Rep23, nil
	}
	if t.kind != tokWord {
		return 0, p.fail(t, "expected a representation name")
	}
	switch t.text {
	case "list":
		return relation.RepList, nil
	case "avl":
		return relation.RepAVL, nil
	case "tree23":
		return relation.Rep23, nil
	case "paged":
		return relation.RepPaged, nil
	default:
		return 0, p.fail(t, "unknown representation %q (want list, avl, 2-3/tree23 or paged)", t.text)
	}
}

// end verifies the query has no trailing tokens.
func (p *parser) end() error {
	if t := p.peek(); t.kind != tokEOF {
		return p.fail(t, "unexpected trailing input")
	}
	return nil
}

// Translate parses a symbolic query and produces the transaction — the
// paper's higher-order translate. The returned Transaction's Apply method
// is the function databases -> responses x databases.
func Translate(src string) (core.Transaction, error) {
	return translate(src, nil)
}

// translate is the shared parse: with prep nil it is the plain Translate;
// with prep non-nil it builds a prepared statement, recording '?' slots.
func translate(src string, prep *Prepared) (core.Transaction, error) {
	var buf [16]token // on the stack; a longer statement grows onto the heap
	toks, err := lex(src, buf[:0])
	if err != nil {
		return core.Transaction{}, err
	}
	p := &parser{src: src, toks: toks, prep: prep}
	verb := p.next()
	if verb.kind != tokWord {
		return core.Transaction{}, p.fail(verb, "expected a query verb")
	}

	var tx core.Transaction
	switch verb.text {
	case "insert":
		items, err := p.tupleItems()
		if err != nil {
			return core.Transaction{}, err
		}
		if err := p.expectWord("into"); err != nil {
			return core.Transaction{}, err
		}
		rel, err := p.ident()
		if err != nil {
			return core.Transaction{}, err
		}
		// The parser built items for this tuple, so the tuple owns it; a
		// prepared statement keeps the same slice as its bind template,
		// which Bind copies and never writes.
		if prep != nil {
			prep.items = items
		}
		tx = core.Insert(rel, value.TupleOf(items))

	case "find":
		key, err := p.paramItem(slotKey, 0)
		if err != nil {
			return core.Transaction{}, err
		}
		if err := p.expectWord("in"); err != nil {
			return core.Transaction{}, err
		}
		rel, err := p.ident()
		if err != nil {
			return core.Transaction{}, err
		}
		tx = core.Find(rel, key)

	case "delete":
		key, err := p.paramItem(slotKey, 0)
		if err != nil {
			return core.Transaction{}, err
		}
		if err := p.expectWord("from"); err != nil {
			return core.Transaction{}, err
		}
		rel, err := p.ident()
		if err != nil {
			return core.Transaction{}, err
		}
		tx = core.Delete(rel, key)

	case "scan":
		rel, err := p.ident()
		if err != nil {
			return core.Transaction{}, err
		}
		tx = core.Scan(rel)

	case "count":
		rel, err := p.ident()
		if err != nil {
			return core.Transaction{}, err
		}
		tx = core.Count(rel)

	case "range":
		lo, err := p.paramItem(slotLo, 0)
		if err != nil {
			return core.Transaction{}, err
		}
		hi, err := p.paramItem(slotHi, 0)
		if err != nil {
			return core.Transaction{}, err
		}
		if err := p.expectWord("in"); err != nil {
			return core.Transaction{}, err
		}
		rel, err := p.ident()
		if err != nil {
			return core.Transaction{}, err
		}
		tx = core.Range(rel, lo, hi)

	case "create":
		rel, err := p.ident()
		if err != nil {
			return core.Transaction{}, err
		}
		rep := relation.DefaultRep
		if p.peek().kind == tokWord && p.peek().text == "using" {
			p.next()
			rep, err = p.rep()
			if err != nil {
				return core.Transaction{}, err
			}
		}
		tx = core.Create(rel, rep)

	default:
		return core.Transaction{}, p.fail(verb, "unknown query verb %q", verb.text)
	}

	if err := p.end(); err != nil {
		return core.Transaction{}, err
	}
	tx.Query = src
	return tx, nil
}

// TranslateAll maps Translate over a query stream, tagging each transaction
// with the given origin and its sequence number — the paper's
// "transactions = translate || queries" with the tagging of Section 2.4.
func TranslateAll(origin string, queries []string) ([]core.Transaction, error) {
	out := make([]core.Transaction, 0, len(queries))
	for i, q := range queries {
		tx, err := Translate(q)
		if err != nil {
			return nil, fmt.Errorf("query %d from %s: %w", i, origin, err)
		}
		tx.Origin, tx.Seq = origin, i
		out = append(out, tx)
	}
	return out, nil
}

// MustTranslate is Translate for statically known queries (tests,
// examples); it panics on error.
func MustTranslate(src string) core.Transaction {
	tx, err := Translate(src)
	if err != nil {
		panic(err)
	}
	return tx
}
