package query

import (
	"container/list"
	"errors"
	"sync"

	"funcdb/internal/core"
	"funcdb/internal/value"
)

// ErrUnknownStmt reports a text-hash lookup that found no live cache
// entry: the statement was never prepared here, or its entry has since
// been evicted or invalidated. Over the wire the server answers a request
// naming such a hash without its text with this error's text, and clients
// detect it by substring and transparently re-send with the text — a stale
// hash must never resolve to a stale plan.
var ErrUnknownStmt = errors.New("query: unknown prepared statement")

// StmtCache is a bounded, concurrency-safe LRU cache of prepared
// statements keyed by source text: the per-session (and store-wide)
// statement cache of the session layer, and the one place a statement's
// translation is retained across submissions.
//
// Translate keys a statement that carries inline literals by its
// template — the text with '?' in place of every integer and string
// literal — so the parser runs once per template, not once per
// statement: `insert (1, "a") into R` and `insert (2, "b") into R` are one
// entry, the one a client preparing `insert (?, ?) into R` gets too, and
// each submission only lexes and binds. Text traffic therefore occupies
// one entry per statement shape and cannot evict prepared statements. A
// bare word in an item position
// (`insert x into R`) cannot be told from a keyword before parsing, so it
// stays in the template verbatim and such texts still cache per text.
//
// Retaining translations makes the cache the owner of the invalidation
// discipline: a committed `create` changes the directory, the only global
// state a retained translation could ever depend on, and InvalidateRel
// drops every cached statement touching the created name before a
// representation- or directory-dependent prepare step could go stale.
//
// Every entry is indexed twice: by its source text, and by the FNV-1a hash
// of that text (HashText), which is the one name a prepared statement goes
// by on the wire. Both indexes point at live LRU elements and are unlinked
// on eviction or invalidation, so a stale hash resolves to "unknown",
// never to a stale plan.
//
// Translation errors are not cached: a failing statement pays the parse
// again, which keeps the cache free of negative entries that a later
// create could make spuriously sticky.
type StmtCache struct {
	mu     sync.Mutex
	cap    int
	m      map[string]*list.Element
	hashes map[uint64]*list.Element
	order  *list.List // front = most recently used

	hits   int64
	misses int64
}

// cacheEntry is one cached statement, keyed by its source text.
type cacheEntry struct {
	src  string
	prep *Prepared
	hash uint64 // FNV-1a of src
}

// DefaultStmtCacheSize bounds a statement cache when no explicit capacity
// is given: large enough for any realistic working set of distinct
// statement templates. Literal-bearing texts share their template's
// entry, so only texts that differ in relation names or bare-word items
// compete for the rest.
const DefaultStmtCacheSize = 256

// NewStmtCache returns a statement cache holding at most capacity
// statements (capacity <= 0 selects DefaultStmtCacheSize).
func NewStmtCache(capacity int) *StmtCache {
	if capacity <= 0 {
		capacity = DefaultStmtCacheSize
	}
	return &StmtCache{
		cap:    capacity,
		m:      make(map[string]*list.Element),
		hashes: make(map[uint64]*list.Element),
		order:  list.New(),
	}
}

// removeLocked unlinks el from the LRU order and both indexes. The hash
// index entry is only deleted when it still points at el: a (vanishingly
// unlikely) 64-bit collision lets a newer statement own the hash slot.
func (c *StmtCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.m, e.src)
	if c.hashes[e.hash] == el {
		delete(c.hashes, e.hash)
	}
}

// insertLocked adds a fresh entry for src at the front of the LRU and
// evicts past capacity. Callers hold c.mu.
func (c *StmtCache) insertLocked(src string, prep *Prepared) {
	e := &cacheEntry{src: src, prep: prep, hash: prep.Hash()}
	el := c.order.PushFront(e)
	c.m[src] = el
	c.hashes[e.hash] = el
	for c.order.Len() > c.cap {
		c.removeLocked(c.order.Back())
	}
}

// Get returns the prepared form of src, preparing and caching it on a
// miss. The returned Prepared is immutable and safe to use after the
// cache evicts or invalidates it.
func (c *StmtCache) Get(src string) (*Prepared, error) {
	c.mu.Lock()
	if el, ok := c.m[src]; ok {
		c.order.MoveToFront(el)
		c.hits++
		prep := el.Value.(*cacheEntry).prep
		c.mu.Unlock()
		return prep, nil
	}
	c.misses++
	c.mu.Unlock()

	// Parse outside the lock: preparing is pure, and a slow parse must not
	// stall concurrent hits. A racing miss on the same text just prepares
	// twice; the second insert finds the entry present and keeps it.
	prep, err := Prepare(src)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[src]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry).prep, nil
	}
	c.insertLocked(src, prep)
	return prep, nil
}

// Translate is the paper's translate behind the cache: the transaction
// query.Translate(src) returns, field for field and with Query == src,
// or the error it fails with. A statement with inline literals is lexed,
// split into its template and its literals, and bound against the
// template's cached plan; hits and misses count template lookups for
// such texts. Everything else — `create`, a literal-free text, a text
// that already holds a '?' (a prepared statement run without arguments,
// which reports its arity), and any statement that fails anywhere along
// the way — goes through Get(src) and an argument-less Bind, so errors
// and their positions are those of the text as written.
func (c *StmtCache) Translate(src string) (core.Transaction, error) {
	if tx, ok := c.translateLiteral(src); ok {
		return tx, nil
	}
	prep, err := c.Get(src)
	if err != nil {
		return core.Transaction{}, err
	}
	return prep.Bind()
}

// translateLiteral is Translate's template path; ok is false when src is
// not its business (see Translate) or anything failed.
func (c *StmtCache) translateLiteral(src string) (core.Transaction, bool) {
	// All three buffers live on the stack; a longer statement grows onto
	// the heap.
	var (
		tokBuf [16]token
		keyBuf [96]byte
		argBuf [8]value.Item
	)
	toks, err := lex(src, tokBuf[:0])
	if err != nil {
		return core.Transaction{}, false
	}
	key, args, ok := splitLiterals(toks, keyBuf[:0], argBuf[:0])
	if !ok {
		return core.Transaction{}, false
	}
	var prep *Prepared
	c.mu.Lock()
	if el, hit := c.m[string(key)]; hit { // no allocation: the conversion is only a map key
		c.order.MoveToFront(el)
		c.hits++
		prep = el.Value.(*cacheEntry).prep
	}
	c.mu.Unlock()
	if prep == nil {
		if prep, err = c.Get(string(key)); err != nil {
			return core.Transaction{}, false
		}
	}
	tx, err := prep.Bind(args...)
	if err != nil {
		return core.Transaction{}, false
	}
	tx.Query = src // the text as written: log records and forwards carry it
	return tx, true
}

// splitLiterals renders a token stream's canonical template into key —
// '?' for every integer and string literal, words and punctuation
// verbatim, one space between tokens except inside parentheses and before
// a comma, as in `insert (?, ?) into R` — and collects the literals, in
// order, into args. Two token streams render the same key only if they
// differ in nothing but their literals: words are always separated, and a
// string literal never contributes its bytes. ok is false for statements
// the template path leaves alone: `create` (its "2-3" is integers that are
// not data), a text that already holds a '?', and a text without literals.
func splitLiterals(toks []token, key []byte, args []value.Item) (_ []byte, _ []value.Item, ok bool) {
	if toks[0].kind == tokWord && toks[0].text == "create" {
		return nil, nil, false
	}
	for i, t := range toks[:len(toks)-1] { // the last token is tokEOF
		if i > 0 && t.kind != tokRParen && t.kind != tokComma && toks[i-1].kind != tokLParen {
			key = append(key, ' ')
		}
		switch t.kind {
		case tokWord:
			key = append(key, t.text...)
		case tokInt:
			key = append(key, '?')
			args = append(args, value.Int(t.i))
		case tokString:
			key = append(key, '?')
			args = append(args, value.Str(t.text))
		case tokLParen:
			key = append(key, '(')
		case tokRParen:
			key = append(key, ')')
		case tokComma:
			key = append(key, ',')
		default: // tokParam
			return nil, nil, false
		}
	}
	return key, args, len(args) > 0
}

// ByHash resolves a statement by the FNV-1a hash of its source text —
// the lookup a prepared statement shipped as hash + arguments resolves
// through, touching the entry's LRU position. ok is false when no live
// entry carries the hash: it was never prepared here, or has been evicted
// or invalidated since — callers translate that into ErrUnknownStmt, never
// into a stale plan.
func (c *StmtCache) ByHash(h uint64) (*Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.hashes[h]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).prep, true
}

// InvalidateRel drops every cached statement whose access set touches
// rel. Sessions call it after submitting a create for rel: statements
// prepared while the relation did not exist must not outlive the
// directory change that introduced it.
func (c *StmtCache) InvalidateRel(rel string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.order.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*cacheEntry)
		if e.prep.Rel() == rel {
			c.removeLocked(el)
		}
	}
}

// Len returns the number of cached statements.
func (c *StmtCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats reports cache hits and misses since creation.
func (c *StmtCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
