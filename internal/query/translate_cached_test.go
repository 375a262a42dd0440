package query

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"funcdb/internal/core"
)

// sameTranslation compares what StmtCache.Translate returned with what
// query.Translate returns for the same text: the identical error string,
// or the identical transaction on every field translate sets.
func sameTranslation(t *testing.T, how, src string, got core.Transaction, gotErr error, want core.Transaction, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s cache, %q: err %v, Translate gives %v", how, src, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Kind != want.Kind || got.Rel != want.Rel || got.Rep != want.Rep || got.Query != src ||
		!itemEq(got.Key, want.Key) || !itemEq(got.Lo, want.Lo) || !itemEq(got.Hi, want.Hi) ||
		got.Tuple.Arity() != want.Tuple.Arity() {
		t.Fatalf("%s cache, %q:\n got %+v\nwant %+v", how, src, got, want)
	}
	for i := 0; i < want.Tuple.Arity(); i++ {
		if !itemEq(got.Tuple.Field(i), want.Tuple.Field(i)) {
			t.Fatalf("%s cache, %q: tuple field %d is %v, want %v", how, src, i, got.Tuple.Field(i), want.Tuple.Field(i))
		}
	}
	if got.PrepHash != 0 || got.PrepArgs != nil || got.Origin != "" || got.Seq != 0 {
		t.Fatalf("%s cache, %q: translation carries a tag or prepared provenance: %+v", how, src, got)
	}
}

// literalSeeds are statements with inline literals — what the template
// path of StmtCache.Translate exists for — and the texts it must leave
// alone or fail exactly as the parser does.
var literalSeeds = []string{
	`insert (1, "widget", 3) into R`,
	`insert (2,"gadget",4)into R`,
	"insert\t( -7 ,\n\"a b\" )  into  parts",
	`insert 9 into R`,
	`insert (x, 1) into R`,
	`insert ("a\"b", "c\\d") into R`,
	`insert ("?", 1) into R`,
	`insert (1, ?) into R`,
	`find 1 in R`,
	`find "k" in R`,
	`find x in R`,
	`delete -3 from R`,
	`range 1 9 in R`,
	`range "a" "z" in R`,
	`range 1 x in R`,
	`create R using 2-3`,
	`create R using 2 -3`,
	`create 7`,
	// Literals where the grammar wants a word, trailing input, arity traps.
	`insert 1 into 5`,
	`find 1 in "R"`,
	`find 1 in R extra`,
	`find 1 2 in R`,
	`range 1 in R`,
	`insert (1, 2 into R`,
	`insert (1,, 2) into R`,
	`scan 1`,
	`count "R"`,
	`7 find in R`,
	`find 99999999999999999999 in R`,
	`find - in R`,
	`insert ("unterminated, 1) into R`,
	`in into ( ) , from`,
	`insert (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12) into wide`,
	`insert ("` + strings.Repeat("long ", 40) + `", 1) into ` + strings.Repeat("relation", 20),
}

// fuzzShared is the warm cache FuzzTranslateCached runs every input
// through: it accumulates the templates of everything seen before, so two
// different statements rendering the same template key would show up as a
// wrong translation for the later one.
var fuzzShared = NewStmtCache(0)

// checkTranslateCached is the property: through a cold cache, through a
// warm one, and through a cache shared with every other input, Translate
// behind the cache is query.Translate (Prepare and an argument-less Bind
// for a text with placeholders).
func checkTranslateCached(t *testing.T, src string) {
	t.Helper()
	want, wantErr := Translate(src)
	if holdsPlaceholder(src) {
		// A prepared statement executed without arguments: where it parses
		// as one, the session has always reported its arity, not the plain
		// parser's refusal of '?'.
		want = core.Transaction{}
		var prep *Prepared
		if prep, wantErr = Prepare(src); wantErr == nil {
			want, wantErr = prep.Bind()
		}
	}
	c := NewStmtCache(0)
	got, err := c.Translate(src)
	sameTranslation(t, "cold", src, got, err, want, wantErr)
	got, err = c.Translate(src)
	sameTranslation(t, "warm", src, got, err, want, wantErr)
	got, err = fuzzShared.Translate(src)
	sameTranslation(t, "shared", src, got, err, want, wantErr)
}

// holdsPlaceholder reports whether src lexes and has a '?' token.
func holdsPlaceholder(src string) bool {
	toks, err := lex(src, nil)
	if err != nil {
		return false
	}
	for _, tok := range toks {
		if tok.kind == tokParam {
			return true
		}
	}
	return false
}

// FuzzTranslateCached: for any text, StmtCache.Translate equals
// query.Translate field for field or fails with the identical error. Seeded
// from FuzzPrepare's corpus (placeholders, malformed shapes) plus
// literal-bearing statements.
func FuzzTranslateCached(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	for _, seed := range literalSeeds {
		f.Add(seed)
	}
	f.Fuzz(checkTranslateCached)
}

// TestTranslateCachedCorpus replays the seeds and both checked-in corpora
// under plain `go test`.
func TestTranslateCachedCorpus(t *testing.T) {
	inputs := append(append([]string(nil), fuzzSeeds...), literalSeeds...)
	for _, dir := range []string{"FuzzPrepare", "FuzzTranslateCached"} {
		entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join("testdata", "fuzz", dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			src, ok := decodeCorpusFile(string(data))
			if !ok {
				t.Fatalf("corpus file %s/%s is not a v1 string corpus entry", dir, e.Name())
			}
			inputs = append(inputs, src)
		}
	}
	for _, src := range inputs {
		checkTranslateCached(t, src)
	}
}

// TestTranslateSharesTemplateEntry: literal texts of one shape are one
// cache entry — the one a client preparing the canonical spelling holds,
// whose hash keeps resolving — and texts the template path leaves alone
// keep their exact-text entry.
func TestTranslateSharesTemplateEntry(t *testing.T) {
	c := NewStmtCache(8)
	prep, err := c.Get("insert (?, ?) into R")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		src := fmt.Sprintf("insert  (%d,\"v%d\")into R", i, i)
		tx, err := c.Translate(src)
		if err != nil {
			t.Fatal(err)
		}
		if tx.Query != src || tx.Tuple.Field(0).AsInt() != int64(i) || tx.Tuple.Field(1).AsString() != fmt.Sprintf("v%d", i) {
			t.Fatalf("translated %q to %+v", src, tx)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("100 literal inserts left %d entries, want the prepared template alone", c.Len())
	}
	if got, ok := c.ByHash(HashText("insert (?, ?) into R")); !ok || got != prep {
		t.Fatal("the prepared template's hash no longer resolves to its plan")
	}
	if hits, misses := c.Stats(); hits != 101 || misses != 1 {
		t.Errorf("stats = %d hits, %d misses; want 101 (100 templates + ByHash), 1", hits, misses)
	}

	// Bare words stay in the template, a literal-free text and a create
	// are keyed as written.
	for _, src := range []string{"insert (x, 1) into R", "insert (y, 1) into R", "count  R", "create S using avl"} {
		if _, err := c.Translate(src); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []string{"insert (x, ?) into R", "insert (y, ?) into R", "count  R", "create S using avl"} {
		c.mu.Lock()
		_, ok := c.m[key]
		c.mu.Unlock()
		if !ok {
			t.Errorf("no cache entry keyed %q", key)
		}
	}
}

// TestStmtCacheTranslateAllocGate: a warm Translate pays for what the
// transaction keeps — an insert's item slice — and nothing for finding the
// plan: no template string, no token slice, no boxed literal.
func TestStmtCacheTranslateAllocGate(t *testing.T) {
	c := NewStmtCache(0)
	for _, tc := range []struct {
		src string
		max float64
	}{
		{`insert (123, "` + strings.Repeat("x", 64) + `") into r3`, 1},
		{`find 123 in r3`, 0},
		{`delete "k" from r3`, 0},
		{`range 1 99 in r3`, 0},
	} {
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := c.Translate(tc.src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("warm Translate(%q) = %.1f allocs, want <= %.0f", tc.src, allocs, tc.max)
		}
	}
}
