package query

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/relation"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

func TestTranslateValidQueries(t *testing.T) {
	tests := []struct {
		src   string
		kind  core.Kind
		rel   string
		check func(t *testing.T, tx core.Transaction)
	}{
		{"insert 5 into R", core.KindInsert, "R", func(t *testing.T, tx core.Transaction) {
			if tx.Tuple.Arity() != 1 || !tx.Tuple.Key().Equal(value.Int(5)) {
				t.Errorf("tuple = %v", tx.Tuple)
			}
		}},
		{`insert (1, "widget", 3) into inventory`, core.KindInsert, "inventory", func(t *testing.T, tx core.Transaction) {
			if tx.Tuple.Arity() != 3 || tx.Tuple.Field(1).AsString() != "widget" {
				t.Errorf("tuple = %v", tx.Tuple)
			}
		}},
		{"insert x into R", core.KindInsert, "R", func(t *testing.T, tx core.Transaction) {
			if !tx.Tuple.Key().Equal(value.Str("x")) {
				t.Errorf("bare word key = %v", tx.Tuple.Key())
			}
		}},
		{"find 7 in R", core.KindFind, "R", func(t *testing.T, tx core.Transaction) {
			if !tx.Key.Equal(value.Int(7)) {
				t.Errorf("key = %v", tx.Key)
			}
		}},
		{"find x in R", core.KindFind, "R", func(t *testing.T, tx core.Transaction) {
			if !tx.Key.Equal(value.Str("x")) {
				t.Errorf("key = %v", tx.Key)
			}
		}},
		{`find "spaced key" in R`, core.KindFind, "R", func(t *testing.T, tx core.Transaction) {
			if tx.Key.AsString() != "spaced key" {
				t.Errorf("key = %v", tx.Key)
			}
		}},
		{"delete -3 from S", core.KindDelete, "S", func(t *testing.T, tx core.Transaction) {
			if !tx.Key.Equal(value.Int(-3)) {
				t.Errorf("key = %v", tx.Key)
			}
		}},
		{"scan R", core.KindScan, "R", nil},
		{"count S", core.KindCount, "S", nil},
		{"range 1 9 in R", core.KindRange, "R", func(t *testing.T, tx core.Transaction) {
			if !tx.Lo.Equal(value.Int(1)) || !tx.Hi.Equal(value.Int(9)) {
				t.Errorf("bounds = %v %v", tx.Lo, tx.Hi)
			}
		}},
		{"create T", core.KindCreate, "T", func(t *testing.T, tx core.Transaction) {
			if tx.Rep != relation.DefaultRep {
				t.Errorf("default rep = %v, want %v", tx.Rep, relation.DefaultRep)
			}
		}},
		{"create T using list", core.KindCreate, "T", func(t *testing.T, tx core.Transaction) {
			if tx.Rep != relation.RepList {
				t.Errorf("rep = %v", tx.Rep)
			}
		}},
		{"create T using avl", core.KindCreate, "T", func(t *testing.T, tx core.Transaction) {
			if tx.Rep != relation.RepAVL {
				t.Errorf("rep = %v", tx.Rep)
			}
		}},
		{"create T using 2-3", core.KindCreate, "T", func(t *testing.T, tx core.Transaction) {
			if tx.Rep != relation.Rep23 {
				t.Errorf("rep = %v", tx.Rep)
			}
		}},
		{"create T using tree23", core.KindCreate, "T", func(t *testing.T, tx core.Transaction) {
			if tx.Rep != relation.Rep23 {
				t.Errorf("rep = %v", tx.Rep)
			}
		}},
		{"create T using paged", core.KindCreate, "T", func(t *testing.T, tx core.Transaction) {
			if tx.Rep != relation.RepPaged {
				t.Errorf("rep = %v", tx.Rep)
			}
		}},
		{"  find   1   in   R  ", core.KindFind, "R", nil},
	}
	for _, tc := range tests {
		t.Run(tc.src, func(t *testing.T) {
			tx, err := Translate(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if tx.Kind != tc.kind {
				t.Errorf("Kind = %v, want %v", tx.Kind, tc.kind)
			}
			if tx.Rel != tc.rel {
				t.Errorf("Rel = %q, want %q", tx.Rel, tc.rel)
			}
			if tx.Query != tc.src {
				t.Errorf("Query not preserved: %q", tx.Query)
			}
			if err := tx.Validate(); err != nil {
				t.Errorf("translated transaction invalid: %v", err)
			}
			if tc.check != nil {
				tc.check(t, tx)
			}
		})
	}
}

func TestTranslateErrors(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{"", "expected a query verb"},
		{"frobnicate R", "unknown query verb"},
		{"insert into R", "expected"},
		{"insert 5 from R", `expected "into"`},
		{"insert 5 into", "expected a relation name"},
		{"find in R", "expected"},
		{"find 1 R", `expected "in"`},
		{"delete 1 in R", `expected "from"`},
		{"scan", "expected a relation name"},
		{"range 1 in R", "expected"},
		{"create T using heap", "unknown representation"},
		{"find 1 in R extra", "unexpected trailing input"},
		{"insert (1, into R", "expected"},
		{"insert (1 2) into R", "expected ',' or ')'"},
		{`find "unterminated in R`, "unterminated string"},
		{"find 99999999999999999999 in R", "integer out of range"},
		{"insert - into R", "stray '-'"},
		{"find @ in R", "unexpected character"},
		{"()", "expected a query verb"},
	}
	for _, tc := range tests {
		t.Run(tc.src, func(t *testing.T) {
			_, err := Translate(tc.src)
			if err == nil {
				t.Fatalf("no error for %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			var syn *SyntaxError
			if !errors.As(err, &syn) {
				t.Errorf("error is not a *SyntaxError: %T", err)
			}
		})
	}
}

func TestTokenKindStrings(t *testing.T) {
	kinds := []tokenKind{tokWord, tokInt, tokString, tokLParen, tokRParen, tokComma, tokEOF}
	want := []string{"word", "integer", "string", "'('", "')'", "','", "end of query"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want[i])
		}
	}
	if s := tokenKind(99).String(); !strings.Contains(s, "token(") {
		t.Errorf("unknown kind = %q", s)
	}
}

func TestMoreParseErrors(t *testing.T) {
	cases := []string{
		"insert ( into R",      // item expected inside tuple
		"insert (1,) into R",   // trailing comma
		"find (1) in R",        // parenthesized key where item expected
		"range (1) 2 in R",     // tuple as range bound
		"range 1 (2) in R",     // tuple as second bound
		"create T using (",     // punctuation as rep name
		"create T using 2",     // dangling 2 of "2-3"
		"create T using 2 - 3", // spaced-out 2-3
		"delete (1) from R",    // tuple as delete key
		"scan (R)",             // punctuation as relation
		"count 7",              // number as relation
		"insert \"x into R",    // unterminated string mid-query
	}
	for _, src := range cases {
		if _, err := Translate(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	for src, want := range map[string]string{
		`insert (1, "a\"b\\c") into R`: `a"b\c`,
		`insert (1, "plain") into R`:   `plain`, // no escape: a slice of the source
		`insert (1, "") into R`:        ``,
		`insert (1, "\"") into R`:      `"`,
		`insert (1, "tail\\") into R`:  `tail\`,
		`insert (1, "\a\b") into R`:    `ab`, // a backslash quotes any byte
	} {
		tx, err := Translate(src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if got := tx.Tuple.Field(1).AsString(); got != want {
			t.Errorf("%s: string = %q, want %q", src, got, want)
		}
	}
	// A backslash as the last byte quotes nothing and leaves the literal
	// open; so does an escaped closing quote.
	for _, src := range []string{`insert "x\`, `insert "x\" into R`} {
		var syn *SyntaxError
		if _, err := Translate(src); !errors.As(err, &syn) || syn.Pos != 7 || syn.Msg != "unterminated string literal" {
			t.Errorf("%s: err = %v, want unterminated string literal at 7", src, err)
		}
	}
}

// TestTranslateAllocGate: parsing a statement allocates for what the
// transaction keeps — the item slice, the tuple — not per token or per
// literal byte.
func TestTranslateAllocGate(t *testing.T) {
	src := `insert (123, "` + strings.Repeat("x", 64) + `") into r3`
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := Translate(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("Translate(%q) = %.1f allocs, want <= 8", src, allocs)
	}
}

func TestSyntaxErrorPositions(t *testing.T) {
	_, err := Translate("find 1 in R extra")
	var syn *SyntaxError
	if !errors.As(err, &syn) {
		t.Fatalf("not a syntax error: %v", err)
	}
	if syn.Pos != 12 {
		t.Errorf("Pos = %d, want 12 (start of 'extra')", syn.Pos)
	}
}

func TestTranslateAllTagsSequentially(t *testing.T) {
	txns, err := TranslateAll("alice", []string{"insert 1 into R", "find 1 in R"})
	if err != nil {
		t.Fatal(err)
	}
	for i, tx := range txns {
		if tx.Origin != "alice" || tx.Seq != i {
			t.Errorf("txn %d tag = %s", i, tx.Tag())
		}
	}
	if _, err := TranslateAll("bob", []string{"find 1 in R", "bogus"}); err == nil {
		t.Error("TranslateAll swallowed a parse error")
	} else if !strings.Contains(err.Error(), "bob") {
		t.Errorf("error lacks origin context: %v", err)
	}
}

func TestMustTranslate(t *testing.T) {
	tx := MustTranslate("count R")
	if tx.Kind != core.KindCount {
		t.Errorf("Kind = %v", tx.Kind)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustTranslate did not panic on bad input")
		}
	}()
	MustTranslate("nonsense query")
}

func TestEndToEndTranslateAndApply(t *testing.T) {
	// The paper's pipeline: queries -> translate || -> apply-stream.
	queries := []string{
		"create R",
		`insert (1, "first") into R`,
		`insert (2, "second") into R`,
		"find 1 in R",
		"count R",
		"delete 1 from R",
		"find 1 in R",
		"scan R",
	}
	txns, err := TranslateAll("term", queries)
	if err != nil {
		t.Fatal(err)
	}
	responses, final := core.ApplySequential(database.New(relation.RepList), txns)
	if !responses[3].Found {
		t.Error("find after insert failed")
	}
	if responses[4].Count != 2 {
		t.Errorf("count = %d", responses[4].Count)
	}
	if !responses[5].Found {
		t.Error("delete missed")
	}
	if responses[6].Found {
		t.Error("find after delete succeeded")
	}
	if responses[7].Count != 1 {
		t.Errorf("final scan = %d", responses[7].Count)
	}
	if final.TotalTuples() != 1 {
		t.Errorf("final tuples = %d", final.TotalTuples())
	}
	_ = trace.None
}

func TestPropertyTranslateNeverPanics(t *testing.T) {
	// Arbitrary byte soup must produce either a transaction or an error,
	// never a panic.
	f := func(src string) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("panic on %q", src)
			}
		}()
		tx, err := Translate(src)
		if err == nil {
			return tx.Validate() == nil
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRoundTripInsertFind(t *testing.T) {
	// For arbitrary small ints: translate-insert then translate-find agree.
	f := func(k int16) bool {
		db := database.New(relation.RepList, "R")
		ins := MustTranslate("insert " + value.Int(int64(k)).String() + " into R")
		fnd := MustTranslate("find " + value.Int(int64(k)).String() + " in R")
		resp, db2, _ := ins.Apply(nil, db, trace.None)
		if resp.Err != nil {
			return false
		}
		r2, _, _ := fnd.Apply(nil, db2, trace.None)
		return r2.Found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
