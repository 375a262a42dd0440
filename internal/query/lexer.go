// Package query implements the symbolic query language and its translation
// into transactions.
//
// Section 2.1: "By a query we mean a symbolic description of a transaction
// which, for a given database, will produce a response and a new database.
// Thus, we assume a function
//
//	translate: queries --> transactions
//
// which provides such functions from their symbolic descriptions. Thus,
// translate must parse the query and produce a function which is the
// transaction itself. Here is where a language capability for
// 'higher-order' (or function-producing) functions is very useful."
//
// Translate returns a core.Transaction, whose Apply method is exactly that
// produced function. The grammar covers the paper's examples plus the
// natural extensions:
//
//	insert (1, "widget", 3) into R      insert x into R
//	find 1 in R                         find x in R
//	delete 1 from R
//	scan R
//	count R
//	range 1 9 in R
//	create R [using list|avl|2-3|paged]
//
// Bare identifiers denote string items, so the paper's symbolic examples
// ("insert x into R") parse unchanged.
package query

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind uint8

const (
	tokWord tokenKind = iota + 1 // keywords and identifiers
	tokInt
	tokString
	tokLParen
	tokRParen
	tokComma
	tokParam // '?', a bind placeholder in a prepared statement
	tokEOF
)

func (k tokenKind) String() string {
	switch k {
	case tokWord:
		return "word"
	case tokInt:
		return "integer"
	case tokString:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokParam:
		return "'?'"
	case tokEOF:
		return "end of query"
	default:
		return fmt.Sprintf("token(%d)", uint8(k))
	}
}

// token is one lexical token with its source position (byte offset).
type token struct {
	kind tokenKind
	text string
	i    int64
	pos  int
}

// SyntaxError reports a malformed query with position information.
type SyntaxError struct {
	Query string
	Pos   int
	Msg   string
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("query: %s at position %d in %q", e.Msg, e.Pos, e.Query)
}

// lex tokenizes a query string, appending the tokens to toks: the caller
// hands in a buffer sized for a typical statement so that lexing one does
// not grow a slice token by token.
func lex(src string, toks []token) ([]token, error) {
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			i++
		case c == '(':
			toks = append(toks, token{kind: tokLParen, pos: i})
			i++
		case c == ')':
			toks = append(toks, token{kind: tokRParen, pos: i})
			i++
		case c == ',':
			toks = append(toks, token{kind: tokComma, pos: i})
			i++
		case c == '?':
			toks = append(toks, token{kind: tokParam, pos: i})
			i++
		case c == '"':
			// A literal without escapes is a slice of the source; the
			// first backslash switches to building the unescaped text.
			j := i + 1
			for j < len(src) && src[j] != '"' && src[j] != '\\' {
				j++
			}
			text := src[i+1 : j]
			if j < len(src) && src[j] == '\\' {
				var b strings.Builder
				b.WriteString(text)
				for j < len(src) && src[j] != '"' {
					if src[j] == '\\' && j+1 < len(src) {
						j++
					}
					b.WriteByte(src[j])
					j++
				}
				text = b.String()
			}
			if j >= len(src) {
				return nil, &SyntaxError{Query: src, Pos: i, Msg: "unterminated string literal"}
			}
			toks = append(toks, token{kind: tokString, text: text, pos: i})
			i = j + 1
		case c == '-' || (c >= '0' && c <= '9'):
			j := i
			if c == '-' {
				j++
				if j >= len(src) || src[j] < '0' || src[j] > '9' {
					return nil, &SyntaxError{Query: src, Pos: i, Msg: "stray '-'"}
				}
			}
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			v, err := strconv.ParseInt(src[i:j], 10, 64)
			if err != nil {
				return nil, &SyntaxError{Query: src, Pos: i, Msg: "integer out of range"}
			}
			toks = append(toks, token{kind: tokInt, i: v, pos: i})
			i = j
		case isWordRune(rune(c)):
			j := i
			for j < len(src) && isWordRune(rune(src[j])) {
				j++
			}
			toks = append(toks, token{kind: tokWord, text: src[i:j], pos: i})
			i = j
		default:
			return nil, &SyntaxError{Query: src, Pos: i, Msg: fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(src)})
	return toks, nil
}

// isWordRune admits identifier characters, including '-' inside words so
// the representation name "2-3" lexes as one token... but a leading digit
// is consumed by the number case first, so "2-3" is handled specially in
// the parser via the rep name table.
func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.'
}
