package main

import (
	"fmt"
	"math/rand"
	"strings"

	"funcdb"
)

// Input generation. Everything a workload sends — key sequence, operation
// kinds, values, statement texts — is produced here from the seed, into
// slices, before any timing starts; the program under test only ever sees
// the generated statements.

type opKind uint8

const (
	opFind opKind = iota
	opInsert
	opDelete
	opRange
)

func (k opKind) isRead() bool { return k == opFind || k == opRange }

// op is one generated operation. key is the key inside relation rel; val
// indexes the worker's value pool (inserts); text is the statement as sent
// by the text workloads.
type op struct {
	kind opKind
	rel  uint8
	key  int32
	val  int32
	text string
}

// rangeSpan is how many consecutive keys a range statement covers.
const rangeSpan = 32

// mix is an operation mix in percent; the remainder after find, insert and
// range is delete-then-reinsert (two statements on one key).
type mix struct{ find, insert, rng int }

// shape fixes a workload's data and traffic: the part of a workload that
// does not depend on how the system under test is assembled.
type shape struct {
	rels     []string
	rows     int // rows per relation, all preloaded
	mix      mix
	valueLen int
	text     bool // generate statement texts (text workloads)
	opsPer   int  // generated operations per worker; the stream is cycled
}

const zipfS = 1.1

// stream is one worker's share of a workload: a disjoint, contiguous block
// of every relation's key space, the operations it will issue over that
// block, and the shadow copy that gives every response exactly one expected
// value. Ranges stay inside the block, which is why blocks are contiguous.
type stream struct {
	sh     *shape
	worker int
	base   int32 // first owned key in every relation
	span   int32 // owned keys per relation
	ops    []op
	pos    int
	values []string   // value pool inserts draw from
	shadow [][]string // [rel][key-base] -> current value
}

// initialValue is what key holds after the preload.
func initialValue(sh *shape, rel, key int) string {
	return pad(fmt.Sprintf("i%d.%d", rel, key), sh.valueLen)
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat("_", n-len(s))
}

// newStream generates worker w's operations for seed. The same (shape,
// seed, worker, workers) always yields the same stream.
func newStream(sh *shape, seed int64, w, workers int) *stream {
	span := sh.rows / workers
	st := &stream{
		sh: sh, worker: w,
		base: int32(w * span), span: int32(span),
		values: make([]string, 1024),
		shadow: make([][]string, len(sh.rels)),
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(w)*7919 + int64(len(sh.rels))))
	for i := range st.values {
		st.values[i] = pad(fmt.Sprintf("w%d.%d.%d", w, i, rng.Intn(1_000_000)), sh.valueLen)
	}
	for r := range sh.rels {
		st.shadow[r] = make([]string, span)
		for k := range st.shadow[r] {
			st.shadow[r][k] = initialValue(sh, r, int(st.base)+k)
		}
	}
	// Zipf ranks map to (relation, key) through a seeded permutation of the
	// worker's block, so the hot keys are spread over relations.
	local := len(sh.rels) * span
	perm := rng.Perm(local)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(local-1))
	st.ops = make([]op, 0, sh.opsPer+1)
	for len(st.ops) < sh.opsPer {
		slot := perm[zipf.Uint64()]
		o := op{rel: uint8(slot / span), key: st.base + int32(slot%span), val: int32(rng.Intn(len(st.values)))}
		switch p := rng.Intn(100); {
		case p < sh.mix.find:
			o.kind = opFind
		case p < sh.mix.find+sh.mix.insert:
			o.kind = opInsert
		case p < sh.mix.find+sh.mix.insert+sh.mix.rng:
			o.kind = opRange
			if hi := st.base + st.span - rangeSpan; o.key > hi {
				o.key = hi
			}
		default:
			o.kind = opDelete
		}
		st.ops = append(st.ops, st.withText(o))
		if o.kind == opDelete {
			o.kind = opInsert
			st.ops = append(st.ops, st.withText(o))
		}
	}
	return st
}

func (st *stream) withText(o op) op {
	if !st.sh.text {
		return o
	}
	rel := st.sh.rels[o.rel]
	switch o.kind {
	case opFind:
		o.text = fmt.Sprintf("find %d in %s", o.key, rel)
	case opInsert:
		o.text = fmt.Sprintf("insert (%d, %q) into %s", o.key, st.values[o.val], rel)
	case opDelete:
		o.text = fmt.Sprintf("delete %d from %s", o.key, rel)
	case opRange:
		o.text = fmt.Sprintf("range %d %d in %s", o.key, o.key+rangeSpan-1, rel)
	}
	return o
}

// next returns the next operation, cycling the generated slice. A delete is
// always followed by its reinsert, also across the wrap.
func (st *stream) next() *op {
	o := &st.ops[st.pos]
	st.pos++
	if st.pos == len(st.ops) {
		st.pos = 0
	}
	return o
}

// expectation is what the response to an operation must be, captured from
// the shadow when the operation is issued. One connection executes its
// statements in order, so the shadow in issue order is exact even while
// earlier operations are still in flight.
type expectation struct {
	value  string   // find: the value, "" when the key must be absent
	values []string // range: the values of the rangeSpan keys, in key order
}

// issue applies o to the shadow and returns what its response must show.
// buf, when long enough, backs the range expectation without allocating.
func (st *stream) issue(o *op, buf []string) expectation {
	row := st.shadow[o.rel]
	k := o.key - st.base
	switch o.kind {
	case opFind:
		return expectation{value: row[k]}
	case opInsert:
		row[k] = st.values[o.val]
	case opDelete:
		// The reinsert that follows restores the key; between the two the
		// key is absent, and nothing else of this worker reads it.
		row[k] = ""
	case opRange:
		return expectation{values: append(buf[:0], row[k:k+rangeSpan]...)}
	}
	return expectation{}
}

// check compares a response with the expectation captured at issue.
func (st *stream) check(o *op, exp expectation, resp funcdb.Response, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", describe(st, o), err)
	}
	if resp.Err != nil {
		return fmt.Errorf("%s: %w", describe(st, o), resp.Err)
	}
	switch o.kind {
	case opFind:
		if exp.value == "" {
			// Deleted and not yet reinserted (a phase ended between the two).
			if resp.Found {
				return fmt.Errorf("%s: found %q, want it absent", describe(st, o), tupleValue(resp.Tuple))
			}
			return nil
		}
		if !resp.Found {
			return fmt.Errorf("%s: not found, want %q", describe(st, o), exp.value)
		}
		if got := tupleValue(resp.Tuple); got != exp.value {
			return fmt.Errorf("%s: got %q, want %q", describe(st, o), got, exp.value)
		}
	case opDelete:
		if !resp.Found {
			return fmt.Errorf("%s: key was not present", describe(st, o))
		}
	case opRange:
		if len(resp.Tuples) != len(exp.values) {
			return fmt.Errorf("%s: %d tuples, want %d", describe(st, o), len(resp.Tuples), len(exp.values))
		}
		for i, tu := range resp.Tuples {
			if key := tu.Key().AsInt(); key != int64(o.key)+int64(i) {
				return fmt.Errorf("%s: tuple %d has key %d", describe(st, o), i, key)
			}
			if got := tupleValue(tu); got != exp.values[i] {
				return fmt.Errorf("%s: key %d got %q, want %q", describe(st, o), int(o.key)+i, got, exp.values[i])
			}
		}
	}
	return nil
}

func tupleValue(tu funcdb.Tuple) string {
	if tu.Arity() < 2 {
		return ""
	}
	return tu.Field(1).AsString()
}

func describe(st *stream, o *op) string {
	kind := [...]string{"find", "insert", "delete", "range"}[o.kind]
	return fmt.Sprintf("worker %d %s %d in %s", st.worker, kind, o.key, st.sh.rels[o.rel])
}

// preload returns every relation's initial tuples, the state all streams'
// shadows start from.
func preload(sh *shape) map[string][]funcdb.Tuple {
	data := make(map[string][]funcdb.Tuple, len(sh.rels))
	for r, rel := range sh.rels {
		tuples := make([]funcdb.Tuple, sh.rows)
		for k := range tuples {
			tuples[k] = funcdb.NewTuple(funcdb.Int(int64(k)), funcdb.Str(initialValue(sh, r, k)))
		}
		data[rel] = tuples
	}
	return data
}

// userBytes is the size of the tuple an insert writes: what the storage
// amplification metric divides by.
func userBytes(st *stream, o *op) int {
	return 8 + len(st.values[o.val])
}
