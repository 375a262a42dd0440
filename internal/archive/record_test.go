package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/lenient"
	"funcdb/internal/query"
	"funcdb/internal/relation"
	"funcdb/internal/value"
	"funcdb/internal/wire"
)

// recordCRC is the archive records' checksum: the wire's frame CRC.
var recordCRC = wire.FrameCRC

// appendRecord frames one record as the archive writes it: a wire frame.
func appendRecord(dst []byte, typ byte, payload []byte) []byte {
	out, err := wire.AppendFrame(dst, typ, payload)
	if err != nil {
		panic(err)
	}
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 1000)}
	var buf []byte
	for i, p := range payloads {
		buf = appendRecord(buf, byte(i+1), p)
	}
	rd := &reader{r: bytes.NewReader(buf)}
	for i, p := range payloads {
		rec, err := rd.next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.typ != byte(i+1) || !bytes.Equal(rec.payload, p) {
			t.Fatalf("record %d: got type %d payload %d bytes", i, rec.typ, len(rec.payload))
		}
	}
	if _, err := rd.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream: %v", err)
	}
	if rd.off != int64(len(buf)) {
		t.Fatalf("offset %d after %d bytes", rd.off, len(buf))
	}
}

// TestRecordTruncation cuts a two-record stream at every byte boundary:
// the reader must yield the valid prefix and then a clean truncation (or
// EOF), never a panic and never a bogus record.
func TestRecordTruncation(t *testing.T) {
	first := appendRecord(nil, FormRun, []byte("first payload"))
	full := appendRecord(first, FormRun, []byte("second payload"))
	for cut := 0; cut <= len(full); cut++ {
		rd := &reader{r: bytes.NewReader(full[:cut])}
		var got int
		var err error
		for {
			var rec record
			rec, err = rd.next()
			if err != nil {
				break
			}
			if rec.typ != FormRun {
				t.Fatalf("cut %d: bad record type %d", cut, rec.typ)
			}
			got++
		}
		wantRecords := 0
		if cut >= len(first) {
			wantRecords = 1
		}
		if cut == len(full) {
			wantRecords = 2
		}
		if got != wantRecords {
			t.Fatalf("cut %d: read %d records, want %d", cut, got, wantRecords)
		}
		cleanCut := cut == len(full) || cut == len(first) || cut == 0
		if cleanCut && !errors.Is(err, io.EOF) {
			t.Fatalf("cut %d: want EOF, got %v", cut, err)
		}
		if !cleanCut && !errors.Is(err, wire.ErrTruncated) {
			t.Fatalf("cut %d: want truncation, got %v", cut, err)
		}
	}
}

// TestRecordBitFlips flips every byte of a framed record in turn: the
// reader must fail with ErrCorrupt (or a truncation if the length field
// now overshoots), never panic, and never return the altered payload as
// valid.
func TestRecordBitFlips(t *testing.T) {
	payload := []byte("the payload under test")
	clean := appendRecord(nil, FormRun, payload)
	for i := range clean {
		mutated := append([]byte(nil), clean...)
		mutated[i] ^= 0x41
		rd := &reader{r: bytes.NewReader(mutated)}
		rec, err := rd.next()
		if err == nil {
			t.Fatalf("flip at %d: record accepted (type %d, %d bytes)", i, rec.typ, len(rec.payload))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err = %v", i, err)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	for _, seq := range []int64{0, 1, 1 << 40} {
		kind, base, err := decodeHeader(headerPayload(FormRun, seq))
		if err != nil || kind != FormRun || base != seq {
			t.Fatalf("seq %d: kind %d base %d err %v", seq, kind, base, err)
		}
	}
	bad := [][]byte{nil, []byte("xxxx"), []byte(magic), append([]byte(magic), 99, FormRun, 0)}
	for i, p := range bad {
		if _, _, err := decodeHeader(p); err == nil {
			t.Errorf("case %d: bad header accepted", i)
		}
	}
}

// sameRecord reports whether two records carry the same versions, tags and
// items.
func sameRecord(a, b Record) bool {
	if a.First != b.First || a.Origin != b.Origin || a.Seq != b.Seq || a.Kind != b.Kind || a.Rel != b.Rel ||
		a.Rep != b.Rep || a.Key.Kind() != b.Key.Kind() || len(a.Tuples) != len(b.Tuples) {
		return false
	}
	if a.Key.IsValid() && !a.Key.Equal(b.Key) {
		return false
	}
	for i := range a.Tuples {
		if !a.Tuples[i].Equal(b.Tuples[i]) {
			return false
		}
	}
	return true
}

// sameWrite reports whether a record's version carries tx, on every field
// replay applies and in its tag.
func sameWrite(got, tx core.Transaction) bool {
	return got.Origin == tx.Origin && got.Seq == tx.Seq && got.Kind == tx.Kind && got.Rel == tx.Rel && got.Rep == tx.Rep &&
		got.Key.Kind() == tx.Key.Kind() && (!tx.Key.IsValid() || got.Key.Equal(tx.Key)) && got.Tuple.Equal(tx.Tuple)
}

// writeRecord encodes the record of one committed write at version seq.
func writeRecord(t testing.TB, seq int64, tx core.Transaction) []byte {
	t.Helper()
	c := core.NewCommit(seq, tx, nil)
	var one [1]value.Tuple
	r, n := commitRecord(&c, 0, &one)
	if n != 1 {
		t.Fatalf("a single write made a record of %d versions", n)
	}
	payload, err := AppendRun(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// legacyPayload encodes tx at seq in the FormLegacy layout, source text
// included: the bytes segments held before FormRun, which nothing but this
// test helper writes any more.
func legacyPayload(seq int64, tx core.Transaction, text string) []byte {
	dst := binary.AppendVarint(nil, seq)
	dst = value.AppendString(dst, tx.Origin)
	dst = binary.AppendVarint(dst, int64(tx.Seq))
	dst = value.AppendString(dst, text)
	dst = append(dst, byte(tx.Kind))
	dst = value.AppendString(dst, tx.Rel)
	switch tx.Kind {
	case core.KindInsert:
		dst, _ = value.AppendTuple(dst, tx.Tuple)
	case core.KindDelete:
		dst, _ = value.AppendItem(dst, tx.Key)
	case core.KindCreate:
		dst = append(dst, byte(tx.Rep))
	}
	return dst
}

// TestTxnRecordRoundTrip: every write has one record form — a single write
// is a run of one — which decodes back to the write, tag included, and a
// custom transaction has none. An insert run the engine committed as one
// publication is one record wherever its tags step by one under one origin,
// and splits exactly where they do not.
func TestTxnRecordRoundTrip(t *testing.T) {
	txns := []core.Transaction{
		core.Insert("R", value.NewTuple(value.Int(1), value.Str("widget"))),
		core.Delete("R", value.Int(1)),
		core.Create("S", 2),
		{Kind: core.KindInsert, Rel: "R", Tuple: value.NewTuple(value.Int(7)), Origin: "repl", Seq: 3},
	}
	var dec Decoder // one stream: later records reuse earlier records' names
	for i, tx := range txns {
		got, err := dec.Decode(FormRun, writeRecord(t, int64(i+1), tx))
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		if got.First != int64(i+1) || got.Last() != int64(i+1) || !sameWrite(got.Txn(0), tx) {
			t.Fatalf("txn %d: round trip %+v -> %+v", i, tx, got)
		}
	}
	if _, err := AppendRun(nil, Record{Kind: core.KindCustom, Rel: "R"}); err == nil {
		t.Error("custom transaction encoded")
	}

	// One run of 40 whose tags break twice: another origin after 15, and a
	// jump in that origin's sequence after 10 more.
	var batch []core.Transaction
	for i := 0; i < 40; i++ {
		tx := core.Insert("P", value.NewTuple(value.Int(int64(i*7%23)), value.Str(fmt.Sprintf("v%d", i))))
		switch {
		case i < 15:
			tx.Origin, tx.Seq = "a", i
		case i < 25:
			tx.Origin, tx.Seq = "b", i-15
		default:
			tx.Origin, tx.Seq = "b", i+100
		}
		batch = append(batch, tx)
	}
	var commits []core.Commit
	e := core.NewEngine(database.New(relation.RepPaged, "P"), core.WithCommitObserver(func(c core.Commit) { commits = append(commits, c) }))
	e.SubmitBatch(batch, make([]*lenient.Cell[core.Response], len(batch)))
	e.Barrier()
	if len(commits) != 1 || commits[0].Run == nil {
		t.Fatalf("%d commits for one run", len(commits))
	}
	c := commits[0]
	var lens []int
	v := int64(1)
	for i := 0; i < len(batch); {
		var one [1]value.Tuple
		r, n := commitRecord(&c, i, &one)
		payload, err := AppendRun(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRecord(FormRun, payload)
		if err != nil || got.First != v || got.Count() != n {
			t.Fatalf("record at version %d: %d versions decode to %+v, %v", v, n, got, err)
		}
		for j := 0; j < n; j++ {
			if !sameWrite(got.Txn(j), batch[i+j]) {
				t.Fatalf("version %d carries %+v, want %+v", v+int64(j), got.Txn(j), batch[i+j])
			}
		}
		lens = append(lens, n)
		i += n
		v += int64(n)
	}
	if fmt.Sprint(lens) != "[15 10 15]" {
		t.Fatalf("the run's records cover %v versions, want [15 10 15]", lens)
	}
}

// TestPropertyDecodersNeverPanic mirrors TestPropertyDecodeNeverPanics in
// internal/value: arbitrary bytes through every archive decoder must yield
// errors, not panics.
func TestPropertyDecodersNeverPanic(t *testing.T) {
	f := func(buf []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %v: %v", buf, r)
				ok = false
			}
		}()
		rd := &reader{r: bytes.NewReader(buf)}
		for {
			if _, err := rd.next(); err != nil {
				break
			}
		}
		_, _ = DecodeRecord(FormRun, buf)
		_, _ = DecodeRecord(FormLegacy, buf)
		_, _, _ = decodeHeader(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMutatedTxnStreamNeverPanics frames random valid log records,
// runs among them, then corrupts the stream at a random position: reading
// must terminate with a clean result, never panic.
func TestPropertyMutatedTxnStreamNeverPanics(t *testing.T) {
	f := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic for seed %d: %v", seed, r)
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		buf := appendRecord(nil, recHeader, headerPayload(FormRun, 0))
		first := int64(1)
		for i := 0; i < 1+r.Intn(5); i++ {
			rec := Record{First: first, Origin: "o", Seq: i, Kind: core.KindInsert, Rel: "R"}
			for j := 0; j < 1+r.Intn(4); j++ {
				rec.Tuples = append(rec.Tuples, value.NewTuple(value.Int(r.Int63n(100)), value.Str("v")))
			}
			payload, err := AppendRun(nil, rec)
			if err != nil {
				return false
			}
			buf = appendRecord(buf, FormRun, payload)
			first = rec.Last() + 1
		}
		switch r.Intn(3) {
		case 0: // truncate
			buf = buf[:r.Intn(len(buf)+1)]
		case 1: // flip a byte
			buf[r.Intn(len(buf))] ^= byte(1 + r.Intn(255))
		case 2: // leave intact
		}
		rd := &reader{r: bytes.NewReader(buf)}
		for {
			rec, err := rd.next()
			if err != nil {
				return true
			}
			if rec.typ == FormRun {
				_, _ = DecodeRecord(FormRun, rec.payload)
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzReadRecord is the fuzz entry for the framed reader: any input must
// produce records or errors, never a panic, and any framed prefix must
// decode back to itself.
func FuzzReadRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendRecord(nil, FormRun, []byte("seed")))
	f.Add(appendRecord(appendRecord(nil, recHeader, headerPayload(FormRun, 3)), FormLegacy, []byte{1, 2, 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := &reader{r: bytes.NewReader(data)}
		for {
			rec, err := rd.next()
			if err != nil {
				break
			}
			// A valid frame must survive re-encoding.
			again := appendRecord(nil, rec.typ, rec.payload)
			if int64(len(again)) > rd.off {
				t.Fatalf("frame longer than consumed input")
			}
			_, _ = DecodeRecord(rec.typ, rec.payload)
		}
	})
}

// FuzzRunRecord is the record codec's fuzz target, for both forms:
//
//   - decoding any bytes never panics, and a hostile count cannot make it
//     allocate more than a small multiple of the payload — a count longer
//     than the payload could hold is refused before anything is sized by
//     it;
//   - a warm decoder accepts exactly what a fresh one accepts, and decodes
//     the same record;
//   - a record's span, read from its head alone, is the decoded record's;
//   - decode(encode(r)) == r for every record the decoder produces, legacy
//     ones re-encoded as runs, and re-encoding is a fixed point; a FormRun
//     payload re-encodes to itself, or strictly shorter when it used a
//     non-minimal varint that internal/value accepts.
//
// The seeds are runs of every kind and the FormLegacy records of the
// archive written at commit a872265.
func FuzzRunRecord(f *testing.F) {
	tu := func(k int64, s string) value.Tuple { return value.NewTuple(value.Int(k), value.Str(s)) }
	for _, r := range []Record{
		{First: 1, Origin: "c", Seq: 0, Kind: core.KindInsert, Rel: "R", Tuples: []value.Tuple{tu(1, "a")}},
		{First: 7, Origin: "bench-w0", Seq: 40, Kind: core.KindInsert, Rel: "parts", Tuples: []value.Tuple{tu(3, "x"), tu(1, "y"), tu(3, "z")}},
		{First: 9, Origin: "", Seq: -2, Kind: core.KindDelete, Rel: "R", Key: value.Str("k")},
		{First: 1 << 40, Origin: "o", Seq: 1, Kind: core.KindCreate, Rel: "S", Rep: relation.RepPaged},
	} {
		payload, err := AppendRun(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(FormRun, payload)
	}
	// A count no payload of this length could hold.
	f.Add(FormRun, binary.AppendUvarint(binary.AppendVarint(nil, 1), 1<<40))
	for i, payload := range fixtureLegacyRecords(f) {
		if i%25 == 0 {
			f.Add(FormLegacy, payload)
		}
	}
	f.Fuzz(func(t *testing.T, form byte, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := DecodeRecord(form, payload)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(payload))+1<<20 {
			t.Fatalf("form %d: a %d-byte payload made the decoder allocate %d bytes", form, len(payload), grew)
		}
		var dec Decoder
		for range 2 {
			warm, werr := dec.Decode(form, payload)
			if (err == nil) != (werr == nil) || (err == nil && !sameRecord(r, warm)) {
				t.Fatalf("form %d: a warm decoder diverged: %v vs %v", form, err, werr)
			}
		}
		if err != nil {
			return
		}
		if first, last, serr := recordSpan(form, payload); serr != nil || first != r.First || last != r.Last() {
			t.Fatalf("form %d: span %d..%d (%v), the record covers %d..%d", form, first, last, serr, r.First, r.Last())
		}
		enc, err := AppendRun(nil, r)
		if err != nil {
			t.Fatalf("form %d: a decoded record does not encode: %v", form, err)
		}
		back, err := DecodeRecord(FormRun, enc)
		if err != nil || !sameRecord(r, back) {
			t.Fatalf("form %d: decode(encode(r)) = %+v, %v; r = %+v", form, back, err, r)
		}
		if again, err := AppendRun(nil, back); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("form %d: re-encoding is not a fixed point: %v", form, err)
		}
		if form == FormRun && !bytes.Equal(enc, payload) && len(enc) >= len(payload) {
			t.Fatalf("an accepted run re-encodes differently:\n got %x\nwant %x", enc, payload)
		}
	})
}

// TestTxnFrameMatchesRecord: framing a record in place writes the bytes
// wire.AppendFrame(AppendRun) writes — one frame format for every record — and
// a write with no record form leaves the buffer as it was.
func TestTxnFrameMatchesRecord(t *testing.T) {
	for _, typ := range []byte{recHeader, FormSnapshot, FormLegacy, FormRun, 0, 255} {
		body := []byte("payload bytes")
		if got, want := recordCRC(typ, body), crc32.ChecksumIEEE(append([]byte{typ}, body...)); got != want {
			t.Fatalf("recordCRC(%d) = %08x, IEEE over type+payload = %08x", typ, got, want)
		}
	}
	prefix := []byte("earlier records")
	for i, r := range []Record{
		{First: 1, Kind: core.KindInsert, Rel: "R", Tuples: []value.Tuple{value.NewTuple(value.Int(1), value.Str(strings.Repeat("w", 300)))}},
		{First: 2, Kind: core.KindDelete, Rel: "R", Key: value.Int(1)},
		{First: 3, Kind: core.KindCreate, Rel: "S", Rep: 2},
		{First: 4, Origin: "repl", Seq: 3, Kind: core.KindInsert, Rel: "R", Tuples: []value.Tuple{value.NewTuple(value.Int(7)), value.NewTuple(value.Int(8))}},
	} {
		payload, err := AppendRun(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		want := appendRecord(append([]byte(nil), prefix...), FormRun, payload)
		got, gotPayload, err := appendRunFrame(append([]byte(nil), prefix...), r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("record %d: framed in place\n%x\nwant\n%x", i, got, want)
		}
		if !bytes.Equal(gotPayload, payload) {
			t.Errorf("record %d: payload view %x, want %x", i, gotPayload, payload)
		}
	}
	got, _, err := appendRunFrame(prefix, Record{Kind: core.KindCustom, Rel: "R"})
	if err == nil || !bytes.Equal(got, prefix) {
		t.Errorf("custom transaction: err %v, buffer %q", err, got)
	}
}

// TestDecodeRecordAllocGate: a record is structural only. Decoding one
// allocates its fields and nothing else — its tuple, its origin and
// relation name, and the slice holding its tuple — with no string for
// source text, because there is none. A FormLegacy record still carries its
// text — a statement as typed, or a prepared write's '?' template — which is
// skipped, never parsed: decoding it costs at most one allocation more, no
// lex, no parse, and for a template no SyntaxError and formatted message.
// On a stream's warm decoder, whose names are interned and whose tuple
// slice is reused, a record costs its tuple alone.
func TestDecodeRecordAllocGate(t *testing.T) {
	tx := core.Insert("parts", value.NewTuple(value.Int(7), value.Str("widget")))
	tx.Origin, tx.Seq = "client-3", 41
	tb, err := value.AppendTuple(nil, tx.Tuple)
	if err != nil {
		t.Fatal(err)
	}
	tuple := testing.AllocsPerRun(200, func() {
		if _, _, err := value.DecodeTuple(tb); err != nil {
			t.Fatal(err)
		}
	})
	bare := tuple + 3
	decode := func(form byte, payload []byte) func() {
		return func() {
			if _, err := DecodeRecord(form, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	structural := writeRecord(t, 9, tx)
	if got := testing.AllocsPerRun(200, decode(FormRun, structural)); got != bare {
		t.Errorf("decoding a structural record = %.1f allocs, want %.1f: its tuple, origin, relation and tuple slice", got, bare)
	}

	for _, src := range []string{"insert (?, ?) into parts", `insert (7, "widget") into parts`} {
		payload := legacyPayload(9, tx, src)
		got, err := DecodeRecord(FormLegacy, payload)
		if err != nil {
			t.Fatal(err)
		}
		if got.First != 9 || got.Count() != 1 || !sameWrite(got.Txn(0), tx) {
			t.Fatalf("decoded %+v, want %+v", got, tx)
		}
		if allocs := testing.AllocsPerRun(200, decode(FormLegacy, payload)); allocs > bare+1 {
			t.Errorf("decoding a legacy record with text %q = %.1f allocs, %.1f for a structural one: the text was parsed", src, allocs, bare)
		}
	}

	var dec Decoder
	warm := testing.AllocsPerRun(200, func() {
		if got, err := dec.Decode(FormRun, structural); err != nil || got.Origin != tx.Origin || got.Rel != tx.Rel {
			t.Fatalf("warm decode: %+v, %v", got, err)
		}
	})
	if warm != tuple {
		t.Errorf("decoding on a warm decoder = %.1f allocs, want the tuple's own %.1f", warm, tuple)
	}
}

// TestTxnDecoderBounded: a stream with more distinct names than the decoder
// keeps still decodes every record exactly; the decoder just stops growing.
func TestTxnDecoderBounded(t *testing.T) {
	var dec Decoder
	for round := 0; round < 2; round++ {
		for i := 0; i < 2*internedNames; i++ {
			tx := core.Delete(fmt.Sprintf("R%d", i), value.Int(int64(i)))
			tx.Origin, tx.Seq = fmt.Sprintf("client-%d", i), i
			got, err := dec.Decode(FormRun, writeRecord(t, int64(i+1), tx))
			if err != nil {
				t.Fatal(err)
			}
			if got.First != int64(i+1) || !sameWrite(got.Txn(0), tx) {
				t.Fatalf("round %d record %d decodes to %+v, want %+v", round, i, got, tx)
			}
		}
		if len(dec.names) != internedNames {
			t.Fatalf("round %d: decoder keeps %d names, want its bound %d", round, len(dec.names), internedNames)
		}
	}
}

// TestStructuralReplayIsTextReplay: for every valid write in the query
// fuzz corpora, the write its log record decodes to — its structural
// fields, taken as stored — is the transaction translating its source text
// gives, on every field replay applies. The record keeps no text, and
// replaying it replays the same thing.
func TestStructuralReplayIsTextReplay(t *testing.T) {
	var srcs []string
	for _, dir := range []string{"FuzzPrepare", "FuzzTranslateCached"} {
		root := filepath.Join("..", "query", "testdata", "fuzz", dir)
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(root, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			// `go test fuzz v1` corpus file, one string argument.
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			if len(lines) != 2 || !strings.HasPrefix(lines[1], "string(") {
				t.Fatalf("%s/%s is not a one-string corpus entry", dir, e.Name())
			}
			src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
			if err != nil {
				t.Fatalf("%s/%s: %v", dir, e.Name(), err)
			}
			srcs = append(srcs, src)
		}
	}
	srcs = append(srcs,
		`insert (1, "widget", -3) into R`, `insert x into R`, `insert ("a\"b") into R`,
		`delete 7 from R`, `delete "k" from R`, `delete k from R`,
		`create R`, `create R using avl`, `create R using 2-3`, `create R using paged`)

	writes := 0
	for _, src := range srcs {
		tx, err := query.Translate(src)
		if err != nil || !encodable(tx) {
			continue
		}
		writes++
		tx.Origin, tx.Seq = "c1", writes
		payload := writeRecord(t, int64(writes), tx)
		if bytes.Contains(payload, []byte(src)) && len(src) > 8 {
			t.Errorf("%q: the record carries the source text", src)
		}
		got, err := DecodeRecord(FormRun, payload)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got.First != int64(writes) || !sameWrite(got.Txn(0), tx) {
			t.Errorf("%q: record decodes to %+v, text translates to %+v", src, got.Txn(0), tx)
		}
	}
	if writes < 12 {
		t.Fatalf("only %d valid writes in the corpora: the test is not testing much", writes)
	}
}
