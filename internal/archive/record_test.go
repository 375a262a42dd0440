package archive

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"funcdb/internal/core"
	"funcdb/internal/query"
	"funcdb/internal/value"
	"funcdb/internal/wire"
)

// recordCRC is the archive records' checksum: the wire's frame CRC.
var recordCRC = wire.FrameCRC

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
	first := appendRecord(nil, recTxn, []byte("first payload"))
	full := appendRecord(first, recTxn, []byte("second payload"))
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
			if rec.typ != recTxn {
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
	clean := appendRecord(nil, recTxn, payload)
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
		kind, base, err := decodeHeader(headerPayload(recTxn, seq))
		if err != nil || kind != recTxn || base != seq {
			t.Fatalf("seq %d: kind %d base %d err %v", seq, kind, base, err)
		}
	}
	bad := [][]byte{nil, []byte("xxxx"), []byte(magic), append([]byte(magic), 99, recTxn, 0)}
	for i, p := range bad {
		if _, _, err := decodeHeader(p); err == nil {
			t.Errorf("case %d: bad header accepted", i)
		}
	}
}

func TestTxnRecordRoundTrip(t *testing.T) {
	txns := []core.Transaction{
		core.Insert("R", value.NewTuple(value.Int(1), value.Str("widget"))),
		core.Delete("R", value.Int(1)),
		core.Create("S", 2),
		{Kind: core.KindInsert, Rel: "R", Tuple: value.NewTuple(value.Int(7)), Origin: "repl", Seq: 3, Query: `insert 7 into R`},
	}
	var dec TxnDecoder // one stream: later records reuse earlier records' names
	for i, tx := range txns {
		payload, err := appendTxn(nil, int64(i+1), tx)
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		got, err := dec.decode(payload)
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		if got.Seq != int64(i+1) || got.Tx.Kind != tx.Kind || got.Tx.Rel != tx.Rel {
			t.Fatalf("txn %d: round trip %+v -> %+v", i, tx, got.Tx)
		}
		if got.Tx.Origin != tx.Origin || got.Tx.Seq != tx.Seq || got.Tx.Query != tx.Query {
			t.Fatalf("txn %d: tag lost: %+v", i, got.Tx)
		}
		if tx.Kind == core.KindInsert && !got.Tx.Tuple.Equal(tx.Tuple) {
			t.Fatalf("txn %d: tuple %v -> %v", i, tx.Tuple, got.Tx.Tuple)
		}
	}
	if _, err := appendTxn(nil, 1, core.Custom(nil, nil, []string{"R"})); err == nil {
		t.Error("custom transaction encoded")
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
		_, _, _ = DecodeTxnRecord(buf)
		_, _, _ = decodeHeader(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMutatedTxnStreamNeverPanics frames random valid transaction
// records, then corrupts the stream at a random position: reading must
// terminate with a clean result, never panic.
func TestPropertyMutatedTxnStreamNeverPanics(t *testing.T) {
	f := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic for seed %d: %v", seed, r)
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		buf := appendRecord(nil, recHeader, headerPayload(recTxn, 0))
		for i := 0; i < 1+r.Intn(5); i++ {
			tx := core.Insert("R", value.NewTuple(value.Int(r.Int63n(100)), value.Str("v")))
			payload, err := appendTxn(nil, int64(i+1), tx)
			if err != nil {
				return false
			}
			buf = appendRecord(buf, recTxn, payload)
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
			if rec.typ == recTxn {
				_, _, _ = DecodeTxnRecord(rec.payload)
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
	f.Add(appendRecord(nil, recTxn, []byte("seed")))
	f.Add(appendRecord(appendRecord(nil, recHeader, headerPayload(recTxn, 3)), recTxn, []byte{1, 2, 3}))
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
			if rec.typ == recTxn {
				_, _, _ = DecodeTxnRecord(rec.payload)
			}
		}
	})
}

// TestTxnFrameMatchesRecord: framing a transaction in place writes the
// bytes appendRecord(appendTxn) writes — the log format did not move — and
// a transaction with no wire form leaves the buffer as it was.
func TestTxnFrameMatchesRecord(t *testing.T) {
	for _, typ := range []byte{recHeader, recSnapshot, recTxn, 0, 255} {
		body := []byte("payload bytes")
		if got, want := recordCRC(typ, body), crc32.ChecksumIEEE(append([]byte{typ}, body...)); got != want {
			t.Fatalf("recordCRC(%d) = %08x, IEEE over type+payload = %08x", typ, got, want)
		}
	}
	prefix := []byte("earlier records")
	for i, tx := range []core.Transaction{
		core.Insert("R", value.NewTuple(value.Int(1), value.Str(strings.Repeat("w", 300)))),
		core.Delete("R", value.Int(1)),
		core.Create("S", 2),
		{Kind: core.KindInsert, Rel: "R", Tuple: value.NewTuple(value.Int(7)), Origin: "repl", Seq: 3, Query: `insert 7 into R`},
	} {
		payload, err := appendTxn(nil, int64(i+1), tx)
		if err != nil {
			t.Fatal(err)
		}
		want := appendRecord(append([]byte(nil), prefix...), recTxn, payload)
		got, gotPayload, err := appendTxnFrame(append([]byte(nil), prefix...), int64(i+1), tx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("txn %d: framed in place\n%x\nwant\n%x", i, got, want)
		}
		if !bytes.Equal(gotPayload, payload) {
			t.Errorf("txn %d: payload view %x, want %x", i, gotPayload, payload)
		}
	}
	got, _, err := appendTxnFrame(prefix, 1, core.Custom(nil, nil, []string{"R"}))
	if err == nil || !bytes.Equal(got, prefix) {
		t.Errorf("custom transaction: err %v, buffer %q", err, got)
	}
}

// TestDecodeRecordAllocGate: a record's structural fields are what replay
// applies; its source text — a statement as typed, or a prepared write's
// '?' template — is carried, never parsed. Decoding pays one string for
// the text and nothing else: no lex, no parse, and for a template no
// SyntaxError and formatted message per replicated record.
func TestDecodeRecordAllocGate(t *testing.T) {
	tx := core.Insert("parts", value.NewTuple(value.Int(7), value.Str("widget")))
	tx.Origin, tx.Seq = "client-3", 41
	bare, err := AppendTxnRecord(nil, 9, tx)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(payload []byte) func() {
		return func() {
			if _, _, err := DecodeTxnRecord(payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := testing.AllocsPerRun(200, decode(bare))

	for _, src := range []string{"insert (?, ?) into parts", `insert (7, "widget") into parts`} {
		tx.Query = src
		payload, err := AppendTxnRecord(nil, 9, tx)
		if err != nil {
			t.Fatal(err)
		}
		seq, got, err := DecodeTxnRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		if seq != 9 || got.Kind != tx.Kind || got.Rel != tx.Rel || !got.Tuple.Equal(tx.Tuple) ||
			got.Origin != tx.Origin || got.Seq != tx.Seq || got.Query != tx.Query {
			t.Fatalf("decoded %+v, want %+v", got, tx)
		}
		if allocs := testing.AllocsPerRun(200, decode(payload)); allocs > base+1 {
			t.Errorf("decoding a record with text %q = %.1f allocs, %.1f without source text: the text was parsed", src, allocs, base)
		}
	}

	// A stream's decoder has seen the record's origin and relation before:
	// it hands out the strings it kept instead of two fresh ones.
	var dec TxnDecoder
	warm := testing.AllocsPerRun(200, func() {
		if _, got, err := dec.Decode(bare); err != nil || got.Origin != tx.Origin || got.Rel != tx.Rel {
			t.Fatalf("warm decode: %+v, %v", got, err)
		}
	})
	if warm != base-2 {
		t.Errorf("decoding on a warm decoder = %.1f allocs, %.1f on none: want exactly two fewer", warm, base)
	}
}

// TestTxnDecoderBounded: a stream with more distinct names than the decoder
// keeps still decodes every record exactly; the decoder just stops growing.
func TestTxnDecoderBounded(t *testing.T) {
	var dec TxnDecoder
	for round := 0; round < 2; round++ {
		for i := 0; i < 2*internedNames; i++ {
			tx := core.Delete(fmt.Sprintf("R%d", i), value.Int(int64(i)))
			tx.Origin, tx.Seq = fmt.Sprintf("client-%d", i), i
			payload, err := AppendTxnRecord(nil, int64(i+1), tx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.decode(payload)
			if err != nil {
				t.Fatal(err)
			}
			if got.Seq != int64(i+1) || got.Tx.Rel != tx.Rel || got.Tx.Origin != tx.Origin || got.Tx.Seq != i || !got.Tx.Key.Equal(tx.Key) {
				t.Fatalf("round %d record %d decodes to %+v, want %+v", round, i, got.Tx, tx)
			}
		}
		if len(dec.names) != internedNames {
			t.Fatalf("round %d: decoder keeps %d names, want its bound %d", round, len(dec.names), internedNames)
		}
	}
}

// TestStructuralReplayIsTextReplay: for every valid write in the query
// fuzz corpora, the transaction a log record decodes to — its structural
// fields, taken as stored — is the transaction translating its source
// text gives, on every field replay applies. Not parsing on replay
// replays the same thing.
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
		if err != nil || !Encodable(tx) {
			continue
		}
		writes++
		tx.Origin, tx.Seq = "c1", writes
		payload, err := appendTxn(nil, int64(writes), tx)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		seq, got, err := DecodeTxnRecord(payload)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if seq != int64(writes) || got.Origin != tx.Origin || got.Seq != tx.Seq || got.Query != src ||
			got.Kind != tx.Kind || got.Rel != tx.Rel || got.Rep != tx.Rep ||
			got.Key.Kind() != tx.Key.Kind() || !got.Key.Equal(tx.Key) || !got.Tuple.Equal(tx.Tuple) {
			t.Errorf("%q: record decodes to %+v, text translates to %+v", src, got, tx)
		}
	}
	if writes < 12 {
		t.Fatalf("only %d valid writes in the corpora: the test is not testing much", writes)
	}
}
