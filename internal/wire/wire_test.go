package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/value"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xAB}, 4096)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, FrameResponse+byte(i%3), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadFrame(&buf, MaxFrameLen)
		if err != nil {
			t.Fatal(err)
		}
		if typ != FrameResponse+byte(i%3) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: type %#x, %d bytes", i, typ, len(got))
		}
	}
	if _, _, err := ReadFrame(&buf, MaxFrameLen); err != io.EOF {
		t.Errorf("end of stream: %v", err)
	}
}

func TestFrameDetectsCorruption(t *testing.T) {
	frame, err := AppendFrame(nil, FrameRequest, []byte("payload bytes"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip every byte in turn: each corruption must surface as an error,
	// never as a silently different frame.
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x01
		_, payload, err := ReadFrame(bytes.NewReader(mut), MaxFrameLen)
		if err == nil && bytes.Equal(payload, []byte("payload bytes")) {
			continue // flip in a redundant length bit can still checksum-fail below; equality means missed corruption
		}
		if err == nil {
			t.Fatalf("flip at %d: corrupt frame decoded as %q", i, payload)
		}
	}
	// Truncation at every boundary.
	for cut := 1; cut < len(frame); cut++ {
		if _, _, err := ReadFrame(bytes.NewReader(frame[:cut]), MaxFrameLen); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestFrameRefusesOversize(t *testing.T) {
	if _, err := AppendFrame(nil, FrameRequest, make([]byte, MaxFrameLen+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize append: %v", err)
	}
	// An oversize length field is refused before allocation.
	hdr := []byte{FrameRequest, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(hdr), MaxFrameLen); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize length field: %v", err)
	}
}

func TestHelloWelcomeRoundTrip(t *testing.T) {
	h, err := DecodeHello(AppendHello(nil, Hello{Origin: "c3"}))
	if err != nil || h.Origin != "c3" || h.Database != "" {
		t.Fatalf("hello: %+v, %v", h, err)
	}
	h, err = DecodeHello(AppendHello(nil, Hello{Origin: "c3", Database: "aux"}))
	if err != nil || h.Origin != "c3" || h.Database != "aux" {
		t.Fatalf("hello with database: %+v, %v", h, err)
	}
	w, err := DecodeWelcome(AppendWelcome(nil, Welcome{Lanes: 8, Durable: true, Origin: "conn1", Database: "aux"}))
	if err != nil || w.Lanes != 8 || !w.Durable || w.Origin != "conn1" || w.Database != "aux" {
		t.Fatalf("welcome: %+v, %v", w, err)
	}
	if _, err := DecodeHello([]byte("not magic")); err == nil {
		t.Error("bad magic accepted")
	}
	for _, ver := range []byte{1, 5, 99} { // retired and future revisions
		bad := AppendHello(nil, Hello{})
		bad[len(Magic)] = ver
		if _, err := DecodeHello(bad); err == nil {
			t.Errorf("protocol version %d accepted", ver)
		}
	}
}

// TestForwardRoundTrip: a tagged request — what cluster clients and
// peers send — round-trips its flags, epoch and every statement's tag.
func TestForwardRoundTrip(t *testing.T) {
	stmts := []Stmt{
		{Origin: "c0", Seq: 0, Text: "insert (1, \"a\") into R", HasText: true},
		{Origin: "c0", Seq: 1, Hash: 42, Text: "find ? in R", HasText: true, Args: samplePreparedArgs()[:1]},
		{Origin: "gw", Seq: -3, Hash: 42, Args: samplePreparedArgs()[:1]},
	}
	const flags = FwdTagged | FwdNoForward | FwdReadLocal | FwdEpoch
	var r Request
	if err := DecodeRequestInto(must(AppendRequest(nil, 77, flags, 5, stmts)), &r); err != nil ||
		r.ID != 77 || r.Flags != flags || r.Epoch != 5 {
		t.Fatalf("tagged request: id %d flags %#x epoch %d, %v", r.ID, r.Flags, r.Epoch, err)
	}
	sameStmts(t, r.Stmts, stmts)
	if err := DecodeRequestInto([]byte{}, &r); err == nil {
		t.Error("empty payload accepted")
	}
}

func TestRedirectSubscribeRoundTrip(t *testing.T) {
	id, addr, rel, epoch, err := DecodeRedirect(AppendRedirect(nil, 9, "127.0.0.1:4151", "parts", 3))
	if err != nil || id != 9 || addr != "127.0.0.1:4151" || rel != "parts" || epoch != 3 {
		t.Fatalf("redirect: %d %q %q %d %v", id, addr, rel, epoch, err)
	}
	if _, _, _, _, err := DecodeRedirect([]byte{}); err == nil {
		t.Error("empty redirect accepted")
	}
	after, slot, sub, err := DecodeSubscribe(AppendSubscribe(nil, 123456, 2, 0))
	if err != nil || after != 123456 || slot != 2 || sub != 0 {
		t.Fatalf("subscribe: %d %d %d %v", after, slot, sub, err)
	}
	if _, _, _, err := DecodeSubscribe([]byte{}); err == nil {
		t.Error("empty subscribe accepted")
	}
	if _, _, _, err := DecodeSubscribe(append(AppendSubscribe(nil, 1, 0, 1), 0)); err == nil {
		t.Error("trailing subscribe bytes accepted")
	}
}

// TestExecBatchPayloads: untagged text requests — a plain client's Exec
// and ExecBatch — round-trip their statements with empty tags.
func TestExecBatchPayloads(t *testing.T) {
	for _, qs := range [][]string{{"find 1 in R"}, {"create R", `insert (1, "a") into R`, "count R"}} {
		stmts := make([]Stmt, len(qs))
		for i, q := range qs {
			stmts[i] = Stmt{Text: q, HasText: true}
		}
		var r Request
		if err := DecodeRequestInto(must(AppendRequest(nil, 42, 0, 0, stmts)), &r); err != nil || r.ID != 42 || r.Flags != 0 {
			t.Fatalf("untagged request: id %d flags %#x, %v", r.ID, r.Flags, err)
		}
		sameStmts(t, r.Stmts, stmts)
	}
	id, idx, msg, err := DecodeErrorMsg(AppendErrorMsg(nil, 9, 2, "boom"))
	if err != nil || id != 9 || idx != 2 || msg != "boom" {
		t.Fatalf("error: %d %d %q %v", id, idx, msg, err)
	}
	if _, _, _, err := DecodeErrorMsg([]byte{}); err == nil {
		t.Error("empty error payload accepted")
	}
}

// sampleResponses covers every shape a response can take, among them one
// without a string, one with both an error and a note, and one whose
// tuples' arities vary.
func sampleResponses() []core.Response {
	tup := value.NewTuple(value.Int(1), value.Str("widget"))
	return []core.Response{
		{Origin: "c0", Seq: 0, Kind: core.KindInsert, Tuple: tup},
		{Origin: "c0", Seq: 1, Kind: core.KindFind, Found: true, Tuple: tup},
		{Origin: "c0", Seq: 2, Kind: core.KindFind, Found: false},
		{Origin: "c0", Seq: 3, Kind: core.KindDelete, Found: true},
		{Origin: "repl", Seq: 4, Kind: core.KindScan, Count: 2,
			Tuples: []value.Tuple{tup, value.NewTuple(value.Int(2))}},
		{Origin: "c1", Seq: 5, Kind: core.KindCount, Count: 17},
		{Origin: "c1", Seq: 6, Kind: core.KindRange, Count: 0},
		{Origin: "c1", Seq: 7, Kind: core.KindCreate},
		{Origin: "c1", Seq: 8, Kind: core.KindFind,
			Err: errors.New(`database: no such relation "NOPE"`)},
		{Origin: "c2", Seq: 9, Kind: core.KindCustom, Note: "moved 3 tuples"},
		{Origin: "c2", Seq: 10, Kind: core.KindScan, Version: 12},
		{Kind: core.KindFind, Found: true, Tuple: value.NewTuple(value.Int(3), value.Int(-3))},
		{Origin: "c3", Seq: 12, Kind: core.KindCustom, Err: errors.New("custom: refused"), Note: "half done"},
		{Origin: "c3", Seq: 13, Kind: core.KindScan, Count: 4, Tuples: []value.Tuple{
			value.NewTuple(value.Int(1)),
			value.NewTuple(value.Int(2), value.Str("b"), value.Str("")),
			value.NewTuple(value.Str("c"), value.Int(3)),
			value.NewTuple(value.Int(4), value.Str("d"), value.Int(5), value.Str("e"), value.Int(6)),
		}},
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for i, r := range sampleResponses() {
		buf, err := appendResponse(nil, r)
		if err != nil {
			t.Fatalf("resp %d: %v", i, err)
		}
		var b value.Block
		b.Reset(buf)
		got, rest, err := decodeResponse(&b, buf, 1)
		if err != nil || len(rest) != 0 {
			t.Fatalf("resp %d: %v (%d trailing)", i, err, len(rest))
		}
		// The round trip must render byte-identically: String() is the
		// client-observable form the equivalence harness compares.
		if got.String() != r.String() {
			t.Errorf("resp %d: %q != %q", i, got.String(), r.String())
		}
		if got.Version != r.Version || got.Count != r.Count || got.Found != r.Found || got.Note != r.Note {
			t.Errorf("resp %d fields: %+v vs %+v", i, got, r)
		}
	}
}

func TestResponsesBatchRoundTrip(t *testing.T) {
	resps := sampleResponses()
	buf, err := AppendResponses(nil, 1234, resps)
	if err != nil {
		t.Fatal(err)
	}
	id, got, err := DecodeResponses(buf)
	if err != nil || id != 1234 || len(got) != len(resps) {
		t.Fatalf("batch decode: id %d, %d resps, %v", id, len(got), err)
	}
	for i := range resps {
		if got[i].String() != resps[i].String() || got[i].Note != resps[i].Note {
			t.Errorf("resp %d: %q != %q", i, got[i].String(), resps[i].String())
		}
	}

	sbuf, err := AppendSingleResponse(nil, 5, resps[0])
	if err != nil {
		t.Fatal(err)
	}
	sid, sresp, err := DecodeSingleResponse(sbuf)
	if err != nil || sid != 5 || sresp.String() != resps[0].String() {
		t.Fatalf("single: %d %q %v", sid, sresp.String(), err)
	}
}

// FuzzReadFrame: arbitrary byte streams must never panic the frame
// reader.
func FuzzReadFrame(f *testing.F) {
	good, _ := AppendFrame(nil, FrameRequest, []byte("find 1 in R"))
	f.Add(good)
	f.Add([]byte{FrameRequest, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			_, _, err := ReadFrame(r, MaxFrameLen)
			if err != nil {
				break
			}
		}
	})
}
