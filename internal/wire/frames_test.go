package wire

import (
	"bytes"
	"encoding/hex"
	"runtime"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/reqtrace"
	"funcdb/internal/value"
)

// samplePreparedArgs is a representative positional-argument vector.
func samplePreparedArgs() []value.Item {
	return []value.Item{value.Int(42), value.Str("x"), value.Int(-7)}
}

// sampleHeartbeat is a representative 3-slot view after one promotion.
func sampleHeartbeat() Heartbeat {
	return Heartbeat{
		From:    1,
		Epochs:  []uint64{0, 1, 0},
		Owners:  []int{0, 2, 2},
		Applied: []int64{41, 7, -1},
		Bases:   []int64{0, 5, 0},
	}
}

// sampleTraceCtx is a representative propagated context: a non-trivial
// id, one forward hop behind it, sampled at the origin.
func sampleTraceCtx() reqtrace.Ctx {
	return reqtrace.Ctx{ID: 0x1122334455667788, Hop: 1, Sampled: true}
}

// frame is one (type, payload) pair.
type frame struct {
	typ     byte
	payload []byte
}

// goldenFrame is one row of the protocol's byte-level specification: the
// frames an encoder call produces and the exact bytes they must frame to.
type goldenFrame struct {
	name   string
	frames []frame
	want   string // hex of the framed stream
}

// must unwraps an encoder that can only fail on unencodable items.
func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// sampleRequests are the request shapes senders build: one text
// statement, a text batch, one by text hash, a hashed template carrying
// its text beside a hash-only one, a hash-only batch mixed with text, a
// tagged run claiming an epoch (first contact with text, then hash only),
// a tagged hash-only run, and the empty list.
func sampleRequests() map[string][]byte {
	args := samplePreparedArgs()
	return map[string][]byte{
		"text": must(AppendRequest(nil, 7, 0, 0, []Stmt{{Text: "count R", HasText: true}})),
		"batch": must(AppendRequest(nil, 7, 0, 0, []Stmt{
			{Text: "count R", HasText: true},
			{Text: "insert 1 into R", HasText: true},
		})),
		"by-hash": must(AppendRequest(nil, 11, 0, 0, []Stmt{{Hash: 17, Args: args}})),
		"hash-text": must(AppendRequest(nil, 13, 0, 0, []Stmt{
			{Hash: 7, Text: "find ? in R", HasText: true, Args: args[:1]},
			{Hash: 2},
		})),
		"hash-batch": must(AppendRequest(nil, 15, 0, 0, []Stmt{
			{Hash: 17, Args: args[:1]},
			{Text: "count R", HasText: true},
			{Hash: 17, Args: args[2:]},
		})),
		"tagged": must(AppendRequest(nil, 21, FwdTagged|FwdNoForward|FwdEpoch, 77, []Stmt{
			{Origin: "c0", Seq: 3, Hash: 7, Text: "count R", HasText: true},
			{Origin: "c0", Seq: 4, Hash: 9, Args: args[1:]},
		})),
		"tagged-hash": must(AppendRequest(nil, 23, FwdTagged|FwdNoForward|FwdReadLocal, 0, []Stmt{
			{Origin: "gw", Seq: -1, Hash: 9, Args: args[:1]},
		})),
		"empty": must(AppendRequest(nil, 9, 0, 0, nil)),
	}
}

// goldenFrames pins the version-10 encoding of every frame type. A traced
// request is two frames: the TraceCtx, then the request it annotates.
func goldenFrames() []goldenFrame {
	resps := sampleResponses()
	reqs := sampleRequests()
	traced := AppendTraceCtx(nil, sampleTraceCtx())
	return []goldenFrame{
		{"hello", []frame{{FrameHello, AppendHello(nil, Hello{Origin: "c0", Database: "aux"})}},
			"100c000000664442770a026330036175788b88286a"},
		{"welcome", []frame{{FrameWelcome, AppendWelcome(nil, Welcome{Lanes: 4, Durable: true, Origin: "conn1", Database: "main"})}},
			"110e0000000a080105636f6e6e31046d61696e1cbaa44b"},
		{"response", []frame{{FrameResponse, must(AppendSingleResponse(nil, 5, resps[1]))}},
			"1414000000050263300201090000020102020677696467657401cd036f"},
		{"batch-response", []frame{{FrameBatchResponse, must(AppendResponses(nil, 9, []core.Response{resps[4], resps[8], resps[9]}))}},
			"155c0000000903047265706c080410040002020102020677696467657401010402633110010200002164617461626173653a206e6f20737563682072656c6174696f6e20224e4f50452202633212080400000e6d6f7665642033207475706c6573fadffd18"},
		{"error", []frame{{FrameError, AppendErrorMsg(nil, 9, 2, "boom")}},
			"1607000000090404626f6f6dd89fbd27"},
		{"quit", []frame{{FrameQuit, nil}},
			"17000000004a6ad151"},
		{"redirect", []frame{{FrameRedirect, AppendRedirect(nil, 5, "h:1", "R", 2)}},
			"19080000000503683a31015202647282bf"},
		{"subscribe", []frame{{FrameSubscribe, AppendSubscribe(nil, 41, 2, 0)}},
			"1a030000005204003d57b415"},
		{"log-record", []frame{{FrameLogRecord, AppendLogRecord(nil, 3, 4, []byte("record"))}},
			"1b0800000003047265636f7264c0d5aa98"},
		{"log-record-snapshot", []frame{{FrameLogRecord, AppendLogRecord(nil, 3, 2, []byte("snapshot"))}},
			"1b0a0000000302736e617073686f74baabfe6a"},
		{"introspect", []frame{{FrameIntrospect, AppendIntrospect(nil, 42, IntrospectTraces)}},
			"1c020000002a01b87f11f2"},
		{"introspect-response", []frame{{FrameIntrospectResponse, AppendIntrospectResponse(nil, 42, []byte(`{"lanes":8}`))}},
			"1d0c0000002a7b226c616e6573223a387db7e2ca19"},
		{"heartbeat", []frame{{FrameHeartbeat, AppendHeartbeat(nil, sampleHeartbeat())}},
			"1e0e00000002030000520001040e0a000401000abecac9"},
		{"heartbeat-ack", []frame{{FrameHeartbeatAck, AppendHeartbeat(nil, Heartbeat{From: 2})}},
			"1f0200000004005bf8578c"},
		{"sub-ack", []frame{{FrameSubAck, AppendSubAck(nil, 41)}},
			"20010000005285063851"},
		{"request-text", []frame{{FrameRequest, reqs["text"]}},
			"261800000007000001000000000000000000000107636f756e742052001c1eb11d"},
		{"request-batch", []frame{{FrameRequest, reqs["batch"]}},
			"263400000007000002000000000000000000000107636f756e7420520000000000000000000000010f696e73657274203120696e746f205200e9968d5d"},
		{"request-by-hash", []frame{{FrameRequest, reqs["by-hash"]}},
			"26170000000b0000010000110000000000000000030154020178010dce73352e"},
		{"request-hash-text", []frame{{FrameRequest, reqs["hash-text"]}},
			"262a0000000d00000200000700000000000000010b66696e64203f20696e2052010154000002000000000000000000fc3f0544"},
		{"request-hash-batch", []frame{{FrameRequest, reqs["hash-batch"]}},
			"26340000000f0000030000110000000000000000010154000000000000000000000107636f756e74205200000011000000000000000001010d5966fa59"},
		{"request-tagged", []frame{{FrameRequest, reqs["tagged"]}},
			"262d000000150d4d020263300607000000000000000107636f756e742052000263300809000000000000000002020178010d394d73cd"},
		{"request-tagged-hash", []frame{{FrameRequest, reqs["tagged-hash"]}},
			"2614000000170b000102677701090000000000000000010154dce3ffe9"},
		{"request-empty", []frame{{FrameRequest, reqs["empty"]}},
			"2604000000090000003362abf5"},
		{"traced-request", []frame{{FrameTraceCtx, traced}, {FrameRequest, reqs["by-hash"]}},
			"290a0000008877665544332211010172ada49b26170000000b0000010000110000000000000000030154020178010dce73352e"},
	}
}

// retiredFrame reports the frame types of retired protocol revisions:
// never sent, and refused by every receiver. 0x22 and 0x23 were Prepare
// and Prepared, retired with dense statement ids.
func retiredFrame(typ byte) bool {
	switch typ {
	case 0x12, 0x13, 0x18, 0x21, 0x22, 0x23, 0x24, 0x25, 0x27, 0x28:
		return true
	}
	return false
}

// TestGoldenFrames is the protocol's byte-level specification: every frame
// type's encoding is pinned, and every pinned payload decodes and
// re-encodes to exactly itself. A change here is a protocol change.
func TestGoldenFrames(t *testing.T) {
	seen := map[byte]bool{}
	for _, g := range goldenFrames() {
		var got []byte
		for _, fr := range g.frames {
			var err error
			if got, err = AppendFrame(got, fr.typ, fr.payload); err != nil {
				t.Fatal(err)
			}
			seen[fr.typ] = true
			if rt := frameCodecs[fr.typ]; rt != nil {
				again, err := rt(fr.payload, &scratch{})
				if err != nil || !bytes.Equal(again, fr.payload) {
					t.Errorf("%s: frame %#x does not round-trip: %v\n got %x\nwant %x", g.name, fr.typ, err, again, fr.payload)
				}
			}
		}
		if h := hex.EncodeToString(got); h != g.want {
			t.Errorf("%s: encoding changed:\n got %s\nwant %s", g.name, h, g.want)
		}
	}
	for typ := FrameHello; typ <= FrameTraceCtx; typ++ {
		if seen[typ] == retiredFrame(typ) {
			t.Errorf("frame type %#x: golden row present=%v, retired=%v", typ, seen[typ], retiredFrame(typ))
		}
		if retiredFrame(typ) && frameCodecs[typ] != nil {
			t.Errorf("retired frame type %#x still has a codec", typ)
		}
	}
}

// scratch is the decode scratch a connection reuses.
type scratch struct {
	req Request
}

// warmScratch is scratch a connection has used before: stale contents and
// spare capacity that a decode must neither read nor leak.
func warmScratch() *scratch {
	sc := &scratch{req: Request{
		ID: 99, Flags: 0xff, Epoch: 99,
		Stmts: make([]Stmt, 4, 16),
		items: make([]value.Item, 8, 64),
	}}
	for i := range sc.req.items {
		sc.req.items[i] = value.Int(int64(1000 + i))
	}
	for i := range sc.req.Stmts {
		sc.req.Stmts[i] = Stmt{Origin: "stale", Hash: 99, Text: "stale", HasText: true, Args: sc.req.items[:3], nargs: 3}
	}
	return sc
}

// frameCodecs is the table FuzzFrames drives: for every frame type with a
// payload, decode (into sc's scratch) and re-encode what was decoded.
var frameCodecs = map[byte]func(p []byte, sc *scratch) ([]byte, error){
	FrameHello: func(p []byte, _ *scratch) ([]byte, error) {
		h, err := DecodeHello(p)
		return AppendHello(nil, h), err
	},
	FrameWelcome: func(p []byte, _ *scratch) ([]byte, error) {
		w, err := DecodeWelcome(p)
		return AppendWelcome(nil, w), err
	},
	FrameResponse: func(p []byte, _ *scratch) ([]byte, error) {
		id, r, err := DecodeSingleResponse(p)
		if err != nil {
			return nil, err
		}
		return AppendSingleResponse(nil, id, r)
	},
	FrameBatchResponse: func(p []byte, _ *scratch) ([]byte, error) {
		id, rs, err := DecodeResponses(p)
		if err != nil {
			return nil, err
		}
		return AppendResponses(nil, id, rs)
	},
	FrameError: func(p []byte, _ *scratch) ([]byte, error) {
		id, idx, msg, err := DecodeErrorMsg(p)
		return AppendErrorMsg(nil, id, idx, msg), err
	},
	FrameRedirect: func(p []byte, _ *scratch) ([]byte, error) {
		id, addr, rel, epoch, err := DecodeRedirect(p)
		return AppendRedirect(nil, id, addr, rel, epoch), err
	},
	FrameSubscribe: func(p []byte, _ *scratch) ([]byte, error) {
		after, slot, sub, err := DecodeSubscribe(p)
		return AppendSubscribe(nil, after, slot, sub), err
	},
	FrameLogRecord: func(p []byte, _ *scratch) ([]byte, error) {
		epoch, form, rec, err := DecodeLogRecord(p)
		return AppendLogRecord(nil, epoch, form, rec), err
	},
	FrameIntrospect: func(p []byte, _ *scratch) ([]byte, error) {
		id, kind, err := DecodeIntrospect(p)
		return AppendIntrospect(nil, id, kind), err
	},
	FrameIntrospectResponse: func(p []byte, _ *scratch) ([]byte, error) {
		id, doc, err := DecodeIntrospectResponse(p)
		return AppendIntrospectResponse(nil, id, doc), err
	},
	FrameHeartbeat:    heartbeatRoundTrip,
	FrameHeartbeatAck: heartbeatRoundTrip,
	FrameSubAck: func(p []byte, _ *scratch) ([]byte, error) {
		seq, err := DecodeSubAck(p)
		return AppendSubAck(nil, seq), err
	},
	FrameRequest: func(p []byte, sc *scratch) ([]byte, error) {
		r := &sc.req
		if err := DecodeRequestInto(p, r); err != nil {
			return nil, err
		}
		return AppendRequest(nil, r.ID, r.Flags, r.Epoch, r.Stmts)
	},
	FrameTraceCtx: func(p []byte, _ *scratch) ([]byte, error) {
		c, err := DecodeTraceCtx(p)
		return AppendTraceCtx(nil, c), err
	},
}

func heartbeatRoundTrip(p []byte, _ *scratch) ([]byte, error) {
	hb, err := DecodeHeartbeat(p)
	return AppendHeartbeat(nil, hb), err
}

// checkFrame holds FuzzFrames' invariants for one (type, payload):
//
//   - decoding never panics, and a hostile count cannot make it allocate
//     more than a small multiple of the payload;
//   - decoding into warm scratch accepts exactly what decoding into nil
//     scratch accepts, and yields the same frame;
//   - an accepted payload re-encodes to the same bytes. The one
//     exception is a non-minimal varint inside a value-codec string, item
//     or tuple, which internal/value accepts: that payload re-encodes
//     strictly shorter, to a fixed point.
func checkFrame(t *testing.T, typ byte, payload []byte) {
	rt := frameCodecs[typ]
	if rt == nil {
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fresh, err := rt(payload, &scratch{})
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(payload))+1<<20 {
		t.Fatalf("frame %#x: %d-byte payload made the decoder allocate %d bytes", typ, len(payload), grew)
	}
	warm, werr := rt(payload, warmScratch())
	if (err == nil) != (werr == nil) || !bytes.Equal(fresh, warm) {
		t.Fatalf("frame %#x: warm-scratch decode diverged: %v vs %v\n%x\n%x", typ, err, werr, fresh, warm)
	}
	if err != nil || bytes.Equal(fresh, payload) {
		return
	}
	if len(fresh) >= len(payload) {
		t.Fatalf("frame %#x: accepted payload re-encodes differently:\n got %x\nwant %x", typ, fresh, payload)
	}
	if again, err := rt(fresh, &scratch{}); err != nil || !bytes.Equal(again, fresh) {
		t.Fatalf("frame %#x: re-encoding is not a fixed point: %v", typ, err)
	}
}

// FuzzFrames is the protocol's one payload fuzz target: any frame type,
// any payload, every invariant of checkFrame.
func FuzzFrames(f *testing.F) {
	for _, g := range goldenFrames() {
		for _, fr := range g.frames {
			f.Add(fr.typ, fr.payload)
		}
	}
	f.Fuzz(checkFrame)
}

// fuzzFrameTypes runs FuzzFrames' checks with the frame type fixed, seeded
// with every golden payload (a foreign frame's payload is a fine hostile
// input).
func fuzzFrameTypes(f *testing.F, types ...byte) {
	for _, g := range goldenFrames() {
		for _, fr := range g.frames {
			f.Add(fr.payload)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, typ := range types {
			checkFrame(t, typ, payload)
		}
	})
}

// The per-type targets below add no checks and no inputs of their own:
// each is FuzzFrames pinned to one frame type over the corpus checked in
// under its name (from the codecs of retired revisions — T/E/Ex payloads
// now exercise the plain frame's trailing-byte refusal, and the retired
// statement frames' payloads are hostile input to FrameRequest). Every
// one of those inputs is also in testdata/fuzz/FuzzFrames under each frame
// type its target pins, so FuzzFrames alone runs every check they run.
// They survive only as the names those inputs have run under; fuzz
// FuzzFrames, not them.

func FuzzDecodeHello(f *testing.F)            { fuzzFrameTypes(f, FrameHello) }
func FuzzDecodeResponse(f *testing.F)         { fuzzFrameTypes(f, FrameResponse, FrameBatchResponse) }
func FuzzDecodeExecT(f *testing.F)            { fuzzFrameTypes(f, FrameRequest) }
func FuzzDecodeBatchT(f *testing.F)           { fuzzFrameTypes(f, FrameRequest) }
func FuzzDecodeForward(f *testing.F)          { fuzzFrameTypes(f, FrameRequest) }
func FuzzDecodeForwardE(f *testing.F)         { fuzzFrameTypes(f, FrameRequest) }
func FuzzDecodeForwardT(f *testing.F)         { fuzzFrameTypes(f, FrameRequest) }
func FuzzDecodeRedirect(f *testing.F)         { fuzzFrameTypes(f, FrameRedirect) }
func FuzzDecodeRedirectE(f *testing.F)        { fuzzFrameTypes(f, FrameRedirect) }
func FuzzDecodeSubscribeEx(f *testing.F)      { fuzzFrameTypes(f, FrameSubscribe) }
func FuzzDecodeLogRecordE(f *testing.F)       { fuzzFrameTypes(f, FrameLogRecord) }
func FuzzDecodeStats(f *testing.F)            { fuzzFrameTypes(f, FrameIntrospect, FrameIntrospectResponse) }
func FuzzDecodeTraces(f *testing.F)           { fuzzFrameTypes(f, FrameIntrospect, FrameIntrospectResponse) }
func FuzzDecodeHeartbeat(f *testing.F)        { fuzzFrameTypes(f, FrameHeartbeat) }
func FuzzDecodePrepare(f *testing.F)          { fuzzFrameTypes(f, FrameRequest) }
func FuzzDecodeExecPrepared(f *testing.F)     { fuzzFrameTypes(f, FrameRequest) }
func FuzzDecodeExecPreparedT(f *testing.F)    { fuzzFrameTypes(f, FrameRequest) }
func FuzzDecodeBatchPrepared(f *testing.F)    { fuzzFrameTypes(f, FrameRequest) }
func FuzzDecodeBatchPreparedT(f *testing.F)   { fuzzFrameTypes(f, FrameRequest) }
func FuzzDecodeForwardPrepared(f *testing.F)  { fuzzFrameTypes(f, FrameRequest) }
func FuzzDecodeForwardPreparedT(f *testing.F) { fuzzFrameTypes(f, FrameRequest) }
func FuzzDecodeTraceCtx(f *testing.F)         { fuzzFrameTypes(f, FrameTraceCtx) }

// TestTraceFrameOnlyWhenSampled: AppendTraceFrame writes a frame for a
// sampled context and nothing for an unsampled or empty one.
func TestTraceFrameOnlyWhenSampled(t *testing.T) {
	for _, c := range []reqtrace.Ctx{{}, {ID: 9, Hop: 2}} {
		if got := AppendTraceFrame([]byte("x"), c); string(got) != "x" {
			t.Errorf("unsampled %+v appended %x", c, got)
		}
	}
	want, _ := AppendFrame(nil, FrameTraceCtx, AppendTraceCtx(nil, sampleTraceCtx()))
	if got := AppendTraceFrame(nil, sampleTraceCtx()); !bytes.Equal(got, want) {
		t.Fatalf("trace frame %x, want %x", got, want)
	}
	bad := AppendTraceCtx(nil, sampleTraceCtx())
	bad[9] |= 0x80
	if _, err := DecodeTraceCtx(bad); err == nil {
		t.Error("reserved trace flag bit accepted")
	}
}

func TestStatsRoundTrip(t *testing.T) {
	for _, id := range []uint64{0, 1, 42, 1 << 40} {
		for _, kind := range []byte{IntrospectStats, IntrospectTraces} {
			gotID, gotKind, err := DecodeIntrospect(AppendIntrospect(nil, id, kind))
			if err != nil || gotID != id || gotKind != kind {
				t.Fatalf("introspect (%d, %d) round-trip: got (%d, %d), err %v", id, kind, gotID, gotKind, err)
			}
		}
	}
	for _, bad := range [][]byte{nil, {7}, AppendIntrospect(nil, 7, 2), append(AppendIntrospect(nil, 7, 0), 0)} {
		if _, _, err := DecodeIntrospect(bad); err == nil {
			t.Errorf("introspect payload %x decoded", bad)
		}
	}
}

func TestStatsResponseRoundTrip(t *testing.T) {
	doc := []byte(`{"version":12,"lanes":8}`)
	id, got, err := DecodeIntrospectResponse(AppendIntrospectResponse(nil, 9, doc))
	if err != nil || id != 9 || !bytes.Equal(got, doc) {
		t.Fatalf("introspect response round-trip: id=%d doc=%q err=%v", id, got, err)
	}
	// An empty document is legal: the id alone must survive.
	id, got, err = DecodeIntrospectResponse(AppendIntrospectResponse(nil, 3, nil))
	if err != nil || id != 3 || len(got) != 0 {
		t.Fatalf("empty-doc round-trip: id=%d doc=%q err=%v", id, got, err)
	}
	if _, _, err := DecodeIntrospectResponse(nil); err == nil {
		t.Error("empty introspect response payload must not decode")
	}
}
