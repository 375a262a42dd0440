package wire

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/reqtrace"
	"funcdb/internal/value"
)

// rangeReply is a range statement's answer of n (key, text) tuples, the
// shape of the benchmark's range replies.
func rangeReply(n int) core.Response {
	r := core.Response{Origin: "w0", Seq: 41, Kind: core.KindRange, Count: n}
	for i := 0; i < n; i++ {
		r.Tuples = append(r.Tuples, value.NewTuple(value.Int(int64(i)), value.Str(fmt.Sprintf("v%d", i))))
	}
	return r
}

// insertReplies are n one-tuple insert replies, the answer to a batch of
// n inserts.
func insertReplies(n int) []core.Response {
	rs := make([]core.Response, n)
	for i := range rs {
		rs[i] = core.Response{Origin: "w0", Seq: i, Kind: core.KindInsert,
			Tuple: value.NewTuple(value.Int(int64(i)), value.Int(int64(-i)))}
	}
	return rs
}

// renders returns each response's client-visible form.
func renders(rs []core.Response) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = fmt.Sprintf("%s %v %d %v", r, r.Tuples, r.Version, r.Note)
	}
	return out
}

func sameRenders(t *testing.T, what string, got, want []core.Response) {
	t.Helper()
	g, w := renders(got), renders(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d responses, want %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: response %d = %s, want %s", what, i, g[i], w[i])
		}
	}
}

// TestDecodedRepliesOwnTheirBytes: a decoded reply shares one copy of its
// payload, never the payload itself: overwriting every payload byte
// leaves every response as it was.
func TestDecodedRepliesOwnTheirBytes(t *testing.T) {
	single := must(AppendSingleResponse(nil, 1, rangeReply(32)))
	batched := append(insertReplies(3), sampleResponses()...)
	batch := must(AppendResponses(nil, 2, batched))
	_, r, err := DecodeSingleResponse(single)
	if err != nil {
		t.Fatal(err)
	}
	_, rs, err := DecodeResponses(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]byte{single, batch} {
		for i := range p {
			p[i] = 0xAA
		}
	}
	sameRenders(t, "range reply", []core.Response{r}, []core.Response{rangeReply(32)})
	sameRenders(t, "batch reply", rs, batched)
}

// TestConnRepliesOutliveTheReadBuffer: the Reader decodes every frame
// into one reused body buffer; a reply already returned keeps its tuples
// when the next reply, no longer than it, overwrites that buffer.
func TestConnRepliesOutliveTheReadBuffer(t *testing.T) {
	first, second := rangeReply(32), rangeReply(31)
	for i := range second.Tuples {
		second.Tuples[i] = value.NewTuple(value.Int(int64(-i)), value.Str(fmt.Sprintf("w%d", i)))
	}
	var stream bytes.Buffer
	for _, f := range []struct {
		typ     byte
		payload []byte
	}{
		{FrameWelcome, AppendWelcome(nil, Welcome{Lanes: 1})},
		{FrameResponse, must(AppendSingleResponse(nil, 0, first))},
		{FrameResponse, must(AppendSingleResponse(nil, 1, second))},
	} {
		if err := WriteFrame(&stream, f.typ, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	var w io.Writer = io.Discard
	c, _, err := NewConn(fakeNet{r: &stream, w: &w}, Hello{})
	if err != nil {
		t.Fatal(err)
	}
	var got []core.Response
	for range 2 {
		id, err := c.Request(0, 0, []Stmt{{Text: "range R", HasText: true}}, reqtrace.Ctx{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Await(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r.Resp)
	}
	sameRenders(t, "replies read back to back", got, []core.Response{first, second})
}

// TestReplyDecodeAllocGate pins the one-copy reply decode: a frame's
// strings share one copy of it and its tuples one item block, so a reply
// costs a handful of allocations whatever its number of tuples.
func TestReplyDecodeAllocGate(t *testing.T) {
	single := must(AppendSingleResponse(nil, 1, rangeReply(32)))
	batched := must(AppendResponses(nil, 2, []core.Response{rangeReply(32)}))
	inserts := must(AppendResponses(nil, 3, insertReplies(500)))
	noStrings := must(AppendResponses(nil, 4, []core.Response{
		{Kind: core.KindFind, Found: true, Tuple: value.NewTuple(value.Int(3), value.Int(-3))},
		{Kind: core.KindRange, Count: 2, Tuples: []value.Tuple{value.NewTuple(value.Int(1)), value.NewTuple(value.Int(2))}},
	}))
	for _, g := range []struct {
		name    string
		payload []byte
		batch   bool
		max     float64
		why     string
	}{
		{"32-tuple range reply", single, false, 3, "the tuples slice, the item block and the copy"},
		{"32-tuple range reply in a batch", batched, true, 4, "the Responses slice, the tuples slice, the item block and the copy"},
		{"500 one-tuple insert replies", inserts, true, 4, "the Responses slice, the item block and the copy"},
		{"replies without strings", noStrings, true, 3, "the Responses slice, the tuples slice and the item block; no copy"},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			if g.batch {
				_, _, err = DecodeResponses(g.payload)
			} else {
				_, _, err = DecodeSingleResponse(g.payload)
			}
			if err != nil {
				t.Fatalf("%s: %v", g.name, err)
			}
		})
		t.Logf("%s: %.1f allocs", g.name, allocs)
		if allocs > g.max {
			t.Errorf("%s: %.1f allocs, want <= %.0f (%s)", g.name, allocs, g.max, g.why)
		}
	}
}
