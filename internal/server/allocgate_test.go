package server_test

import (
	"testing"

	"funcdb"
	"funcdb/internal/query"
	"funcdb/internal/value"
	"funcdb/internal/wire"
)

// TestRequestAllocGate counts the server's allocations per request through
// a warm connection: the test side writes pre-framed bytes and reads the
// reply without decoding it, so what AllocsPerRun sees is the server's
// decode, resolve, admission and reply encode. Each gate is the count the
// same harness measured for the equivalent frame before requests shared
// one frame type (Exec, ExecPrepared, ForwardPrepared): a one-statement
// text find 3, an untagged find by text hash 2 (the dense statement id it
// replaced was the same one map probe), a tagged find by text hash 3 (its
// origin tag decodes to a fresh string).
func TestRequestAllocGate(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer store.Close()
	if _, err := store.Exec(`insert (1, "v") into R`); err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, store)
	conn, rd := rawDial(t, srv.Addr().String(), wire.AppendHello(nil, wire.Hello{Origin: "gate"}))
	if typ, _, err := rd.Next(); err != nil || typ != wire.FrameWelcome {
		t.Fatalf("handshake: frame %#x, %v", typ, err)
	}
	frame := func(typ byte, payload []byte) []byte {
		t.Helper()
		b, err := wire.AppendFrame(nil, typ, payload)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	request := func(flags byte, st wire.Stmt) []byte {
		t.Helper()
		payload, err := wire.AppendRequest(nil, 2, flags, 0, []wire.Stmt{st})
		if err != nil {
			t.Fatal(err)
		}
		return frame(wire.FrameRequest, payload)
	}
	const find = "find ? in R"
	hash := query.HashText(find)
	args := []value.Item{value.Int(1)}
	// First contact carries the text, so the server holds the statement.
	if _, err := conn.Write(request(0, wire.Stmt{Hash: hash, Text: find, HasText: true, Args: args})); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := rd.Next(); err != nil || typ != wire.FrameResponse {
		t.Fatalf("first contact answered with frame %#x, %v", typ, err)
	}
	for _, c := range []struct {
		name  string
		frame []byte
		max   float64
	}{
		{"text", request(0, wire.Stmt{Text: "find 1 in R", HasText: true}), 3},
		{"by-hash", request(0, wire.Stmt{Hash: hash, Args: args}), 2},
		{"tagged-by-hash", request(wire.FwdTagged|wire.FwdNoForward,
			wire.Stmt{Origin: "gate", Seq: 7, Hash: hash, Args: args}), 3},
	} {
		roundTrip := func() {
			if _, err := conn.Write(c.frame); err != nil {
				t.Fatal(err)
			}
			if typ, _, err := rd.Next(); err != nil || typ != wire.FrameResponse {
				t.Fatalf("%s: answered with frame %#x, %v", c.name, typ, err)
			}
		}
		for i := 0; i < 64; i++ { // warm the connection's scratch and buffers
			roundTrip()
		}
		if avg := testing.AllocsPerRun(500, roundTrip); avg > c.max {
			t.Errorf("%s request: %.2f server allocations, want <= %.0f", c.name, avg, c.max)
		}
	}
}
