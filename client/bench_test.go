package client_test

import (
	"fmt"
	"testing"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/server"
)

// benchDial boots a loopback server over a seeded store and dials it.
func benchDial(b *testing.B) *client.Client {
	b.Helper()
	store := funcdb.MustOpen(funcdb.WithRelations("R"), funcdb.WithRepresentation(funcdb.RepAVL))
	for i := 0; i < 256; i++ {
		if _, err := store.Exec(fmt.Sprintf("insert (%d, \"v\") into R", i)); err != nil {
			b.Fatal(err)
		}
	}
	srv := server.New(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	b.Cleanup(func() {
		srv.Shutdown()
		store.Close()
	})
	c, err := client.Dial(srv.Addr().String(), client.WithOrigin("bench"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkClientExec measures the client's full request/receive path —
// encode into the reused buffer, socket round trip, pooled decode —
// with allocations reported, so a regression on either side of the wire
// shows up as allocs/op here.
func BenchmarkClientExec(b *testing.B) {
	c := benchDial(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Exec(fmt.Sprintf("find %d in R", i%256))
		if err != nil || resp.Err != nil {
			b.Fatalf("%v / %v", err, resp.Err)
		}
	}
}

// BenchmarkClientExecBatch ships 64-statement batch frames: the
// amortized hot path of a bulk load.
func BenchmarkClientExecBatch(b *testing.B) {
	c := benchDial(b)
	const batch = 64
	queries := make([]string, batch)
	for i := range queries {
		queries[i] = fmt.Sprintf("find %d in R", i%256)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		resps, err := c.ExecBatch(queries)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range resps {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}
