package cluster

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"funcdb/internal/archive"
	"funcdb/internal/core"
	"funcdb/internal/database"
	"funcdb/internal/relation"
	"funcdb/internal/value"
	"funcdb/internal/wire"
)

// cannedConn is a replication dial that reads a canned stream and records
// what is written to it. Each Read returns from one chunk only, so a chunk
// is what one socket read delivers: the records a subscriber finds already
// buffered together. Past the last chunk the stream ends with io.EOF.
type cannedConn struct {
	net.Conn // unused methods panic
	chunks   [][]byte
	wrote    bytes.Buffer
}

func (c *cannedConn) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

func (c *cannedConn) Write(p []byte) (int, error) { return c.wrote.Write(p) }
func (c *cannedConn) Close() error                { return nil }

// logChunk frames records seqs[i] -> txs[i] as one chunk of LogRecord
// frames, returning the chunk and each record's bytes.
func logChunk(t *testing.T, seqs []int64, txs []core.Transaction) ([]byte, [][]byte) {
	t.Helper()
	var chunk []byte
	var raws [][]byte
	for i, seq := range seqs {
		raw, err := archive.AppendTxnRecord(nil, seq, txs[i])
		if err != nil {
			t.Fatal(err)
		}
		if chunk, err = wire.AppendFrame(chunk, wire.FrameLogRecord, wire.AppendLogRecord(nil, 0, raw)); err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}
	return chunk, raws
}

// streamCanned runs one subscription of a mirror of peer 1's relation R
// over the canned chunks (a Welcome is prepended), and returns the mirror,
// the SubAck sequences the subscription wrote, and the error it ended with.
func streamCanned(t *testing.T, chunks ...[]byte) (*mirror, []int64, error) {
	t.Helper()
	welcome, err := wire.AppendFrame(nil, wire.FrameWelcome, wire.AppendWelcome(nil, wire.Welcome{Lanes: 1}))
	if err != nil {
		t.Fatal(err)
	}
	conn := &cannedConn{chunks: append([][]byte{welcome}, chunks...)}
	n, err := New(Config{
		ID:     0,
		Addrs:  []string{"127.0.0.1:1", "127.0.0.1:2"},
		Store:  newFakeStore(),
		Dialer: func(string) (net.Conn, error) { return conn, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	m := newMirror(1, []string{"R"})
	m.keepTail = true
	serr := n.streamFrom(1, m)

	var acks []int64
	rd := wire.NewReader(bytes.NewReader(conn.wrote.Bytes()))
	for {
		typ, payload, err := rd.Next()
		if err != nil {
			break
		}
		if typ == wire.FrameSubAck {
			seq, err := wire.DecodeSubAck(payload)
			if err != nil {
				t.Fatal(err)
			}
			acks = append(acks, seq)
		}
	}
	return m, acks, serr
}

func put(k int64) core.Transaction {
	return core.Insert("R", value.NewTuple(value.Int(k), value.Str("v")))
}

// TestMirrorAppliesRuns: a mirror applies the records one socket read
// delivered as one run and acks the run once, with its last sequence; a
// run long enough to be one page build is one, and every record's bytes
// are kept for the promotion tail.
func TestMirrorAppliesRuns(t *testing.T) {
	var txs []core.Transaction
	var seqs []int64
	for i := 0; i < 24; i++ {
		txs = append(txs, put(int64((i*7)%20)))
		seqs = append(seqs, int64(i+1))
	}
	first, raws1 := logChunk(t, seqs[:3], txs[:3])
	second, raws2 := logChunk(t, seqs[3:], txs[3:])
	m, acks, err := streamCanned(t, first, second)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("stream ended with %v, want io.EOF", err)
	}
	if len(acks) != 2 || acks[0] != 3 || acks[1] != 24 {
		t.Fatalf("acks %v, want one per run: [3 24]", acks)
	}
	if got := m.version(); got != 24 {
		t.Fatalf("mirror at version %d, want 24", got)
	}
	_, want := core.ApplySequential(database.New(FreshRep, "R"), txs)
	if got := m.eng.Current(); !got.Equal(want) {
		t.Fatalf("mirror holds %d tuples, the records make %d", got.TotalTuples(), want.TotalTuples())
	}
	if r, _ := m.eng.Current().RelationFast("R"); r.Rep() != relation.RepPaged {
		t.Fatalf("mirror relation is %v, want paged", r.Rep())
	}
	tail := m.freezeTail()
	raws := append(raws1, raws2...)
	if tail.from != 0 || len(tail.recs) != len(raws) {
		t.Fatalf("tail from %d holds %d records, want from 0 holding %d", tail.from, len(tail.recs), len(raws))
	}
	for i := range raws {
		if !bytes.Equal(tail.recs[i], raws[i]) {
			t.Fatalf("tail record %d differs from the record shipped", i+1)
		}
	}
}

// TestMirrorRunStopsAtGap: a run with a sequence hole applies the records
// before the hole, acks them, and ends the subscription with
// errReplicationGap; nothing past the hole is applied.
func TestMirrorRunStopsAtGap(t *testing.T) {
	txs := []core.Transaction{put(1), put(2), put(4), put(5)}
	chunk, _ := logChunk(t, []int64{1, 2, 4, 5}, txs)
	m, acks, err := streamCanned(t, chunk)
	if err != errReplicationGap {
		t.Fatalf("stream ended with %v, want errReplicationGap", err)
	}
	if got := m.version(); got != 2 {
		t.Fatalf("mirror at version %d, want 2", got)
	}
	if len(acks) != 1 || acks[0] != 2 {
		t.Fatalf("acks %v, want [2]", acks)
	}
	if got := m.eng.Current().TotalTuples(); got != 2 {
		t.Fatalf("mirror holds %d tuples, want the 2 before the hole", got)
	}
	if tail := m.freezeTail(); len(tail.recs) != 2 {
		t.Fatalf("tail holds %d records, want the 2 applied", len(tail.recs))
	}
}
