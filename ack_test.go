package funcdb_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/server"
)

// openDurable opens a durable store over relation R, closed when the test
// ends.
func openDurable(t *testing.T) *funcdb.Store {
	t.Helper()
	s, err := funcdb.Open(funcdb.WithRelations("R"), funcdb.WithDurability(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// wantNoAck fails the test unless a response to a statement run after the
// archive failed carries an error wrapping the archive's failure.
func wantNoAck(t *testing.T, s *funcdb.Store, what string, resp funcdb.Response, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if derr := s.DurabilityErr(); derr == nil || !errors.Is(resp.Err, derr) {
		t.Errorf("%s answered %v with the archive failed (%v): an ack for an answer that never reached disk", what, resp, derr)
	}
}

// TestFailedFlushNoLongerAcks: once the archive has failed, a durable
// store acknowledges nothing it did not make durable. An insert after the
// failure, a find of it and a forced ExecAsync future all carry an error
// wrapping the archive's sticky failure; a write made durable before it
// still answers.
func TestFailedFlushNoLongerAcks(t *testing.T) {
	s := openDurable(t)
	if resp, err := s.Exec(`insert (1, "a") into R`); err != nil || resp.Err != nil {
		t.Fatalf("insert before the failure: %v %v", err, resp.Err)
	}
	if err := funcdb.FailArchive(s); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Exec(`insert (2, "b") into R`)
	wantNoAck(t, s, "insert", resp, err)
	resp, err = s.Exec(`find 2 in R`)
	wantNoAck(t, s, "find", resp, err)
	fut, err := s.ExecAsync(`insert (3, "c") into R`)
	if err != nil {
		t.Fatal(err)
	}
	wantNoAck(t, s, "ExecAsync", fut.Force(), nil)
}

// TestFailedFlushNoLongerAcksOverTheWire is TestFailedFlushNoLongerAcks
// through a server: the reply to an insert after the archive failed
// carries the failure.
func TestFailedFlushNoLongerAcksOverTheWire(t *testing.T) {
	s := openDurable(t)
	srv := server.New(s)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Shutdown()
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Exec(`insert (1, "a") into R`); err != nil || resp.Err != nil {
		t.Fatalf("insert before the failure: %v %v", err, resp.Err)
	}
	if err := funcdb.FailArchive(s); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`insert (2, "b") into R`, `find 2 in R`} {
		resp, err := c.Exec(q)
		if err == nil && resp.Err == nil {
			t.Errorf("%q answered %v over the wire with the archive failed (%v)", q, resp, s.DurabilityErr())
		}
	}
}

// TestExecAsyncIsAnAck: the future ExecAsync returns is an
// acknowledgement. With the flush that writes an insert held open — a
// log-tail subscriber runs inside the flush, after the write and before
// the flush returns — forcing the insert's future, from Store.ExecAsync
// or Stmt.ExecAsync, does not return until the flush has.
func TestExecAsyncIsAnAck(t *testing.T) {
	s := openDurable(t)
	ins, err := s.Prepare(`insert (?, "p") into R`)
	if err != nil {
		t.Fatal(err)
	}
	type hold struct{ entered, release chan struct{} }
	var next atomic.Pointer[hold]
	cancel, err := s.SubscribeLog(s.Version(), func(int64, int64, funcdb.TraceCtx, byte, []byte) {
		if h := next.Swap(nil); h != nil {
			close(h.entered)
			<-h.release
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	for i, submit := range []func() (*funcdb.Future, error){
		func() (*funcdb.Future, error) { return s.ExecAsync(`insert (1, "a") into R`) },
		func() (*funcdb.Future, error) { return ins.ExecAsync(funcdb.Int(2)) },
	} {
		h := &hold{entered: make(chan struct{}), release: make(chan struct{})}
		next.Store(h)
		fut, err := submit()
		if err != nil {
			t.Fatal(err)
		}
		<-h.entered // the insert's flush has written it and is held
		done := make(chan funcdb.Response, 1)
		go func() { done <- fut.Force() }()
		select {
		case r := <-done:
			close(h.release)
			t.Fatalf("ExecAsync %d: Force returned %v while the flush writing it was held", i, r)
		case <-time.After(50 * time.Millisecond):
		}
		close(h.release)
		if r := <-done; r.Err != nil {
			t.Fatalf("ExecAsync %d: %v", i, r.Err)
		}
	}
}
