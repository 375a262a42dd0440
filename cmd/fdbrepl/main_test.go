package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"funcdb"
	"funcdb/internal/server"
)

func newStore(t *testing.T) *funcdb.Store {
	t.Helper()
	return funcdb.MustOpen(funcdb.WithHistory(0), funcdb.WithOrigin("repl"))
}

func newRepl(t *testing.T) *repl {
	t.Helper()
	return &repl{store: newStore(t)}
}

func TestQueryLines(t *testing.T) {
	r := newRepl(t)
	tests := []struct {
		line string
		want string
	}{
		{"create R", "create: created"},
		{`insert (1, "x") into R`, "inserted"},
		{"find 1 in R", "found"},
		{"find 2 in R", "not found"},
		{"count R", "count: 1"},
		{"delete 1 from R", "deleted"},
		{"scan R", "0 tuples"},
	}
	for _, tc := range tests {
		out, quit := handleLine(r, tc.line)
		if quit {
			t.Fatalf("%q quit the session", tc.line)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%q -> %q, want containing %q", tc.line, out, tc.want)
		}
	}
}

func TestDotCommands(t *testing.T) {
	r := newRepl(t)
	handleLine(r, "create R")
	handleLine(r, "insert 1 into R")

	if out, _ := handleLine(r, ".help"); !strings.Contains(out, "queries:") {
		t.Errorf(".help = %q", out)
	}
	if out, _ := handleLine(r, ".stats"); !strings.Contains(out, "created") {
		t.Errorf(".stats = %q", out)
	}
	if out, _ := handleLine(r, ".versions"); !strings.Contains(out, "version 0") || !strings.Contains(out, "version 2") {
		t.Errorf(".versions = %q", out)
	}
	if out, _ := handleLine(r, ".bogus"); !strings.Contains(out, "unknown command") {
		t.Errorf(".bogus = %q", out)
	}
	if out, _ := handleLine(r, ".local"); !strings.Contains(out, "already local") {
		t.Errorf(".local when local = %q", out)
	}
	if _, quit := handleLine(r, ".quit"); !quit {
		t.Error(".quit did not quit")
	}
	if _, quit := handleLine(r, ".exit"); !quit {
		t.Error(".exit did not quit")
	}
	if out, quit := handleLine(r, "   "); out != "" || quit {
		t.Error("blank line misbehaved")
	}
}

func TestTimeTravel(t *testing.T) {
	r := newRepl(t)
	handleLine(r, "create R")
	handleLine(r, "insert 1 into R")
	handleLine(r, "insert 2 into R")
	handleLine(r, "delete 1 from R")

	// Version 3: after both inserts, before the delete.
	out, _ := handleLine(r, ".at 3 count R")
	if !strings.Contains(out, "@v3") || !strings.Contains(out, "2") {
		t.Errorf(".at 3 count R = %q", out)
	}
	// Current version has 1 tuple.
	out, _ = handleLine(r, "count R")
	if !strings.Contains(out, "count: 1") {
		t.Errorf("count = %q", out)
	}
}

func TestTimeTravelErrors(t *testing.T) {
	r := newRepl(t)
	handleLine(r, "create R")
	cases := []struct {
		line string
		want string
	}{
		{".at", "unknown command"},
		{".at 1", "usage:"},
		{".at x count R", "bad version"},
		{".at 99 count R", "not retained"},
		{".at 0 insert 1 into R", "read-only"},
		{".at 0 garbage query", "query:"},
	}
	for _, tc := range cases {
		out, _ := handleLine(r, tc.line)
		if !strings.Contains(out, tc.want) {
			t.Errorf("%q -> %q, want containing %q", tc.line, out, tc.want)
		}
	}
}

// TestDurableSession drives the --data path: a session's writes survive a
// close/reopen, and .versions/.at read the on-disk stream.
func TestDurableSession(t *testing.T) {
	dir := t.TempDir()
	open := func() *repl {
		return &repl{store: funcdb.MustOpen(funcdb.WithHistory(0), funcdb.WithOrigin("repl"),
			funcdb.WithDurability(dir))}
	}

	r := open()
	handleLine(r, "create R")
	handleLine(r, `insert (1, "widget") into R`)
	handleLine(r, "insert 2 into R")
	if err := r.close(); err != nil {
		t.Fatal(err)
	}

	r = open() // restart
	defer r.close()
	if out, _ := handleLine(r, "count R"); !strings.Contains(out, "count: 2") {
		t.Fatalf("recovered count = %q", out)
	}
	out, _ := handleLine(r, ".versions")
	if !strings.Contains(out, "version 0") || !strings.Contains(out, "version 3") {
		t.Fatalf(".versions after restart = %q", out)
	}
	if !strings.Contains(out, `insert (1, "widget") into R`) {
		t.Fatalf(".versions lost query text: %q", out)
	}
	// Time travel into the pre-restart past.
	if out, _ := handleLine(r, ".at 2 count R"); !strings.Contains(out, "@v2") || !strings.Contains(out, "count: 1") {
		t.Fatalf(".at 2 count R = %q", out)
	}
}

func TestErrorsSurface(t *testing.T) {
	r := newRepl(t)
	out, _ := handleLine(r, "find 1 in NOPE")
	if !strings.Contains(out, "no such relation") {
		t.Errorf("unknown relation -> %q", out)
	}
	out, _ = handleLine(r, "complete gibberish")
	if !strings.Contains(out, "error:") {
		t.Errorf("parse error -> %q", out)
	}
}

func TestBatchCommand(t *testing.T) {
	r := newRepl(t)
	out, quit := handleLine(r, `.batch create R; insert (1, "a") into R; insert (2, "b") into R; count R`)
	if quit {
		t.Fatal(".batch quit the session")
	}
	lines := strings.Split(out, "\n")
	if len(lines) != 4 {
		t.Fatalf(".batch printed %d lines: %q", len(lines), out)
	}
	if !strings.Contains(lines[3], "count: 2") {
		t.Errorf("batch count line = %q", lines[3])
	}
	if out, _ := handleLine(r, ".batch ; ;"); !strings.Contains(out, "usage:") {
		t.Errorf("empty .batch = %q", out)
	}
	if out, _ := handleLine(r, ".batch count R; bogus query"); !strings.Contains(out, "error:") {
		t.Errorf("bad batch = %q", out)
	}
}

func TestRunScript(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "script.fdb")
	script := "# comment\ncreate R\ninsert (1, \"a\") into R;\n\nfind 1 in R\ncount R\n"
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	r := newRepl(t)
	out, err := runScript(r, path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	if len(lines) != 4 {
		t.Fatalf("script printed %d lines: %q", len(lines), out)
	}
	if !strings.Contains(lines[2], "found") || !strings.Contains(lines[3], "count: 1") {
		t.Errorf("script output wrong: %q", out)
	}

	if _, err := runScript(r, filepath.Join(dir, "missing.fdb")); err == nil {
		t.Error("missing script file not reported")
	}
	bad := filepath.Join(dir, "bad.fdb")
	os.WriteFile(bad, []byte("not a query\n"), 0o644)
	if _, err := runScript(r, bad); err == nil {
		t.Error("bad script query not reported")
	}
	empty := filepath.Join(dir, "empty.fdb")
	os.WriteFile(empty, []byte("# only comments\n\n"), 0o644)
	if out, err := runScript(r, empty); err != nil || out != "" {
		t.Errorf("empty script: %q, %v", out, err)
	}
}

// TestRemoteSession: .remote swaps the backing session for a network
// client against a live fdbserver — same REPL, remote store — and .local
// swaps back.
func TestRemoteSession(t *testing.T) {
	remoteStore := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer remoteStore.Close()
	srv := server.New(remoteStore)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Shutdown()

	r := newRepl(t)
	defer r.close()
	if out, _ := handleLine(r, ".remote "+srv.Addr().String()); !strings.Contains(out, "remote session") {
		t.Fatalf(".remote = %q", out)
	}

	// Queries now land on the server's store, not the local one.
	if out, _ := handleLine(r, `insert (7, "wire") into R`); !strings.Contains(out, "inserted") {
		t.Fatalf("remote insert = %q", out)
	}
	if out, _ := handleLine(r, "find 7 in R"); !strings.Contains(out, "found") {
		t.Fatalf("remote find = %q", out)
	}
	if out, _ := handleLine(r, `.batch insert (8, "b") into R; count R`); !strings.Contains(out, "count: 2") {
		t.Fatalf("remote .batch = %q", out)
	}
	// .stats works remotely: the snapshot travels as a wire Introspect frame
	// and reflects the SERVER's store, not the local one.
	if out, _ := handleLine(r, ".stats"); !strings.Contains(out, "admitted") {
		t.Errorf(".stats while remote = %q", out)
	}
	// Local-only commands degrade with a pointer back.
	for _, cmd := range []string{".versions", ".at 0 count R"} {
		if out, _ := handleLine(r, cmd); !strings.Contains(out, "local") {
			t.Errorf("%s while remote = %q", cmd, out)
		}
	}
	remoteStore.Barrier()
	if got := remoteStore.Current().TotalTuples(); got != 2 {
		t.Fatalf("server store has %d tuples, want 2", got)
	}
	if got := r.store.Current().TotalTuples(); got != 0 {
		t.Fatalf("local store touched by remote session: %d tuples", got)
	}

	// Back to the local store.
	if out, _ := handleLine(r, ".local"); !strings.Contains(out, "local session") {
		t.Fatalf(".local = %q", out)
	}
	if out, _ := handleLine(r, "count R"); !strings.Contains(out, "error") && !strings.Contains(out, "no such relation") {
		t.Fatalf("local count after .local = %q", out)
	}

	// A dead address reports and leaves the current session alone.
	if out, _ := handleLine(r, ".remote 127.0.0.1:1"); !strings.Contains(out, "remote:") {
		t.Errorf("dead .remote = %q", out)
	}
}

// TestRemotePrepared: .prepare reports a template's parameter count (or
// its parse error) and .execp runs it against a live fdbserver, with
// string and integer arguments, until .local drops the handles.
func TestRemotePrepared(t *testing.T) {
	remoteStore := funcdb.MustOpen(funcdb.WithRelations("R"))
	defer remoteStore.Close()
	srv := server.New(remoteStore)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Shutdown()

	r := newRepl(t)
	defer r.close()
	if out, _ := handleLine(r, ".prepare f find ? in R"); !strings.Contains(out, "remote-only") {
		t.Fatalf(".prepare while local = %q", out)
	}
	if out, _ := handleLine(r, ".remote "+srv.Addr().String()); !strings.Contains(out, "remote session") {
		t.Fatalf(".remote = %q", out)
	}
	for _, tc := range []struct{ line, want string }{
		{".prepare i insert (?, ?) into R", "prepared i (2 parameters)"},
		{".prepare f find ? in R", "prepared f (1 parameters)"},
		{".prepare c count R", "prepared c (0 parameters)"},
		{".prepare bad find ? in", "prepare: query: expected a relation name"},
		{".prepare lonely", "usage:"},
		{`.execp i 7 "a widget"`, "inserted"},
		{".execp f 7", `found (7, "a widget")`},
		{".execp f 8", "not found"},
		{".execp c", "count: 1"},
		{".execp f", "error: client: statement has 1 parameters, got 0 arguments"},
		{".execp bad 1", `no prepared statement "bad"`},
		{".execp nope", `no prepared statement "nope"`},
	} {
		if out, _ := handleLine(r, tc.line); !strings.Contains(out, tc.want) {
			t.Errorf("%q -> %q, want containing %q", tc.line, out, tc.want)
		}
	}
	remoteStore.Barrier()
	if got := remoteStore.Current().TotalTuples(); got != 1 {
		t.Fatalf("server store has %d tuples, want 1", got)
	}
	handleLine(r, ".local")
	if out, _ := handleLine(r, ".execp f 7"); !strings.Contains(out, "remote-only") {
		t.Errorf(".execp after .local = %q", out)
	}
}
