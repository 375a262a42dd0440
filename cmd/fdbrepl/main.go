// Command fdbrepl is an interactive shell over a functional store: the
// paper's "stream of transaction requests entered from a terminal".
//
// With --data <dir>, the store is durable: every committed write lands in
// the append-only archive under dir, and restarting the repl with the same
// flag recovers the session's database (and its full version stream for
// .at time travel).
//
// With --exec <file>, the repl runs in script mode: the file's queries are
// submitted as one batch (one merge arbitration for the whole script), the
// responses are printed in order, and the process exits.
//
// The repl executes through the same session layer as the public Store
// API and the network server; `.remote <addr>` swaps the backing session
// for a network client session against a running fdbserver — same REPL,
// remote store — and `.local` swaps back.
//
// Every line is a query; dot-commands inspect the system:
//
//	.help                 this text
//	.stats                metrics snapshot (works remotely: a wire Introspect frame)
//	.trace [n]            newest published request traces (remote: a wire Introspect frame)
//	.versions             retained version stream
//	.at <version> <query> run a read-only query against an old version
//	.batch q1; q2; ...    submit several queries as one batch
//	.remote <addr>        execute against a fdbserver; .local to return
//	.prepare <name> <q>   prepare a '?'-templated query on the remote server
//	.execp <name> args    execute a prepared statement with positional args
//	.quit                 exit
//
// .prepare / .execp drive the wire's prepared statements: .prepare parses
// the template locally (reporting its parameter count or its parse error),
// the first .execp carries the text to the server, which parses it into
// its statement cache, and every later .execp ships just the text's hash
// plus the arguments — no text, no re-parse. Arguments are bare integers
// or "quoted strings". Both commands are remote-only; the local session
// has no wire to save parses on.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/query"
	"funcdb/internal/reqtrace"
	"funcdb/internal/session"
	"funcdb/internal/trace"
	"funcdb/internal/value"
)

const helpText = `queries:
  insert (1, "widget", 3) into R      find 1 in R
  delete 1 from R                     scan R
  count R                             range 1 9 in R
  create R [using list|avl|2-3|paged]
commands:
  .help  .versions  .at <version> <query>  .batch q1; q2; ...
  .remote <addr>  .local  .quit
observability (work remotely too — wire Introspect frames):
  .stats                metrics snapshot: every layer's counters and histograms
  .trace [n]            newest n published request traces as span timelines
                        (needs tracing enabled, e.g. fdbserver --trace)
prepared statements (remote only — text ships once, executions ship hash+args):
  .prepare f find ? in R      .execp f 1
  .prepare i insert (?, ?) into R      .execp i 2 "widget"`

// repl holds the shell's execution state: the local store, and — after
// .remote — the network client the queries are routed through instead.
type repl struct {
	store  *funcdb.Store
	remote *client.Client
	addr   string
	stmts  map[string]*client.Stmt // .prepare handles, bound to the current remote
}

// exec routes one query to the backing session (local or remote).
func (r *repl) exec(q string) (funcdb.Response, error) {
	if r.remote != nil {
		return r.remote.Exec(q)
	}
	return r.store.Exec(q)
}

// execBatch routes a batch to the backing session.
func (r *repl) execBatch(qs []string) ([]funcdb.Response, error) {
	if r.remote != nil {
		return r.remote.ExecBatch(qs)
	}
	return r.store.ExecBatch(qs)
}

func main() {
	dataDir := flag.String("data", "", "archive directory: persist the session and recover it on restart")
	snapEvery := flag.Int("snapshot-every", 256, "with --data, snapshot the full version every n writes")
	execFile := flag.String("exec", "", "script mode: run the file's queries as one batch and exit")
	lanes := flag.Int("lanes", 0, "admission lanes the engine shards its merge point into (0 = auto from GOMAXPROCS)")
	remote := flag.String("remote", "", "start connected to a fdbserver instead of the local store")
	traceOn := flag.Bool("trace", false, "trace every local request for .trace (interactive volume: no sampling)")
	flag.Parse()

	opts := []funcdb.Option{funcdb.WithHistory(0), funcdb.WithOrigin("repl")}
	if *traceOn {
		opts = append(opts, funcdb.WithTracing(funcdb.TracingConfig{SampleEvery: 1}))
	}
	if *dataDir != "" {
		opts = append(opts, funcdb.WithDurability(*dataDir, funcdb.SnapshotEvery(*snapEvery)))
	}
	if *lanes > 0 {
		opts = append(opts, funcdb.WithLanes(*lanes))
	}
	store, err := funcdb.Open(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdbrepl:", err)
		os.Exit(1)
	}
	r := &repl{store: store}
	if *remote != "" {
		if out, ok := r.connect(*remote); !ok {
			fmt.Fprintln(os.Stderr, "fdbrepl:", out)
			os.Exit(1)
		}
	}

	if *execFile != "" {
		out, err := runScript(r, *execFile)
		if out != "" {
			fmt.Println(out)
		}
		if err == nil {
			err = r.close()
		} else {
			r.close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdbrepl:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("funcdb repl — a functional database (Keller & Lindstrom 1985). .help for help.")
	if *dataDir != "" {
		cur := store.Current()
		fmt.Printf("durable session in %s — recovered version %d (%d tuples in %d relations)\n",
			*dataDir, cur.Version(), cur.TotalTuples(), len(cur.RelationNames()))
	}
	if r.remote != nil {
		fmt.Printf("remote session: %s\n", r.addr)
	}

	sc := bufio.NewScanner(os.Stdin)
	for prompt(r); sc.Scan(); prompt(r) {
		out, quit := handleLine(r, sc.Text())
		if out != "" {
			fmt.Println(out)
		}
		if quit {
			break
		}
	}
	if err := r.close(); err != nil {
		fmt.Fprintln(os.Stderr, "close:", err)
		os.Exit(1)
	}
}

func prompt(r *repl) {
	if r.remote != nil {
		fmt.Printf("fdb[%s]> ", r.addr)
		return
	}
	fmt.Print("fdb> ")
}

// close releases the remote session (if any) and the local store.
func (r *repl) close() error {
	if r.remote != nil {
		r.remote.Close()
		r.remote = nil
	}
	return r.store.Close()
}

// connect dials a fdbserver and swaps the backing session to it.
func (r *repl) connect(addr string) (out string, ok bool) {
	c, err := client.Dial(addr, client.WithOrigin("repl"))
	if err != nil {
		return "remote: " + err.Error(), false
	}
	if r.remote != nil {
		r.remote.Close()
	}
	r.remote, r.addr = c, addr
	r.stmts = nil // handles are per-connection
	durable := ""
	if c.Durable() {
		durable = ", durable"
	}
	return fmt.Sprintf("remote session %s (origin %s, %d lanes%s) — .local to return",
		addr, c.Origin(), c.Lanes(), durable), true
}

// handleLine processes one REPL line and returns the output plus whether
// the session should end.
func handleLine(r *repl, raw string) (out string, quit bool) {
	line := strings.TrimSpace(raw)
	switch {
	case line == "":
		return "", false
	case line == ".quit" || line == ".exit":
		return "", true
	case line == ".help":
		return helpText, false
	case strings.HasPrefix(line, ".remote "):
		out, _ := r.connect(strings.TrimSpace(strings.TrimPrefix(line, ".remote ")))
		return out, false
	case line == ".local":
		if r.remote == nil {
			return "already local", false
		}
		r.remote.Close()
		r.remote = nil
		r.stmts = nil
		return "local session", false
	case strings.HasPrefix(line, ".prepare "):
		return prepareStmt(r, strings.TrimPrefix(line, ".prepare ")), false
	case strings.HasPrefix(line, ".execp "):
		return execPrepared(r, strings.TrimPrefix(line, ".execp ")), false
	case line == ".stats":
		// The full metrics snapshot, local or remote: same document, same
		// rendering — remotely it travels as a wire Introspect frame.
		if r.remote != nil {
			snap, err := r.remote.Stats()
			if err != nil {
				return "stats: " + err.Error(), false
			}
			return strings.TrimRight(snap.Format(), "\n"), false
		}
		return strings.TrimRight(r.store.MetricsSnapshot().Format(), "\n"), false
	case line == ".trace" || strings.HasPrefix(line, ".trace "):
		return traceListing(r, strings.TrimSpace(strings.TrimPrefix(line, ".trace"))), false
	case line == ".versions":
		if r.remote != nil {
			return "version listing is local-only (use .local)", false
		}
		return versionsListing(r.store), false
	case strings.HasPrefix(line, ".at "):
		if r.remote != nil {
			return "time travel is local-only (use .local)", false
		}
		return execAt(r.store, strings.TrimPrefix(line, ".at ")), false
	case strings.HasPrefix(line, ".batch "):
		return execBatch(r, strings.TrimPrefix(line, ".batch ")), false
	case strings.HasPrefix(line, "."):
		return fmt.Sprintf("unknown command %q (.help for help)", line), false
	default:
		resp, err := r.exec(line)
		if err != nil {
			return "error: " + err.Error(), false
		}
		return resp.String(), false
	}
}

// traceListing renders the newest published request traces as span
// timelines — the store's recorder locally, a wire Introspect frame
// remotely. The optional argument caps how many stitched traces print
// (default 5).
func traceListing(r *repl, arg string) string {
	n := 5
	if arg != "" {
		v, err := strconv.Atoi(arg)
		if err != nil || v <= 0 {
			return "usage: .trace [n]"
		}
		n = v
	}
	var traces []funcdb.RequestTrace
	if r.remote != nil {
		ts, err := r.remote.Traces()
		if err != nil {
			return "trace: " + err.Error()
		}
		traces = ts
	} else {
		traces = r.store.Traces()
	}
	if len(traces) == 0 {
		return "no traces published (enable tracing: fdbserver --trace, or funcdb.WithTracing)"
	}
	groups := reqtrace.Stitch(traces)
	if len(groups) > n {
		groups = groups[:n]
	}
	var b strings.Builder
	for i, g := range groups {
		if i > 0 {
			b.WriteByte('\n')
		}
		reqtrace.RenderGroup(&b, g)
	}
	return strings.TrimRight(b.String(), "\n")
}

// versionsListing renders the retained version stream: the durable
// archive when the session has one, the in-memory history otherwise.
func versionsListing(store *funcdb.Store) string {
	var b strings.Builder
	if store.Durable() {
		infos, err := store.ArchivedVersions()
		if err != nil {
			// A durable session with an unreadable archive is a problem
			// the user must see, not a reason to show in-memory history.
			return "archive error: " + err.Error()
		}
		for i, v := range infos {
			if i > 0 {
				b.WriteByte('\n')
			}
			marker := " "
			if v.Snapshotted {
				marker = "*"
			}
			fmt.Fprintf(&b, " %s version %d: %-8s %s", marker, v.Seq, v.Kind, v.Detail)
		}
		return b.String()
	}
	for i, v := range store.History().All() {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "  version %d: %d tuples in %d relations",
			v.Version(), v.TotalTuples(), len(v.RelationNames()))
	}
	return b.String()
}

// execBatch submits semicolon-separated queries as one batch: one merge
// arbitration, responses printed in order.
func execBatch(r *repl, rest string) string {
	queries := session.SplitQueries(rest)
	if len(queries) == 0 {
		return "usage: .batch <query>; <query>; ..."
	}
	resps, err := r.execBatch(queries)
	if err != nil {
		return "error: " + err.Error()
	}
	return session.Render(resps)
}

// prepareStmt names a prepared statement for the remote session. The
// template parses here, once, for its parameter count; its text reaches
// the server with the first .execp, and later .execp calls ship only the
// text's hash plus arguments.
func prepareStmt(r *repl, rest string) string {
	if r.remote == nil {
		return "prepared statements are remote-only (.remote <addr> first)"
	}
	parts := strings.SplitN(strings.TrimSpace(rest), " ", 2)
	if len(parts) != 2 {
		return "usage: .prepare <name> <query with ? placeholders>"
	}
	name, text := parts[0], strings.TrimSpace(parts[1])
	s := r.remote.Prepare(text)
	n, err := s.NumParams()
	if err != nil {
		return "prepare: " + err.Error()
	}
	if r.stmts == nil {
		r.stmts = make(map[string]*client.Stmt)
	}
	r.stmts[name] = s
	return fmt.Sprintf("prepared %s (%d parameters) — .execp %s <args>", name, n, name)
}

// execPrepared executes a .prepare'd statement with positional arguments:
// bare integers or "quoted strings".
func execPrepared(r *repl, rest string) string {
	if r.remote == nil {
		return "prepared statements are remote-only (.remote <addr> first)"
	}
	fields := splitArgs(strings.TrimSpace(rest))
	if len(fields) == 0 {
		return "usage: .execp <name> [args...]"
	}
	s, ok := r.stmts[fields[0]]
	if !ok {
		return fmt.Sprintf("no prepared statement %q (.prepare %s <query> first)", fields[0], fields[0])
	}
	args := make([]funcdb.Item, 0, len(fields)-1)
	for _, f := range fields[1:] {
		args = append(args, parseArg(f))
	}
	resp, err := s.Exec(args...)
	if err != nil {
		return "error: " + err.Error()
	}
	return resp.String()
}

// splitArgs splits on spaces but keeps "quoted strings" (with embedded
// spaces) as one field, quotes retained for parseArg.
func splitArgs(s string) []string {
	var out []string
	for i := 0; i < len(s); {
		for i < len(s) && s[i] == ' ' {
			i++
		}
		if i == len(s) {
			break
		}
		start := i
		if s[i] == '"' {
			i++
			for i < len(s) && s[i] != '"' {
				i++
			}
			if i < len(s) {
				i++ // closing quote
			}
		} else {
			for i < len(s) && s[i] != ' ' {
				i++
			}
		}
		out = append(out, s[start:i])
	}
	return out
}

// parseArg turns one .execp field into a typed argument: a bare integer
// becomes an int item, anything else (quoted or not) a string item.
func parseArg(f string) funcdb.Item {
	if len(f) >= 2 && f[0] == '"' && f[len(f)-1] == '"' {
		return value.Str(f[1 : len(f)-1])
	}
	if n, err := strconv.ParseInt(f, 10, 64); err == nil {
		return value.Int(n)
	}
	return value.Str(f)
}

// runScript executes a query file as a single batch through the backing
// session (script parsing and rendering live in internal/session, shared
// with every other front end).
func runScript(r *repl, path string) (string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	queries := session.ParseScript(string(src))
	if len(queries) == 0 {
		return "", nil
	}
	resps, err := r.execBatch(queries)
	if err != nil {
		return "", err
	}
	return session.Render(resps), nil
}

// execAt runs a read-only query against a retained version: time travel
// over the archive (durable sessions) or the in-memory history.
func execAt(store *funcdb.Store, rest string) string {
	parts := strings.SplitN(strings.TrimSpace(rest), " ", 2)
	if len(parts) != 2 {
		return "usage: .at <version> <query>"
	}
	vn, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return "bad version: " + err.Error()
	}
	db, err := store.VersionAt(vn)
	if err != nil {
		return err.Error()
	}
	tx, err := query.Translate(parts[1])
	if err != nil {
		return err.Error()
	}
	if !tx.IsReadOnly() {
		return "only read-only queries can time-travel (the past is immutable)"
	}
	resp, _, _ := tx.Apply(nil, db, trace.None)
	return fmt.Sprintf("@v%d %s", vn, resp)
}
