package funcdb_test

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/archive"
	"funcdb/internal/core"
	"funcdb/internal/eval"
	"funcdb/internal/server"
	"funcdb/internal/trace"
)

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := funcdb.Open(funcdb.WithDurability(dir), funcdb.WithRelations("R", "S"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := store.Exec(fmt.Sprintf("insert (%d, \"v%d\") into R", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.Exec(`insert ("key", 9) into S`); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Exec("delete 7 from R"); err != nil {
		t.Fatal(err)
	}
	want := store.Current()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := funcdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if !again.Current().Equal(want) {
		t.Fatalf("recovered %d tuples, want %d", again.Current().TotalTuples(), want.TotalTuples())
	}
	if again.Current().Version() != want.Version() {
		t.Fatalf("recovered version %d, want %d", again.Current().Version(), want.Version())
	}
	// The stream continues where it left off.
	if _, err := again.Exec("insert 100 into R"); err != nil {
		t.Fatal(err)
	}
	if got, want := again.Current().Version(), want.Version()+1; got != want {
		t.Fatalf("continued at version %d, want %d", got, want)
	}
}

// TestBatchFlushesGroupCommitWindow: a full ExecBatch lands durably
// without any explicit flush, and without sleeping out the window the
// deprecated GroupCommit option once set (an hour here): the notifier
// flushes the batch's records, and ExecBatch returns once they are on
// disk.
func TestBatchFlushesGroupCommitWindow(t *testing.T) {
	dir := t.TempDir()
	store, err := funcdb.Open(
		funcdb.WithRelations("R"),
		funcdb.WithDurability(dir, funcdb.GroupCommit(time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	queries := make([]string, 0, 64)
	for i := 0; i < 60; i++ {
		queries = append(queries, fmt.Sprintf("insert (%d, \"v\") into R", i))
	}
	queries = append(queries, "count R", "find 3 in R", "scan R", "range 1 9 in R")
	if _, err := store.ExecBatch(queries); err != nil {
		t.Fatal(err)
	}

	// Nothing here calls Barrier, Flush or Close: only the notifier's
	// flush can have written the batch. archive.Recover reads the
	// directory as a crashed process would, without disturbing the live
	// writer.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if db, err := archive.Recover(dir); err == nil && db.TotalTuples() == 60 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("full batch never became durable without the window timer")
}

func TestOpenDirRequiresArchive(t *testing.T) {
	if _, err := funcdb.OpenDir(t.TempDir()); err == nil {
		t.Fatal("OpenDir on empty dir succeeded")
	}
	if _, err := funcdb.Open(funcdb.WithDurability("")); err == nil {
		t.Fatal("empty durability dir accepted")
	}
}

func TestDurableTimeTravel(t *testing.T) {
	dir := t.TempDir()
	store, err := funcdb.Open(funcdb.WithDurability(dir, funcdb.SnapshotEvery(3)), funcdb.WithRelations("R"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, err := store.Exec(fmt.Sprintf("insert %d into R", i)); err != nil {
			t.Fatal(err)
		}
	}
	// On-disk time travel from the live store, no in-memory history.
	for _, seq := range []int64{0, 1, 5, 10} {
		db, err := store.VersionAt(seq)
		if err != nil {
			t.Fatalf("VersionAt(%d): %v", seq, err)
		}
		if int64(db.TotalTuples()) != seq {
			t.Fatalf("version %d has %d tuples", seq, db.TotalTuples())
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// And after reopening: the restart keeps the whole stream readable.
	again, err := funcdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	db, err := again.VersionAt(4)
	if err != nil {
		t.Fatal(err)
	}
	if db.TotalTuples() != 4 {
		t.Fatalf("version 4 has %d tuples", db.TotalTuples())
	}
	infos, err := again.ArchivedVersions()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 11 { // snapshot 0 + 10 writes
		t.Fatalf("archived %d versions: %+v", len(infos), infos)
	}
}

func TestDurableCustomAndSnapshotForce(t *testing.T) {
	dir := t.TempDir()
	store, err := funcdb.Open(funcdb.WithDurability(dir), funcdb.WithRelations("R"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Exec("insert (1, 5) into R"); err != nil {
		t.Fatal(err)
	}
	if err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := store.Current()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := funcdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if !again.Current().Equal(want) {
		t.Fatal("snapshot-forced state lost")
	}
}

// transfer is examples/banking's custom transaction: read two balances,
// write two, against one database version; declined without funds.
func transfer(from, to, amount int64) funcdb.Transaction {
	return core.Custom(func(ctx *eval.Ctx, db *funcdb.Database, after trace.TaskID) (core.Response, *funcdb.Database, trace.Op) {
		src, okS, _, err := db.Find(ctx, "accounts", funcdb.Int(from), after)
		if err != nil || !okS {
			return core.Response{Err: fmt.Errorf("missing account %d", from)}, db, trace.Op{}
		}
		dst, okD, _, err := db.Find(ctx, "accounts", funcdb.Int(to), after)
		if err != nil || !okD {
			return core.Response{Err: fmt.Errorf("missing account %d", to)}, db, trace.Op{}
		}
		if src.Field(1).AsInt() < amount {
			return core.Response{Note: "declined"}, db, trace.Op{}
		}
		db, _, _ = db.Insert(ctx, "accounts", funcdb.NewTuple(funcdb.Int(from), funcdb.Int(src.Field(1).AsInt()-amount)), after)
		db, op, _ := db.Insert(ctx, "accounts", funcdb.NewTuple(funcdb.Int(to), funcdb.Int(dst.Field(1).AsInt()+amount)), after)
		return core.Response{Note: "ok"}, db, op
	}, []string{"accounts"}, []string{"accounts"})
}

// TestDurableTransfersWriteNoSnapshots: a durable store with no
// SnapshotEvery commits 150 custom transfers, from three tellers at once.
// Each is one log record of its effect, so the directory still holds only
// the initial snapshot, and recovery returns the same balances.
func TestDurableTransfersWriteNoSnapshots(t *testing.T) {
	dir := t.TempDir()
	opts := []funcdb.Option{funcdb.WithDurability(dir)}
	for i := int64(0); i < 8; i++ {
		opts = append(opts, funcdb.WithData("accounts", funcdb.NewTuple(funcdb.Int(i), funcdb.Int(100))))
	}
	store, err := funcdb.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 3)
	for tlr := int64(0); tlr < 3; tlr++ {
		go func() {
			for i := int64(0); i < 50; i++ {
				tx := transfer((tlr+i)%8, (tlr*3+i*5+1)%8, 1+i%40)
				tx.Origin = fmt.Sprintf("teller%d", tlr)
				if resp := store.Submit(tx).Force(); resp.Err != nil {
					done <- resp.Err
					return
				}
			}
			done <- nil
		}()
	}
	for range 3 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	want := store.Current()
	if want.Version() != 150 {
		t.Fatalf("store at version %d after 150 transfers", want.Version())
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*"))
	if len(snaps) != 1 || filepath.Base(snaps[0]) != "snap-0000000000000000.fdba" {
		t.Fatalf("snapshot files %v, want only snap-0", snaps)
	}
	got, err := archive.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	gotRel, _ := got.RelationFast("accounts")
	wantRel, _ := want.RelationFast("accounts")
	if got.Version() != 150 || fmt.Sprint(gotRel.Tuples()) != fmt.Sprint(wantRel.Tuples()) {
		t.Fatalf("recovered version %d with balances %v, want 150 with %v", got.Version(), gotRel.Tuples(), wantRel.Tuples())
	}
	total := int64(0)
	for _, tu := range gotRel.Tuples() {
		total += tu.Field(1).AsInt()
	}
	if total != 800 {
		t.Fatalf("recovered balances total %d, want 800", total)
	}
}

// TestKillAndRecover interrupts a durable workload with SIGKILL and
// verifies the store reopens at exactly the last durable version: the
// recovered version number S implies tuples 1..S are present and nothing
// else — no partial writes, no lost durable writes, no invented state.
func TestKillAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashWorkloadHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "FDB_CRASH_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait until the workload has demonstrably written log records, then
	// let it run a little longer so the kill lands mid-stream.
	logPath := ""
	deadline := time.Now().Add(20 * time.Second)
	for logPath == "" {
		if time.Now().After(deadline) {
			t.Fatal("helper never started writing")
		}
		matches, _ := filepath.Glob(filepath.Join(dir, "log-*.fdba"))
		for _, m := range matches {
			if fi, err := os.Stat(m); err == nil && fi.Size() > 4096 {
				logPath = m
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, _ = cmd.Process.Wait()
	_ = out.Close()

	store, err := funcdb.OpenDir(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer store.Close()
	cur := store.Current()
	seq := cur.Version()
	if seq == 0 {
		t.Fatal("nothing recovered: kill landed before any durable write")
	}
	// The helper inserts (i, i*10) for i = 1, 2, 3, ... — one commit per
	// version. Recovery to version S must yield exactly tuples 1..S.
	if int64(cur.TotalTuples()) != seq {
		t.Fatalf("version %d has %d tuples", seq, cur.TotalTuples())
	}
	for i := int64(1); i <= seq; i++ {
		resp, err := store.Exec(fmt.Sprintf("find %d in R", i))
		if err != nil || !resp.Found {
			t.Fatalf("tuple %d lost (err %v)", i, err)
		}
		if got := resp.Tuple.Field(1).AsInt(); got != i*10 {
			t.Fatalf("tuple %d has payload %d", i, got)
		}
	}
	// The version stream survives too: fdbarchive-style listing sees S
	// committed writes behind the initial snapshot.
	infos, err := store.ArchivedVersions()
	if err != nil {
		t.Fatal(err)
	}
	var logged int64
	for _, v := range infos {
		if v.Kind == "insert" {
			logged++
		}
	}
	if logged != seq {
		t.Fatalf("archive lists %d inserts, store recovered %d", logged, seq)
	}
	t.Logf("recovered cleanly at version %d", seq)
}

// TestCrashWorkloadHelper is the subprocess body for TestKillAndRecover:
// it opens a durable store and inserts monotonically until killed. It
// skips unless dispatched by the parent.
func TestCrashWorkloadHelper(t *testing.T) {
	dir := os.Getenv("FDB_CRASH_DIR")
	if dir == "" {
		t.Skip("helper: run via TestKillAndRecover")
	}
	store, err := funcdb.Open(funcdb.WithDurability(dir), funcdb.WithRelations("R"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second) // bound the orphan if the parent dies
	for i := int64(1); time.Now().Before(deadline); i++ {
		fut, err := store.ExecAsync(fmt.Sprintf("insert (%d, %d) into R", i, i*10))
		if err != nil {
			t.Fatal(err)
		}
		if i%64 == 0 {
			fut.Force() // keep the pipeline bounded without serializing it
		}
	}
}

// TestAckedInsertSurvivesServerKill: a server node acknowledges an insert
// only once its flush has written it, so a SIGKILL right after the ack
// loses nothing: the node restarted on the same directory finds it. The
// node is opened with GroupCommit(5s), a window that would hold the write
// in memory past the kill if replies left before the flush.
func TestAckedInsertSurvivesServerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	cmd, addr := startServerNode(t, dir)
	c, err := client.Dial(addr, client.WithOrigin("c0"))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := c.Exec(`insert (7, "x") into R`); err != nil || resp.Err != nil {
		t.Fatalf("insert not acked: %v / %v", err, resp.Err)
	}
	c.Close()
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, _ = cmd.Process.Wait()

	_, addr = startServerNode(t, dir)
	c, err = client.Dial(addr, client.WithOrigin("c1"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Exec("find 7 in R")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Found || resp.Tuple.Field(1).AsString() != "x" {
		t.Fatalf("acked insert lost across SIGKILL: find 7 answered found=%v %v", resp.Found, resp.Tuple)
	}
}

// startServerNode runs TestServerNodeHelper on dir in a subprocess and
// returns it with the address it serves; the process is killed at cleanup.
func startServerNode(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestServerNodeHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "FDB_SERVER_NODE_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "server-node-ready "); ok {
				ready <- addr
				break
			}
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case addr := <-ready:
		return cmd, addr
	case <-time.After(20 * time.Second):
		t.Fatal("server node never came up")
		return nil, ""
	}
}

// TestServerNodeHelper is the subprocess body for
// TestAckedInsertSurvivesServerKill: one durable store served over TCP
// until killed. It skips unless dispatched by the parent.
func TestServerNodeHelper(t *testing.T) {
	dir := os.Getenv("FDB_SERVER_NODE_DIR")
	if dir == "" {
		t.Skip("helper: run via TestAckedInsertSurvivesServerKill")
	}
	store, err := funcdb.Open(funcdb.WithRelations("R"),
		funcdb.WithDurability(dir, funcdb.GroupCommit(5*time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	fmt.Println("server-node-ready", srv.Addr())
	_ = srv.Serve() // runs until SIGKILL
}

// TestDurableVersionsSurviveCompaction drives the fdbarchive workflow
// end to end at the API level: write, close, compact, reopen.
func TestDurableVersionsSurviveCompaction(t *testing.T) {
	dir := t.TempDir()
	store, err := funcdb.Open(funcdb.WithDurability(dir, funcdb.SnapshotEvery(4)), funcdb.WithRelations("R"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, err := store.Exec(fmt.Sprintf("insert %d in R", i)); err == nil {
			// "in" is not the insert preposition; make sure bad queries
			// never reach the archive.
			t.Fatal("bad query accepted")
		}
		if _, err := store.Exec(fmt.Sprintf("insert %d into R", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	out := runFdbArchive(t, dir)
	if !strings.Contains(out, "version 10") {
		t.Fatalf("versions output missing tail:\n%s", out)
	}
	again, err := funcdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Current().TotalTuples() != 10 {
		t.Fatalf("recovered %d tuples", again.Current().TotalTuples())
	}
}

// runFdbArchive lists the archive's versions through the store-level API
// (the cmd/fdbarchive logic is tested in its own package).
func runFdbArchive(t *testing.T, dir string) string {
	t.Helper()
	store, err := funcdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	infos, err := store.ArchivedVersions()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, v := range infos {
		fmt.Fprintf(&b, "version %d: %s %s\n", v.Seq, v.Kind, v.Detail)
	}
	return b.String()
}

func TestHistoryRidesObserver(t *testing.T) {
	// The old Submit path forced every write inline; now history must fill
	// in asynchronously yet appear complete after Exec/Barrier.
	store := funcdb.MustOpen(funcdb.WithRelations("R"), funcdb.WithHistory(0))
	var futs []*funcdb.Future
	for i := 0; i < 30; i++ {
		fut, err := store.ExecAsync(fmt.Sprintf("insert %d into R", i))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	for _, f := range futs {
		if resp := f.Force(); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	h := store.History()
	if h.Len() != 31 { // initial + 30
		t.Fatalf("history has %d versions", h.Len())
	}
	for _, v := range h.All()[1:] {
		if int64(v.TotalTuples()) != v.Version() {
			t.Fatalf("version %d materialized with %d tuples (out of order)", v.Version(), v.TotalTuples())
		}
	}
}

// TestEveryRunVersionAnswers: a 500-insert batch into a paged relation is
// one run — one commit, one log record — yet every version inside it
// answers, on disk (VersionAt replays the run's prefix) and in history (the
// run's suspended versions, forced one by one), with the sequential prefix.
func TestEveryRunVersionAnswers(t *testing.T) {
	dir := t.TempDir()
	store, err := funcdb.Open(funcdb.WithRepresentation(funcdb.RepPaged), funcdb.WithRelations("P"),
		funcdb.WithHistory(0), funcdb.WithDurability(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	initial := store.Current()
	txs := make([]funcdb.Transaction, 500)
	for i := range txs {
		// Keys repeat, so later versions overwrite earlier ones.
		txs[i] = core.Insert("P", funcdb.NewTuple(funcdb.Int(int64(i*37%300)), funcdb.Str(fmt.Sprintf("v%d", i))))
	}
	for _, f := range store.SubmitBatch(txs) {
		if r := f.Force(); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	store.Barrier()
	if sum, err := archive.Inspect(dir); err != nil || sum.Files[1].Records != 2 {
		t.Fatalf("the batch left %+v in the log (%v), want its header and one record", sum.Files, err)
	}
	want := initial
	history := store.History()
	for v := 0; v <= len(txs); v++ {
		if v > 0 {
			_, want, _ = txs[v-1].Apply(nil, want, 0)
		}
		onDisk, err := store.VersionAt(int64(v))
		if err != nil {
			t.Fatalf("VersionAt(%d): %v", v, err)
		}
		kept, err := history.Version(int64(v))
		if err != nil {
			t.Fatalf("history version %d: %v", v, err)
		}
		if !onDisk.Equal(want) || onDisk.Version() != int64(v) || !kept.Equal(want) || kept.Version() != int64(v) {
			t.Fatalf("version %d: on disk %d tuples at %d, in history %d at %d; the sequential prefix holds %d",
				v, onDisk.TotalTuples(), onDisk.Version(), kept.TotalTuples(), kept.Version(), want.TotalTuples())
		}
	}
}
