package funcdb_test

import (
	"errors"
	"go/parser"
	"go/token"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"funcdb"
	"funcdb/client"
	"funcdb/internal/cluster"
)

func TestOpenAndExec(t *testing.T) {
	store, err := funcdb.Open(funcdb.WithRelations("R", "S"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := store.Exec(`insert (1, "a") into R`)
	if err != nil || resp.Err != nil {
		t.Fatalf("insert: %v %v", err, resp.Err)
	}
	resp, err = store.Exec("find 1 in R")
	if err != nil || !resp.Found {
		t.Fatalf("find: %v %+v", err, resp)
	}
	if _, err := store.Exec("not a query"); err == nil {
		t.Error("parse error not surfaced")
	}
	if got := store.Current().TotalTuples(); got != 1 {
		t.Errorf("tuples = %d", got)
	}
}

func TestOpenWithData(t *testing.T) {
	store := funcdb.MustOpen(
		funcdb.WithData("parts", funcdb.NewTuple(funcdb.Int(1), funcdb.Str("bolt"))),
		funcdb.WithRepresentation(funcdb.RepPaged),
	)
	resp, _ := store.Exec("find 1 in parts")
	if !resp.Found || resp.Tuple.Field(1).AsString() != "bolt" {
		t.Errorf("find = %+v", resp)
	}
}

func TestBadOptions(t *testing.T) {
	if _, err := funcdb.Open(funcdb.WithHistory(-2)); err == nil {
		t.Error("negative history accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustOpen did not panic")
		}
	}()
	funcdb.MustOpen(funcdb.WithHistory(-2))
}

func TestExecAsyncPipelines(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	var futures []*funcdb.Future
	for i := 0; i < 20; i++ {
		fut, err := store.ExecAsync(`insert ` + funcdb.Int(int64(i)).String() + ` into R`)
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, fut)
	}
	for _, f := range futures {
		if resp := f.Force(); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	resp, _ := store.Exec("count R")
	if resp.Count != 20 {
		t.Errorf("count = %d", resp.Count)
	}
}

func TestHistoryTimeTravel(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"), funcdb.WithHistory(0))
	for i := 0; i < 5; i++ {
		if _, err := store.Exec(`insert ` + funcdb.Int(int64(i)).String() + ` into R`); err != nil {
			t.Fatal(err)
		}
	}
	h := store.History()
	if h == nil {
		t.Fatal("history disabled")
	}
	if h.Len() != 6 { // initial + 5 writes
		t.Fatalf("history kept %d versions", h.Len())
	}
	v2, err := h.Version(2)
	if err != nil {
		t.Fatal(err)
	}
	if v2.TotalTuples() != 2 {
		t.Errorf("version 2 has %d tuples", v2.TotalTuples())
	}
	// Reads do not create versions.
	if _, err := store.Exec("count R"); err != nil {
		t.Fatal(err)
	}
	if h.Len() != 6 {
		t.Error("read created a version")
	}
}

func TestStatsAccumulate(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R"))
	for i := 0; i < 10; i++ {
		if _, err := store.Exec(`insert ` + funcdb.Int(int64(i)).String() + ` into R`); err != nil {
			t.Fatal(err)
		}
	}
	store.Barrier()
	stats := store.Stats()
	if stats.Created == 0 {
		t.Error("no creations recorded")
	}
	if stats.Fraction < 0 || stats.Fraction > 1 {
		t.Errorf("fraction = %v", stats.Fraction)
	}
}

func TestParse(t *testing.T) {
	tx, err := funcdb.Parse("find 1 in R")
	if err != nil {
		t.Fatal(err)
	}
	if tx.Rel != "R" {
		t.Errorf("Rel = %q", tx.Rel)
	}
	if _, err := funcdb.Parse("bogus"); err == nil {
		t.Error("bad query parsed")
	}
}

func TestConcurrentStoreUse(t *testing.T) {
	store := funcdb.MustOpen(funcdb.WithRelations("R", "S"))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rel := []string{"R", "S"}[w%2]
			for i := 0; i < 50; i++ {
				k := funcdb.Int(int64(w*1000 + i)).String()
				if _, err := store.Exec("insert " + k + " into " + rel); err != nil {
					t.Errorf("insert: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	store.Barrier()
	if got := store.Current().TotalTuples(); got != 8*50 {
		t.Errorf("tuples = %d, want 400", got)
	}
}

func TestWithLanes(t *testing.T) {
	if _, err := funcdb.Open(funcdb.WithLanes(-1)); err == nil {
		t.Error("negative lane count accepted")
	}
	one := funcdb.MustOpen(funcdb.WithLanes(1), funcdb.WithRelations("R"))
	if got := one.Lanes(); got != 1 {
		t.Errorf("Lanes() = %d, want 1", got)
	}
	if def := funcdb.MustOpen(); def.Lanes() < 1 {
		t.Errorf("default Lanes() = %d", def.Lanes())
	}

	// The same queries through 1-lane and 8-lane stores (with history on,
	// so the notifier feeds the version stream) agree on responses, final
	// contents, and the retained history length.
	queries := []string{
		"insert (1, \"a\") into R", "insert (2, \"b\") into S",
		"create T using avl", "insert (3, \"c\") into T",
		"find 1 in R", "delete 2 from S", "count S", "scan T",
	}
	run := func(lanes int) ([]funcdb.Response, *funcdb.Database, int) {
		store := funcdb.MustOpen(funcdb.WithLanes(lanes),
			funcdb.WithRelations("R", "S"), funcdb.WithHistory(0))
		var resps []funcdb.Response
		for _, q := range queries {
			r, err := store.Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			resps = append(resps, r)
		}
		store.Barrier()
		return resps, store.Current(), store.History().Len()
	}
	r1, db1, h1 := run(1)
	r8, db8, h8 := run(8)
	if !db1.Equal(db8) || db1.Version() != db8.Version() {
		t.Fatalf("lane count changed the final database: v%d vs v%d", db1.Version(), db8.Version())
	}
	if h1 != h8 {
		t.Fatalf("history lengths differ: %d vs %d", h1, h8)
	}
	for i := range r1 {
		if r1[i].Found != r8[i].Found || r1[i].Count != r8[i].Count || (r1[i].Err == nil) != (r8[i].Err == nil) {
			t.Fatalf("query %d (%q) differs across lane counts", i, queries[i])
		}
	}
}

// TestOpenCluster: three OpenClusterNodes over loopback answer as one
// store — an insert through one node is found through another.
func TestOpenCluster(t *testing.T) {
	lns := make([]net.Listener, 3)
	addrs := make([]string, len(lns))
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	nodes := make([]*funcdb.ClusterNode, len(lns))
	for i := range nodes {
		node, err := funcdb.OpenClusterNode(funcdb.ClusterNodeConfig{
			ID: i, Nodes: addrs, Listener: lns[i], Dir: t.TempDir(), Relations: []string{"R"},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Shutdown()
		go node.Serve()
		nodes[i] = node
	}
	owner := 0
	for i, node := range nodes {
		if _, self := node.Owner("R"); self {
			owner = i
		}
	}
	exec := func(node int, q string) funcdb.Response {
		t.Helper()
		c, err := client.Dial(addrs[node])
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		resp, err := c.Exec(q)
		if err != nil || resp.Err != nil {
			t.Fatalf("%s through node %d: %v / %v", q, node, err, resp.Err)
		}
		return resp
	}
	exec((owner+1)%3, "insert 1 into R")
	if resp := exec((owner+2)%3, "find 1 in R"); !resp.Found {
		t.Error("cluster find failed")
	}
}

// TestOpenClusterBadHypercube: OpenClusterNode refuses a membership no
// cluster can have.
func TestOpenClusterBadHypercube(t *testing.T) {
	for name, cfg := range map[string]funcdb.ClusterNodeConfig{
		"id outside nodes":     {ID: 2, Nodes: []string{"127.0.0.1:1", "127.0.0.1:2"}, Dir: t.TempDir()},
		"failover on one node": {Nodes: []string{"127.0.0.1:0"}, Dir: t.TempDir(), Failover: &cluster.FailoverConfig{}},
	} {
		if node, err := funcdb.OpenClusterNode(cfg); err == nil {
			node.Shutdown()
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestOpenClusterNodeClosesListener: a listener handed to a node that
// cannot open is closed, not leaked.
func TestOpenClusterNodeClosesListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, err = funcdb.OpenClusterNode(funcdb.ClusterNodeConfig{
		Nodes: []string{ln.Addr().String()}, Listener: ln, Dir: t.TempDir(),
		Failover: &cluster.FailoverConfig{},
	})
	if err == nil {
		t.Fatal("failover on a one-node cluster accepted")
	}
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(time.Second)) // a leaked listener times out
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		ln.Close()
		t.Fatalf("Accept on the refused node's listener = %v, want net.ErrClosed", err)
	}
}

// TestNoSimulatorImports: the public package and the real network code
// (the node command, the server command, the cluster, the server and the
// client) import none of the in-memory network simulation, which stays
// behind internal/ for the paper's figures.
func TestNoSimulatorImports(t *testing.T) {
	banned := map[string]bool{
		"funcdb/internal/netsim": true,
		"funcdb/internal/topo":   true,
	}
	var files []string
	for _, dir := range []string{".", "cmd/fdbserver", "internal/cluster", "internal/server", "client"} {
		matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) == 0 {
			t.Fatalf("no Go files in %s", dir)
		}
		files = append(files, matches...)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); banned[path] {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}
