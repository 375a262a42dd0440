// Distributed: the paper's Section 3 primary-copy model over real TCP —
// three cluster nodes on loopback, each a durable store in its own
// temporary directory. Every relation has one primary node, chosen by a
// hash every node computes alike; clients may dial any node, which
// forwards a statement it does not own to the owner, and the owner's log
// ships to the other nodes' replicas.
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"funcdb"
	"funcdb/client"
)

func main() {
	dir, err := os.MkdirTemp("", "funcdb-distributed-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Bind every port first: each node needs the whole membership list.
	const size = 3
	lns := make([]net.Listener, size)
	addrs := make([]string, size)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
		addrs[i] = lns[i].Addr().String()
	}
	rels := []string{"parts", "orders", "employees"} // one primary per node
	nodes := make([]*funcdb.ClusterNode, size)
	for i := range nodes {
		nodes[i], err = funcdb.OpenClusterNode(funcdb.ClusterNodeConfig{
			ID:        i,
			Nodes:     addrs,
			Listener:  lns[i],
			Dir:       filepath.Join(dir, fmt.Sprintf("node%d", i)),
			Relations: rels,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer nodes[i].Shutdown()
		go nodes[i].Serve()
	}
	for _, rel := range rels {
		owner, _ := nodes[0].Owner(rel)
		fmt.Printf("%s: primary copy at %s\n", rel, owner)
	}

	// Clients dial arbitrary nodes; a node that does not own a relation
	// forwards the statement to the node that does.
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.Dial(addrs[c%size], client.WithOrigin(fmt.Sprintf("client%d", c)))
			if err != nil {
				log.Fatal(err)
			}
			defer cl.Close()
			for i := 0; i < 10; i++ {
				k := funcdb.Int(int64(c*100 + i)).String()
				for _, rel := range rels {
					if resp, err := cl.Exec("insert (" + k + `, "v") into ` + rel); err != nil || resp.Err != nil {
						log.Fatalf("client %d: %v / %v", c, err, resp.Err)
					}
				}
			}
		}(c)
	}
	wg.Wait()

	for _, rel := range rels {
		for i, node := range nodes {
			if _, self := node.Owner(rel); self {
				resp, err := node.Store().Exec("count " + rel)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("%s: %d tuples on its primary, node %d, after 4 concurrent clients\n", rel, resp.Count, i)
			}
		}
	}

	// Each replica catches up to its peers' logs.
	deadline := time.Now().Add(5 * time.Second)
	for _, node := range nodes {
		for peer := range nodes {
			if peer == node.ID() {
				continue
			}
			want := nodes[peer].Store().Version()
			for node.ReplicaVersion(peer) < want && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			fmt.Printf("node %d mirrors node %d at version %d of %d\n", node.ID(), peer, node.ReplicaVersion(peer), want)
		}
	}
	forwards := int64(0)
	for _, node := range nodes {
		forwards += node.MetricsSnapshot().Cluster.ForwardStmts
	}
	fmt.Printf("%d statements were forwarded from the node a client dialed to the relation's primary\n", forwards)
}
