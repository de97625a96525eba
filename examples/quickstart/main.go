// Quickstart: boot a P2P range index, insert items, run range queries, and
// audit the run for correctness. The run exits 1 when the audit fails.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/datastore"
	"repro/internal/keyspace"
)

func main() {
	// The default configuration mirrors the paper's setup (Section 6.1):
	// successor list length 4, storage factor 5, replication factor 6 —
	// at millisecond scale.
	cfg := core.DefaultConfig()
	cfg.Ring.StabPeriod = 10 * time.Millisecond
	cfg.Store.CheckPeriod = 20 * time.Millisecond
	cfg.Replication.RefreshPeriod = 20 * time.Millisecond

	cluster := core.NewCluster(cfg)
	defer cluster.Shutdown()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// One peer bootstraps the ring and owns the whole key space; free peers
	// stand by for splits.
	if _, err := cluster.AddFirstPeer(); err != nil {
		log.Fatal(err)
	}
	if err := cluster.AddFreePeers(10); err != nil {
		log.Fatal(err)
	}

	// Insert (value, item) pairs. With storage factor 5, peers overflow past
	// 10 items and split: new peers join through the PEPPER insertSucc
	// protocol, so queries stay correct throughout.
	for i := 1; i <= 50; i++ {
		item := datastore.Item{Key: keyspace.Key(i * 100), Payload: fmt.Sprintf("document-%03d", i)}
		if err := cluster.InsertItem(ctx, item); err != nil {
			log.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond) // let splits settle
	fmt.Printf("ring has %d serving peers after load\n", len(cluster.LivePeers()))

	// Range queries: all and only the live items in [lb, ub].
	results, err := cluster.RangeQuery(ctx, keyspace.ClosedInterval(1200, 2500))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("items with keys in [1200, 2500]:\n")
	for _, it := range results {
		fmt.Printf("  %5d  %s\n", it.Key, it.Payload)
	}

	// Equality lookups are point ranges.
	one, err := cluster.RangeQuery(ctx, keyspace.Point(3000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("point lookup 3000 -> %v\n", one)

	// Every query in this run is journaled; audit them against the paper's
	// correctness definition (Definition 4).
	if v := cluster.Log().CheckAllQueries(); len(v) == 0 {
		fmt.Println("audit: all queries returned correct results")
	} else {
		fmt.Printf("audit: %d violations: %v\n", len(v), v)
		os.Exit(1)
	}
}
