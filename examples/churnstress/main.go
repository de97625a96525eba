// Churn stress: side-by-side comparison of the PEPPER protocols against the
// naive baselines under identical aggressive churn — the paper's argument in
// one run.
//
// Two clusters process the same workload: continuous inserts and deletes
// (splits, merges, redistributions) plus concurrent range queries. The
// PEPPER cluster must end with zero correctness violations; the naive
// cluster may miss live items (Section 4.2) and is checked only to show the
// contrast, which a random schedule rarely exposes. The run exits 1 when the
// PEPPER cluster has a violation.
//
//	go run ./examples/churnstress
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datastore"
	"repro/internal/keyspace"
)

func buildConfig(naive bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Ring.StabPeriod = 8 * time.Millisecond
	cfg.Ring.Naive = naive
	cfg.Store.CheckPeriod = 10 * time.Millisecond
	cfg.Replication.RefreshPeriod = 15 * time.Millisecond
	cfg.Replication.Naive = naive
	return cfg
}

func runWorkload(name string, naive bool) int {
	cluster := core.NewCluster(buildConfig(naive))
	defer cluster.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if _, err := cluster.AddFirstPeer(); err != nil {
		log.Fatal(err)
	}
	if err := cluster.AddFreePeers(16); err != nil {
		log.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if err := cluster.InsertItem(ctx, datastore.Item{Key: keyspace.Key(i * 100)}); err != nil {
			log.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond)

	stop := make(chan struct{})
	var mutator sync.WaitGroup
	for m := 0; m < 3; m++ {
		mutator.Add(1)
		go func(m int) {
			defer mutator.Done()
			rng := rand.New(rand.NewSource(int64(123 + m)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := keyspace.Key(uint64(rng.Intn(80)+1) * 100)
				if rng.Intn(2) == 0 {
					_, _ = cluster.DeleteItem(ctx, k)
				} else {
					_ = cluster.InsertItem(ctx, datastore.Item{Key: k})
				}
			}
		}(m)
	}

	queries := 0
	qrng := rand.New(rand.NewSource(321))
	entryRng := rand.New(rand.NewSource(322))
	for i := 0; i < 100; i++ {
		lb := uint64(qrng.Intn(40)+1) * 100
		span := uint64(qrng.Intn(40)+1) * 100
		iv := keyspace.ClosedInterval(keyspace.Key(lb), keyspace.Key(lb+span))
		var err error
		if !naive {
			_, err = cluster.RangeQuery(ctx, iv)
		} else if live := cluster.LivePeers(); len(live) > 0 {
			// The Section 6.2 unlocked scan, from a random live peer.
			_, _, err = live[entryRng.Intn(len(live))].NaiveRangeQuery(ctx, iv)
		} else {
			err = core.ErrNoLivePeer
		}
		if err == nil {
			queries++
		}
	}
	close(stop)
	mutator.Wait()

	violations := cluster.Log().CheckAllQueries()
	fmt.Printf("%-8s %3d queries under churn, %d correctness violations\n", name, queries, len(violations))
	for i, v := range violations {
		if i >= 5 {
			fmt.Printf("         ... and %d more\n", len(violations)-5)
			break
		}
		fmt.Printf("         %v\n", v)
	}
	return len(violations)
}

func main() {
	fmt.Println("same aggressive churn workload against both stacks:")
	pepper := runWorkload("PEPPER", false)
	naive := runWorkload("naive", true)

	fmt.Println()
	switch {
	case pepper == 0 && naive > 0:
		fmt.Println("PEPPER returned only correct results; the naive baselines missed live items — the Section 4.2 anomalies are real and the protocols close them.")
	case pepper == 0:
		fmt.Println("PEPPER returned only correct results; the naive baselines did too: this random schedule did not expose the Section 4.2 race, which needs a query to interleave with a split or merge at the wrong moment.")
	default:
		fmt.Println("unexpected: PEPPER produced violations — this is a bug.")
		os.Exit(1)
	}
}
