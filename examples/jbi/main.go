// JBI battlespace tracker: the paper's motivating application (Section 1).
//
// The Joint Battlespace Infosphere tracks information objects — vehicles in
// the field — as (value, item) pairs where the value encodes geographic
// position. Region queries are range queries; objects must never be missed
// (query correctness) or lost (item availability), even while peers fail
// and the index reorganizes.
//
// This example stores vehicles on a 1-D strip (position in meters along a
// corridor, the 1-D projection of a lat/long region), moves them
// continuously, fires region queries the whole time, kills peers mid-run,
// and audits every query against Definition 4 and the ring against
// Definition 5. The run exits 1 when either audit fails.
//
//	go run ./examples/jbi
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

const (
	vehicles    = 60
	corridorLen = 1_000_000 // meters
	regionSpan  = 100_000   // query window
)

func main() {
	cfg := core.DefaultConfig()
	cfg.Ring.StabPeriod = 10 * time.Millisecond
	cfg.Store.CheckPeriod = 20 * time.Millisecond
	cfg.Replication.RefreshPeriod = 15 * time.Millisecond
	cfg.Replication.Factor = 4

	cluster := core.NewCluster(cfg)
	defer cluster.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if _, err := cluster.AddFirstPeer(); err != nil {
		log.Fatal(err)
	}
	if err := cluster.AddFreePeers(20); err != nil {
		log.Fatal(err)
	}

	// Deploy vehicles at unique positions along the corridor.
	rng := rand.New(rand.NewSource(42))
	positions := make(map[int]keyspace.Key, vehicles)
	taken := make(map[keyspace.Key]int)
	place := func() keyspace.Key {
		for {
			p := keyspace.Key(rng.Intn(corridorLen))
			if _, ok := taken[p]; !ok {
				return p
			}
		}
	}
	for id := 0; id < vehicles; id++ {
		pos := place()
		positions[id], taken[pos] = pos, id
		item := datastore.Item{Key: pos, Payload: fmt.Sprintf("vehicle-%02d", id)}
		if err := cluster.InsertItem(ctx, item); err != nil {
			log.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	fmt.Printf("deployed %d vehicles across %d peers\n", vehicles, len(cluster.LivePeers()))

	// Movement: a vehicle's position update is a delete at the old value and
	// an insert at the new one (search key values identify items).
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		moveRng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := moveRng.Intn(vehicles)
			mu.Lock()
			old := positions[id]
			next := keyspace.Key(moveRng.Intn(corridorLen))
			if _, collision := taken[next]; collision {
				mu.Unlock()
				continue
			}
			delete(taken, old)
			positions[id], taken[next] = next, id
			mu.Unlock()
			if _, err := cluster.DeleteItem(ctx, old); err != nil {
				continue
			}
			_ = cluster.InsertItem(ctx, datastore.Item{Key: next, Payload: fmt.Sprintf("vehicle-%02d", id)})
		}
	}()

	// Region queries under movement and failures.
	queryRng := rand.New(rand.NewSource(99))
	for round := 0; round < 12; round++ {
		if round == 4 || round == 8 {
			live := cluster.LivePeers()
			if len(live) > 3 {
				victim := live[queryRng.Intn(len(live))]
				fmt.Printf("round %2d: peer %s fails (held %d objects)\n", round, victim.Addr, victim.Store.ItemCount())
				cluster.KillPeer(victim.Addr)
			}
		}
		lb := keyspace.Key(queryRng.Intn(corridorLen - regionSpan))
		region := keyspace.ClosedInterval(lb, lb+regionSpan)
		found, err := cluster.RangeQuery(ctx, region)
		if err != nil {
			log.Fatalf("round %d: region query failed: %v", round, err)
		}
		fmt.Printf("round %2d: region %v -> %d objects\n", round, region, len(found))
		time.Sleep(100 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Military-grade requirements: audit the whole run.
	v := cluster.Log().CheckAllQueries()
	if len(v) == 0 {
		fmt.Println("audit: no region query missed or fabricated an object (Definition 4)")
	} else {
		fmt.Printf("audit: %d violations:\n", len(v))
		for _, viol := range v {
			fmt.Printf("  %v\n", viol)
		}
	}
	// The ring heals from the injected failures within a few stabilization
	// rounds; give it a moment before auditing Definition 5.
	var ringErr error
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if ringErr = cluster.CheckRing(); ringErr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if ringErr != nil {
		fmt.Printf("ring audit: %v\n", ringErr)
	} else {
		fmt.Println("ring audit: successor pointers consistent (Definition 5)")
	}
	if len(v) > 0 || ringErr != nil {
		os.Exit(1)
	}
}
