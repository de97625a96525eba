// Digital library: date-range search over a skewed publication archive
// (one of the paper's application classes, Section 1).
//
// Articles are indexed by publication date. Publication dates are heavily
// skewed toward the present — exactly the distribution that breaks
// hash-based indices and forces an order-preserving range index to keep
// rebalancing (splits and redistributions, Section 2.3). The example loads a
// Zipf-skewed archive, shows the resulting storage balance across peers,
// and runs date-range searches. The run exits 1 when a search breaks
// Definition 4.
//
//	go run ./examples/digitallibrary
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/workload"
)

// Dates are encoded as days since 1900-01-01; the archive spans ~120 years.
const (
	daysSpan  = 120 * 365
	articles  = 150
	epochYear = 1900
)

func dateOf(k keyspace.Key) string {
	days := int(k) / 1000 // keys carry a uniqueness suffix in the low digits
	return fmt.Sprintf("%d-doy%03d", epochYear+days/365, days%365+1)
}

func main() {
	cfg := core.DefaultConfig()
	cfg.Ring.StabPeriod = 10 * time.Millisecond
	cfg.Store.CheckPeriod = 20 * time.Millisecond
	cfg.Replication.RefreshPeriod = 25 * time.Millisecond

	cluster := core.NewCluster(cfg)
	defer cluster.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if _, err := cluster.AddFirstPeer(); err != nil {
		log.Fatal(err)
	}
	if err := cluster.AddFreePeers(30); err != nil {
		log.Fatal(err)
	}

	// Zipf-skewed publication dates: recent decades dominate. The generator
	// yields hot buckets at the low end, so mirror it onto "days ago".
	gen := workload.NewZipfKeys(5, 0, daysSpan-1, 60, 1.4)
	seen := make(map[keyspace.Key]bool)
	for i := 0; i < articles; i++ {
		daysAgo := uint64(gen.Next())
		day := uint64(daysSpan-1) - daysAgo
		key := keyspace.Key(day*1000 + uint64(i)%1000) // unique per article
		if seen[key] {
			continue
		}
		seen[key] = true
		item := datastore.Item{Key: key, Payload: fmt.Sprintf("article-%04d (%s)", i, dateOf(key))}
		if err := cluster.InsertItem(ctx, item); err != nil {
			log.Fatal(err)
		}
	}
	time.Sleep(400 * time.Millisecond)

	// Storage balance: despite the skew, the split/merge/redistribute
	// machinery keeps every peer between sf and 2·sf items.
	type load struct {
		addr  string
		items int
		rng   keyspace.Range
	}
	var loads []load
	for _, p := range cluster.LivePeers() {
		r, _ := p.Store.Range()
		loads = append(loads, load{addr: string(p.Addr), items: p.Store.ItemCount(), rng: r})
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i].rng.Hi < loads[j].rng.Hi })
	fmt.Printf("archive of %d articles over %d peers (storage factor 5):\n", len(seen), len(loads))
	for _, l := range loads {
		fmt.Printf("  %-9s %-32s %2d articles %s\n", l.addr, l.rng, l.items, bar(l.items))
	}

	// Date-range searches.
	searches := []struct {
		name   string
		lo, hi int // years
	}{
		{"the war years", 1939, 1945},
		{"the nineties", 1990, 2000},
		{"this decade", 2012, 2020},
	}
	for _, s := range searches {
		lb := keyspace.Key((s.lo - epochYear) * 365 * 1000)
		ub := keyspace.Key((s.hi - epochYear) * 365 * 1000)
		res, err := cluster.RangeQuery(ctx, keyspace.ClosedInterval(lb, ub))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("search %-16s [%d..%d] -> %d articles\n", s.name, s.lo, s.hi, len(res))
		for i, it := range res {
			if i >= 3 {
				fmt.Printf("  ... and %d more\n", len(res)-3)
				break
			}
			fmt.Printf("  %s\n", it.Payload)
		}
	}

	if v := cluster.Log().CheckAllQueries(); len(v) == 0 {
		fmt.Println("audit: every search returned exactly the live matching articles")
	} else {
		fmt.Printf("audit: %d violations: %v\n", len(v), v)
		os.Exit(1)
	}
}

func bar(n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += "#"
	}
	return out
}
