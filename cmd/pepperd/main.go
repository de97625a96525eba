// Command pepperd runs the paper's system end to end, in one of two modes.
//
// In-process demo (default): an in-process cluster over the simulated
// network executes a scripted demonstration — bootstrap, load, range
// queries, churn, a failure, and the correctness audit of the whole run
// against Definition 4:
//
//	pepperd [-peers n] [-items n] [-naive] [-seed n] [-v]
//
// Multi-process mode (-listen): this process hosts ONE peer over real TCP,
// so a cluster spans OS processes (and machines). The first process
// bootstraps the ring; every further process announces itself to it as a
// free peer and is drawn into the ring by a Data Store split once the
// bootstrap overflows:
//
//	pepperd -listen 127.0.0.1:7001 -items 40           # bootstrap + load
//	pepperd -listen 127.0.0.1:7002 -join 127.0.0.1:7001 # free peer
//
// -listen must be the dialable address other peers reach this process at
// (it is the peer's identity on the ring).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/replication"
	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/simnet"
)

func main() {
	freePeers := flag.Int("peers", 24, "free peers available for splits")
	items := flag.Int("items", 120, "items to load")
	naive := flag.Bool("naive", false, "use the naive baselines (no correctness/availability guarantees)")
	seed := flag.Int64("seed", 1, "random seed")
	verbose := flag.Bool("v", false, "print per-peer state")
	listen := flag.String("listen", "", "serve one peer over TCP at this dialable host:port (multi-process mode)")
	join := flag.String("join", "", "announce to this bootstrap peer as a free peer (requires -listen)")
	payload := flag.Int("payload", 0, "payload bytes per loaded item (multi-process mode; forces chunked state transfers)")
	dataDir := flag.String("data-dir", "", "durable storage root (multi-process mode): WAL + snapshots per peer identity; restarting with the same -listen and -data-dir recovers the last claimed range, epoch and items")
	syncInterval := flag.Duration("sync-interval", 0, "with -data-dir: batch WAL fsyncs to at most one per interval (0 = fsync every append)")
	lease := flag.Duration("lease", 0, "range-claim lease duration (multi-process mode; 0 disables): a claim not renewed by the owner's replica refresh within this duration may be adopted by its ring successor at a higher epoch; set to several multiples of the refresh period")
	gossipInterval := flag.Duration("gossip-interval", 0, "anti-entropy round interval of the gossiped membership directory (multi-process mode; 0 disables): free peers, range adverts and liveness suspicions spread peer-to-peer so splits keep working after the bootstrap process dies")
	clusterKey := flag.String("cluster-key", "", "path to the shared cluster secret (multi-process mode and -probe): every connection performs a mutual challenge-response handshake proving both ends hold this secret, the peer signs its ownership adverts with an ed25519 identity (persisted in -data-dir, ephemeral otherwise), and received adverts are verified before they can depose anyone; empty disables authentication")
	chaosDropChunk := flag.Int("chaos-drop-chunk", 0, "fault injection (multi-process mode): kill the connection under the first bulk transfer that reaches this chunk sequence number, once per process, to force a stream resume on the real wire; 0 disables")
	probe := flag.String("probe", "", "probe the pepperd process at this address and exit (CI smoke / operators)")
	expect := flag.Int("expect", -1, "with -probe: require a range query to return exactly this many items")
	serving := flag.Bool("serving", false, "with -probe: require the peer to be JOINED and serving a range")
	minPool := flag.Int("min-pool", -1, "with -probe: require at least this many pooled free peers")
	minCacheHits := flag.Int64("min-cache-hits", -1, "with -probe: require the process's owner-lookup cache to report at least this many hits")
	minEpoch := flag.Int64("min-epoch", -1, "with -probe: require the peer's ownership epoch to be at least this (epochs are monotonic per range, so this asserts progress across churn)")
	minRecovered := flag.Int("min-recovered", -1, "with -probe: require the process to have restarted from durable state with at least this many recovered items")
	audit := flag.Bool("audit", false, "with -probe: journal the final query and require a clean Definition 4 audit")
	leaseAudit := flag.Bool("lease-audit", false, "with -probe: require a clean lease-exclusivity audit (no two unexpired leases ever overlapped a key in the process's journal)")
	minGossipFree := flag.Int("min-gossip-free", -1, "with -probe: require the process's gossiped directory to know at least this many free peers")
	minGossipMem := flag.Int("min-gossip-members", -1, "with -probe: require the process's gossiped directory to know at least this many members (membership only grows, so this gate is race-free)")
	minStreamResumes := flag.Int("min-stream-resumes", -1, "with -probe: require the process's transport to have resumed at least this many bulk transfers from the receiver's high-water chunk mark")
	minHandshakeRejects := flag.Int("min-handshake-rejects", -1, "with -probe: require the process's transport to have refused at least this many connections at the authentication handshake")
	probeLoad := flag.Int("probe-load", 0, "with -probe: once the other criteria hold, have the process insert this many fresh items into an item-free key gap of its own range; the JSON status reports the exact loaded interval (loaded_lo/loaded_hi)")
	wait := flag.Duration("wait", 0, "with -probe: keep retrying until satisfied or this timeout elapses")
	probeLB := flag.Uint64("probe-lb", 0, "with -probe -expect: lower bound of the probed query interval")
	probeUB := flag.Uint64("probe-ub", uint64(keyspace.MaxKey), "with -probe -expect: upper bound of the probed query interval")
	jsonOut := flag.Bool("json", false, "with -probe: print the final probe status as one JSON object on stdout (machine-readable; see ops.ProbeStatus)")
	flag.Parse()

	if *probe != "" {
		os.Exit(probeMain(*probe, probeOpts{
			expect:              *expect,
			serving:             *serving,
			minPool:             *minPool,
			minCacheHits:        *minCacheHits,
			minEpoch:            *minEpoch,
			minRecovered:        *minRecovered,
			minGossipFree:       *minGossipFree,
			minGossipMem:        *minGossipMem,
			minStreamResumes:    *minStreamResumes,
			minHandshakeRejects: *minHandshakeRejects,
			audit:               *audit,
			leaseAudit:          *leaseAudit,
			wait:                *wait,
			lb:                  keyspace.Key(*probeLB),
			ub:                  keyspace.Key(*probeUB),
			load:                *probeLoad,
			jsonOut:             *jsonOut,
			clusterKey:          *clusterKey,
		}))
	}
	if *listen != "" {
		serveMain(*listen, *join, *items, *payload, *seed, *dataDir, *syncInterval, *lease, *gossipInterval, *clusterKey, *chaosDropChunk)
		return
	}
	if *join != "" {
		fmt.Fprintln(os.Stderr, "pepperd: -join requires -listen")
		os.Exit(1)
	}

	cfg := core.Config{
		Net: simnet.Config{
			MinLatency:    100 * time.Microsecond,
			MaxLatency:    400 * time.Microsecond,
			DeadCallDelay: 4 * time.Millisecond,
			Seed:          *seed,
		},
		Ring: ring.Config{
			SuccListLen: 4,
			StabPeriod:  10 * time.Millisecond,
			Naive:       *naive,
		},
		Store:               datastore.Config{StorageFactor: 5, CheckPeriod: 20 * time.Millisecond},
		Replication:         replication.Config{Factor: 4, RefreshPeriod: 20 * time.Millisecond, Naive: *naive},
		Router:              router.Config{},
		NaiveQueries:        *naive,
		QueryAttemptTimeout: 2 * time.Second,
		Seed:                *seed,
	}

	c := core.NewCluster(cfg)
	defer c.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "pepperd: %v\n", err)
		os.Exit(1)
	}

	fmt.Println("== bootstrap: first peer owns the whole key space")
	if _, err := c.AddFirstPeer(); err != nil {
		fail(err)
	}
	if err := c.AddFreePeers(*freePeers); err != nil {
		fail(err)
	}

	fmt.Printf("== load: inserting %d items (storage factor 5 forces splits)\n", *items)
	for i := 1; i <= *items; i++ {
		it := datastore.Item{Key: keyspace.Key(i * 1000), Payload: fmt.Sprintf("object-%d", i)}
		if err := c.InsertItem(ctx, it); err != nil {
			fail(fmt.Errorf("insert %d: %w", i, err))
		}
	}
	waitSettled(c)
	fmt.Printf("   ring grew to %d serving peers, %d free peers left\n", len(c.LivePeers()), c.FreeCount())
	if *verbose {
		dump(c)
	}

	fmt.Println("== query: range scans across the ring")
	for _, span := range []uint64{5, 20, 60} {
		iv := keyspace.ClosedInterval(10_000, keyspace.Key(10_000+span*1000))
		res, err := c.RangeQuery(ctx, iv)
		if err != nil {
			fail(err)
		}
		fmt.Printf("   query %v -> %d items\n", iv, len(res))
	}

	fmt.Println("== churn: deleting half the items (underflows force merges)")
	for i := 1; i <= *items/2; i++ {
		if _, err := c.DeleteItem(ctx, keyspace.Key(i*1000)); err != nil {
			fail(err)
		}
	}
	waitSettled(c)
	fmt.Printf("   ring shrank to %d serving peers\n", len(c.LivePeers()))

	fmt.Println("== failure: killing one serving peer; replication revives its items")
	live := c.LivePeers()
	if len(live) > 1 {
		victim := live[0]
		fmt.Printf("   killing %s (%d items)\n", victim.Addr, victim.Store.ItemCount())
		c.KillPeer(victim.Addr)
		deadline := time.Now().Add(15 * time.Second)
		want := *items - *items/2
		for time.Now().Before(deadline) {
			res, err := c.RangeQuery(ctx, keyspace.ClosedInterval(0, keyspace.Key((*items+1)*1000)))
			if err == nil && len(res) == want {
				fmt.Printf("   recovered: full query returns all %d surviving items\n", len(res))
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	fmt.Println("== audit: checking every query of this run against Definition 4")
	violations := c.Log().CheckAllQueries()
	if len(violations) == 0 {
		fmt.Println("   no correctness violations")
	} else {
		fmt.Printf("   %d violations (expected only with -naive):\n", len(violations))
		for i, v := range violations {
			if i >= 10 {
				fmt.Printf("   ... and %d more\n", len(violations)-10)
				break
			}
			fmt.Printf("   %v\n", v)
		}
	}
	if err := c.CheckRing(); err != nil {
		fmt.Printf("   ring consistency: %v\n", err)
	} else {
		fmt.Println("   successor pointers consistent (Definition 5)")
	}

	st := c.Stats()
	fmt.Println("== stats")
	fmt.Printf("   live peers %d, free peers %d, items %d\n", st.LivePeers, st.FreePeers, st.Items)
	fmt.Printf("   splits %d, merges %d, redistributes %d, scan aborts (retried) %d\n",
		st.Splits, st.Merges, st.Redistributes, st.ScanAborts)
	fmt.Printf("   stale-epoch rejects %d, step-downs %d\n",
		st.StaleEpochRejects, st.StepDowns)
}

func waitSettled(c *core.Cluster) {
	last := -1
	for i := 0; i < 100; i++ {
		time.Sleep(50 * time.Millisecond)
		n := len(c.LivePeers())
		if n == last {
			return
		}
		last = n
	}
}

func dump(c *core.Cluster) {
	for _, p := range c.LivePeers() {
		rng, _ := p.Store.Range()
		fmt.Printf("   %-10s val=%-12d range=%-28s items=%d\n",
			p.Addr, p.Ring.Self().Val, rng, p.Store.ItemCount())
	}
}
