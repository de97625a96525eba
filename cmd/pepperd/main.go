// Command pepperd runs one peer of the paper's system over real TCP, so a
// cluster spans OS processes (and machines). The first process bootstraps
// the ring; every further process announces itself to it as a free peer and
// is drawn into the ring by a Data Store split once the bootstrap overflows:
//
//	pepperd -listen 127.0.0.1:7001 -items 40           # bootstrap + load
//	pepperd -listen 127.0.0.1:7002 -join 127.0.0.1:7001 # free peer
//
// -listen must be the dialable address other peers reach this process at
// (it is the peer's identity on the ring). pepperd -probe <addr> queries a
// running peer and exits 0 or 1. The in-process runs over the simulated
// network live in examples/.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/keyspace"
)

func main() {
	items := flag.Int("items", 120, "items the bootstrap loads")
	seed := flag.Int64("seed", 1, "random seed")
	listen := flag.String("listen", "", "serve one peer over TCP at this dialable host:port")
	join := flag.String("join", "", "announce to this bootstrap peer as a free peer (requires -listen)")
	payload := flag.Int("payload", 0, "payload bytes per loaded item (forces chunked state transfers)")
	dataDir := flag.String("data-dir", "", "durable storage root: WAL + snapshots per peer identity; restarting with the same -listen and -data-dir recovers the last claimed range, epoch and items")
	syncInterval := flag.Duration("sync-interval", 0, "with -data-dir: batch WAL fsyncs to at most one per interval (0 = fsync every append)")
	lease := flag.Duration("lease", 0, "range-claim lease duration (0 disables): a claim not renewed by the owner's replica refresh within this duration may be adopted by its ring successor at a higher epoch; set to several multiples of the refresh period")
	gossipInterval := flag.Duration("gossip-interval", 0, "anti-entropy round interval of the gossiped membership directory (0: no rounds): free peers, range adverts and liveness suspicions spread peer-to-peer so splits keep working after the bootstrap process dies")
	clusterKey := flag.String("cluster-key", "", "path to the shared cluster secret (also for -probe): every connection performs a mutual challenge-response handshake proving both ends hold this secret, the peer signs its ownership adverts with an ed25519 identity (persisted in -data-dir, ephemeral otherwise), and received adverts are verified before they can depose anyone; empty disables authentication")
	chaosDropChunk := flag.Int("chaos-drop-chunk", 0, "fault injection: kill the connection under the first bulk transfer that reaches this chunk sequence number, once per process, so the transfer fails and its protocol must ask again; 0 disables")
	probe := flag.String("probe", "", "probe the pepperd process at this address and exit (CI smoke / operators)")
	expect := flag.Int("expect", -1, "with -probe: require a range query to return exactly this many items")
	serving := flag.Bool("serving", false, "with -probe: require the peer to be JOINED and serving a range")
	minPool := flag.Int("min-pool", -1, "with -probe: require the process's directory to hold at least this many free peers")
	minCacheHits := flag.Int64("min-cache-hits", -1, "with -probe: require the process's owner-lookup cache to report at least this many hits")
	minEpoch := flag.Int64("min-epoch", -1, "with -probe: require the peer's ownership epoch to be at least this (epochs are monotonic per range, so this asserts progress across churn)")
	minRecovered := flag.Int("min-recovered", -1, "with -probe: require the process to have restarted from durable state with at least this many recovered items")
	audit := flag.Bool("audit", false, "with -probe: journal the final query and require a clean Definition 4 audit")
	leaseAudit := flag.Bool("lease-audit", false, "with -probe: require a clean lease-exclusivity audit (no two unexpired leases ever overlapped a key in the process's journal)")
	minGossipMem := flag.Int("min-gossip-members", -1, "with -probe: require the process's gossiped directory to know at least this many members (membership only grows, so this gate is race-free)")
	minChaosDrops := flag.Int("min-chaos-drops", -1, "with -probe: require the process's -chaos-drop-chunk fault to have killed at least this many connections under a bulk transfer")
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
			minGossipMem:        *minGossipMem,
			minChaosDrops:       *minChaosDrops,
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
	fmt.Fprintln(os.Stderr, "pepperd: -listen or -probe is required")
	flag.Usage()
	os.Exit(2)
}
