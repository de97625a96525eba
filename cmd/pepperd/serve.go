package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/datastore"
	"repro/internal/gossip"
	"repro/internal/keyspace"
	"repro/internal/ops"
	"repro/internal/replication"
	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// tcpPeerConfig tunes the component stack for real-network latencies (the
// paper's second-scale parameters compressed to LAN scale).
func tcpPeerConfig(seed int64) core.Config {
	return core.Config{
		Ring: ring.Config{
			SuccListLen: 4,
			StabPeriod:  250 * time.Millisecond,
			PingPeriod:  250 * time.Millisecond,
			CallTimeout: 2 * time.Second,
			AckTimeout:  20 * time.Second,
		},
		Store: datastore.Config{
			StorageFactor:      5,
			CheckPeriod:        300 * time.Millisecond,
			CallTimeout:        2 * time.Second,
			MaintenanceTimeout: 20 * time.Second,
		},
		Replication: replication.Config{
			Factor:        3,
			RefreshPeriod: 500 * time.Millisecond,
			CallTimeout:   2 * time.Second,
		},
		Router: router.Config{
			RefreshPeriod: 500 * time.Millisecond,
			CallTimeout:   2 * time.Second,
			MaxHops:       64,
		},
		QueryAttemptTimeout: 10 * time.Second,
		MaxQueryAttempts:    20,
		Seed:                seed,
	}
}

// serveMain runs one peer as its own OS process over TCP: the -listen mode.
func serveMain(listen, join string, items, payload int, seed int64, dataDir string, syncInterval, lease, gossipInterval time.Duration, clusterKey string, chaosDropChunk int) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "pepperd: %v\n", err)
		os.Exit(1)
	}

	cfg := tcpPeerConfig(seed)
	cfg.Store.LeaseDuration = lease
	if gossipInterval > 0 {
		cfg.Gossip = gossip.Config{
			Interval:    gossipInterval,
			Fanout:      2,
			CallTimeout: 2 * time.Second,
			Seed:        seed,
		}
	}
	tcpCfg := tcp.Config{DialTimeout: 2 * time.Second, CallTimeout: 10 * time.Second, ChaosChunkDrop: chaosDropChunk}
	if dataDir != "" {
		factory := storage.DiskFactory{Dir: dataDir, Opts: storage.Options{SyncInterval: syncInterval}}
		cfg.Storage = factory
		// Disk staging on both sides of the transport: inbound streamed
		// requests and dial-side chunked responses spill to files, so the
		// MaxStreamBytes RAM ceiling no longer bounds transfer size.
		tcpCfg.Stager = factory.NewStager
	}
	if clusterKey != "" {
		key, err := auth.LoadClusterKey(clusterKey)
		if err != nil {
			fail(err)
		}
		// One identity per process: persisted beside the WAL when -data-dir is
		// set (so a restart resumes the same identity and its advert
		// signatures keep verifying), ephemeral otherwise.
		var id *auth.Identity
		if dataDir != "" {
			id, err = auth.LoadOrCreate(dataDir)
		} else {
			id, err = auth.NewIdentity()
		}
		if err != nil {
			fail(err)
		}
		tcpCfg.ClusterKey = key
		tcpCfg.Identity = id
		cfg.Identities = func(transport.Addr) (*auth.Identity, error) { return id, nil }
		fmt.Printf("pepperd: wire authentication enabled (cluster key %s)\n", clusterKey)
	}
	tr := tcp.New(tcpCfg)
	defer tr.Close()
	node, err := core.NewStandalone(tr, transport.Addr(listen), cfg)
	if err != nil {
		fail(err)
	}
	defer node.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	resumed := false
	if dataDir != "" {
		resumed, err = node.Resume()
		if err != nil {
			fail(err)
		}
	}
	switch {
	case resumed:
		p := node.CurrentPeer()
		rng, epoch, _ := p.Store.RangeEpoch()
		_, n := node.Recovered()
		fmt.Printf("pepperd: recovered at %s: resuming range %s at epoch %d with %d items\n", listen, rng, epoch, n)
	case join == "":
		if err := node.Bootstrap(); err != nil {
			fail(err)
		}
		fmt.Printf("pepperd: bootstrapped ring at %s (owns the full key space)\n", listen)
		if items > 0 {
			go loadItems(ctx, node, items, payload, fail)
		}
	default:
		if err := node.JoinAsFree(ctx, transport.Addr(join)); err != nil {
			fail(err)
		}
		fmt.Printf("pepperd: %s announced as free peer to %s; waiting to be drawn into the ring\n", listen, join)
	}

	ticker := time.NewTicker(2 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-sigCh:
			fmt.Println("pepperd: shutting down")
			return
		case <-ticker.C:
			printStatus(node)
		}
	}
}

// loadItems feeds the index from this process, forcing splits that pull
// announced free peers into the ring. A non-zero payload size pads every
// item, so the resulting split hand-offs and replica pushes exercise the
// chunked streaming transfer on the real wire.
func loadItems(ctx context.Context, node *core.Standalone, items, payload int, fail func(error)) {
	pad := ""
	if payload > 0 {
		pad = strings.Repeat("x", payload)
	}
	for i := 1; i <= items; i++ {
		it := datastore.Item{Key: keyspace.Key(i * 1000), Payload: fmt.Sprintf("object-%d%s", i, pad)}
		if err := node.CurrentPeer().InsertItem(ctx, it); err != nil {
			if ctx.Err() != nil {
				return
			}
			fail(fmt.Errorf("insert %d: %w", i, err))
		}
	}
	fmt.Printf("pepperd: loaded %d items\n", items)
	iv := keyspace.ClosedInterval(0, keyspace.Key((items+1)*1000))
	res, stats, err := node.CurrentPeer().RangeQueryStats(ctx, iv)
	if err != nil {
		fmt.Printf("pepperd: full-range query failed: %v\n", err)
		return
	}
	fmt.Printf("pepperd: full-range query -> %d items in %v over %d hops\n", len(res), stats.ScanTime, stats.Hops)
}

// probeOpts are the success criteria of one pepperd -probe invocation.
type probeOpts struct {
	expect              int           // required query item count; <0 = no query
	serving             bool          // require JOINED with a range
	minPool             int           // required free-pool size; <0 = don't care
	minCacheHits        int64         // required owner-lookup cache hits; <0 = don't care
	minEpoch            int64         // required ownership epoch; <0 = don't care
	minRecovered        int           // required recovered-item count; <0 = don't care
	minGossipFree       int           // required gossiped free-directory entries; <0 = don't care
	minGossipMem        int           // required gossiped member count; <0 = don't care
	minStreamResumes    int           // required resumed bulk transfers; <0 = don't care
	minHandshakeRejects int           // required handshake refusals; <0 = don't care
	audit               bool          // final journaled query + Definition 4 audit
	leaseAudit          bool          // final lease-exclusivity audit (CheckLeases)
	wait                time.Duration // keep retrying until satisfied or this elapses
	lb                  keyspace.Key  // query interval lower bound
	ub                  keyspace.Key  // query interval upper bound
	load                int           // items to probe-load once criteria hold; 0 = none
	jsonOut             bool          // emit the final status as JSON on stdout
	clusterKey          string        // cluster-secret path; the probe's own dials handshake with it
}

// probeMain is the -probe mode: a thin RPC client that interrogates a
// running pepperd process and exits 0 only when the process satisfies the
// requested criteria. The CI cluster-smoke job drives the whole churn cycle
// with it. Polling probes run unjournaled queries; with -audit, once the
// criteria hold, one final journaled query runs and the process's
// Definition 4 checker must come back clean.
func probeMain(target string, o probeOpts) int {
	tcpCfg := tcp.Config{DialTimeout: 2 * time.Second, CallTimeout: 60 * time.Second}
	if o.clusterKey != "" {
		key, err := auth.LoadClusterKey(o.clusterKey)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pepperd: %v\n", err)
			return 1
		}
		tcpCfg.ClusterKey = key // ephemeral probe identity, minted by tcp.New
	}
	tr := tcp.New(tcpCfg)
	defer tr.Close()
	ctx := context.Background()
	deadline := time.Now().Add(o.wait)

	req := ops.ProbeRequest{Query: o.expect >= 0, Lo: o.lb, Hi: o.ub}
	var st ops.ProbeStatus
	var err error
	for {
		st, err = core.Probe(ctx, tr, "probe", transport.Addr(target), req)
		if err == nil && probeSatisfied(st, o) {
			break
		}
		if time.Now().After(deadline) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "pepperd: probe %s failed: %v\n", target, err)
			} else {
				fmt.Fprintf(os.Stderr, "pepperd: probe %s unsatisfied: %s\n", target, renderStatus(st))
			}
			return 1
		}
		time.Sleep(time.Second)
	}

	if o.load > 0 {
		// One-shot (not retried: loads are not idempotent) once the polling
		// criteria hold. The reply carries the exact loaded interval.
		loadReq := req
		loadReq.LoadItems = o.load
		st, err = core.Probe(ctx, tr, "probe", transport.Addr(target), loadReq)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pepperd: load probe %s failed: %v\n", target, err)
			return 1
		}
	}

	if o.audit || o.leaseAudit {
		req.Journal, req.Audit, req.LeaseAudit = o.audit, o.audit, o.leaseAudit
		req.Query = req.Query && o.audit
		st, err = core.Probe(ctx, tr, "probe", transport.Addr(target), req)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pepperd: audit probe %s failed: %v\n", target, err)
			return 1
		}
		if o.audit && (!probeSatisfied(st, o) || st.Violations != 0) {
			fmt.Fprintf(os.Stderr, "pepperd: audit %s not clean: %s\n", target, renderStatus(st))
			return 1
		}
		if o.leaseAudit && st.LeaseViolations != 0 {
			fmt.Fprintf(os.Stderr, "pepperd: lease audit %s not clean: %s\n", target, renderStatus(st))
			return 1
		}
	}
	if o.jsonOut {
		// Machine-readable mode: the status object is the ONLY stdout output,
		// so scripts can pipe it straight into a JSON parser.
		out, err := json.Marshal(st)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pepperd: encoding probe status: %v\n", err)
			return 1
		}
		fmt.Println(string(out))
		return 0
	}
	fmt.Printf("pepperd: probe %s ok: %s\n", target, renderStatus(st))
	return 0
}

// probeSatisfied checks one status against the criteria (ignoring the audit
// verdict, which only the final journaled probe carries).
func probeSatisfied(st ops.ProbeStatus, o probeOpts) bool {
	if o.expect >= 0 && (st.QueryErr != "" || st.QueryCount != o.expect) {
		return false
	}
	if o.serving && (st.State != "JOINED" || !st.HasRange) {
		return false
	}
	if o.minPool >= 0 && st.FreePool < o.minPool {
		return false
	}
	if o.minCacheHits >= 0 && st.CacheHits < uint64(o.minCacheHits) {
		return false
	}
	if o.minEpoch >= 0 && st.Epoch < uint64(o.minEpoch) {
		return false
	}
	if o.minRecovered >= 0 && (!st.Recovered || st.RecoveredItems < o.minRecovered) {
		return false
	}
	if o.minGossipFree >= 0 && st.GossipFree < o.minGossipFree {
		return false
	}
	// Membership is a monotone union across merges, so unlike the free count
	// this gate can never be satisfied and then un-satisfied by a racing
	// split: it is the race-free way to wait for directory spread.
	if o.minGossipMem >= 0 && st.GossipMembers < o.minGossipMem {
		return false
	}
	if o.minStreamResumes >= 0 && st.StreamResumes < uint64(o.minStreamResumes) {
		return false
	}
	if o.minHandshakeRejects >= 0 && st.HandshakeRejects < uint64(o.minHandshakeRejects) {
		return false
	}
	return st.RejoinErr == ""
}

// renderStatus formats a probe status for the job log.
func renderStatus(st ops.ProbeStatus) string {
	out := fmt.Sprintf("state=%s val=%d epoch=%d items=%d replicas=%d free-pool=%d cache-hits=%d/%d (entries=%d) replica-reads=%d stale-epoch-rejects=%d stale-chain-refusals=%d step-downs=%d",
		st.State, st.Val, st.Epoch, st.Items, st.Replicas, st.FreePool, st.CacheHits, st.CacheHits+st.CacheMisses, st.CacheEntries, st.ReplicaReads, st.StaleEpochRejects, st.StaleChainRefusals, st.StepDowns)
	if st.QueryErr != "" {
		out += fmt.Sprintf(" query-err=%q", st.QueryErr)
	} else if st.QueryCount >= 0 {
		out += fmt.Sprintf(" query-items=%d", st.QueryCount)
	}
	if st.Violations >= 0 {
		out += fmt.Sprintf(" violations=%d", st.Violations)
	}
	if st.LeaseEnabled {
		out += fmt.Sprintf(" lease-age-ms=%d lease-expired=%t lease-adoptions=%d", st.LeaseAgeMs, st.LeaseExpired, st.LeaseAdoptions)
	}
	if st.LeaseViolations >= 0 {
		out += fmt.Sprintf(" lease-violations=%d", st.LeaseViolations)
	}
	if st.GossipMembers > 0 {
		out += fmt.Sprintf(" gossip-members=%d gossip-free=%d gossip-rounds=%d", st.GossipMembers, st.GossipFree, st.GossipRounds)
	}
	if st.AuthEnabled {
		out += fmt.Sprintf(" auth=on handshake-rejects=%d sig-rejects=%d", st.HandshakeRejects, st.SigRejects)
	}
	if st.StreamResumes > 0 {
		out += fmt.Sprintf(" stream-resumes=%d", st.StreamResumes)
	}
	if st.RejoinErr != "" {
		out += fmt.Sprintf(" rejoin-err=%q", st.RejoinErr)
	}
	return out
}

func printStatus(node *core.Standalone) {
	p := node.CurrentPeer()
	state := p.Ring.State()
	if rng, ok := p.Store.Range(); ok {
		fmt.Printf("pepperd: state=%s val=%d range=%s items=%d replicas=%d free-pool=%d\n",
			state, p.Ring.Self().Val, rng, p.Store.ItemCount(), p.Rep.ReplicaCount(), node.Pool.Len())
	} else {
		fmt.Printf("pepperd: state=%s (no range assigned yet) free-pool=%d\n", state, node.Pool.Len())
	}
}
