package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/datastore"
	"repro/internal/gossip"
	"repro/internal/keyspace"
	"repro/internal/replication"
	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// Data-set geometry, fixed by the issue: preload keys are 500·j for
// j = 1..itemsPerPeer·peers, so every peer's region is regionSpan key units
// wide and holds itemsPerPeer keys once the cluster is balanced.
const (
	keyStep       = 500
	itemsPerPeer  = 300
	regionSpan    = keyStep * itemsPerPeer
	storageFactor = 200
	payloadBytes  = 128
	// probeResidue marks the keys the churn outage prober inserts; the
	// workload generator never draws them and the oracle ignores them.
	probeResidue = 250
)

// payloadFor derives an item's payload from its key alone, so the oracle can
// check every returned payload without remembering what was written.
func payloadFor(k keyspace.Key) string {
	var b [payloadBytes]byte
	const hex = "0123456789abcdef"
	for i := range b {
		b[i] = hex[(uint64(k)>>(uint(i%16)*4))&0xf]
	}
	return string(b[:])
}

// peerConfig mirrors tcpPeerConfig in cmd/pepperd/serve.go, with the storage
// factor raised so a peer holds a few hundred items.
func peerConfig(seed int64) core.Config {
	return core.Config{
		Ring: ring.Config{
			SuccListLen: 4,
			StabPeriod:  250 * time.Millisecond,
			PingPeriod:  250 * time.Millisecond,
			CallTimeout: 2 * time.Second,
			AckTimeout:  20 * time.Second,
		},
		Store: datastore.Config{
			StorageFactor:      storageFactor,
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

// node is one peer process stand-in: a core.Standalone on its own TCP
// transport and loopback socket.
type node struct {
	sa   *core.Standalone
	tcp  *tcp.Transport
	addr transport.Addr
	dead bool
}

// cluster is the booted system under test.
type cluster struct {
	spec     workloadSpec
	nodes    []*node
	seedAddr transport.Addr
	key      []byte  // cluster secret; nil when the workload runs unauthenticated
	dataDir  string  // WAL root; "" on the memory backend
	tracer   *tracer // nil on untraced runs
	joinTime []time.Duration
	splitMs  []float64 // set-up: time from a peer's overflow to its split having landed
}

// serving reports whether the node's peer has joined the ring with a range.
func (n *node) serving() bool {
	if n.dead {
		return false
	}
	p := n.sa.CurrentPeer()
	_, ok := p.Store.Range()
	return ok && p.Ring.State() == ring.StateJoined
}

// freeLoopbackAddr reserves an ephemeral loopback port by binding and
// releasing it; the peer's transport re-binds it a moment later.
func freeLoopbackAddr() (transport.Addr, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return transport.Addr(addr), nil
}

// newTCP builds one endpoint's transport; on secured workloads every
// connection runs the cluster-secret handshake.
func (c *cluster) newTCP(cfg tcp.Config) *tcp.Transport {
	cfg.ClusterKey = c.key
	return tcp.New(cfg)
}

// wrap returns the transport a component should use: the tracing decorator
// on traced runs, the bare TCP transport otherwise.
func (c *cluster) wrap(t *tcp.Transport, label string) transport.Transport {
	if c.tracer == nil {
		return t
	}
	return c.tracer.wrap(t, label)
}

// startNode assembles one free peer on a fresh transport and socket.
func (c *cluster) startNode(seed int64) (*node, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	cfg := peerConfig(seed)
	tcpCfg := tcp.Config{DialTimeout: 2 * time.Second, CallTimeout: 10 * time.Second}
	if c.dataDir != "" {
		factory := storage.DiskFactory{Dir: c.dataDir}
		cfg.Storage = factory
		tcpCfg.Stager = factory.NewStager
	}
	if c.key != nil {
		id, err := auth.NewIdentity()
		if err != nil {
			return nil, err
		}
		tcpCfg.Identity = id
		cfg.Identities = func(transport.Addr) (*auth.Identity, error) { return id, nil }
		cfg.Store.LeaseDuration = 3 * time.Second
		cfg.Gossip = gossip.Config{Interval: 500 * time.Millisecond, Fanout: 2, CallTimeout: 2 * time.Second, Seed: seed}
	}
	t := c.newTCP(tcpCfg)
	sa, err := core.NewStandalone(c.wrap(t, string(addr)), addr, cfg)
	if err != nil {
		t.Close()
		return nil, fmt.Errorf("assembling peer at %s: %w", addr, err)
	}
	n := &node{sa: sa, tcp: t, addr: addr}
	c.nodes = append(c.nodes, n)
	return n, nil
}

// bootCluster starts the workload's peers, joins them, preloads the data set
// and returns once the cluster is settled and verified: exactly spec.peers
// serving peers holding 280..320 items each, spec.free free peers left, and a
// full-range query returning exactly the preload.
func bootCluster(ctx context.Context, spec workloadSpec, seed int64, dataDir string, tr *tracer) (*cluster, error) {
	c := &cluster{spec: spec, dataDir: dataDir, tracer: tr}
	if spec.secured {
		c.key = []byte(fmt.Sprintf("pring-bench-cluster-secret-%016x", seed))
	}
	boot, err := c.startNode(seed)
	if err != nil {
		return nil, err
	}
	if err := boot.sa.Bootstrap(); err != nil {
		c.close()
		return nil, err
	}
	c.seedAddr = boot.addr

	joiners := spec.peers - 1 + spec.free
	for i := 0; i < joiners; i++ {
		if _, err := c.startNode(seed + int64(i) + 1); err != nil {
			c.close()
			return nil, err
		}
	}
	// Joins are announced concurrently: with the handshake and gossip on, one
	// announce takes seconds, and a deployment's joiners do not queue either.
	c.joinTime = make([]time.Duration, joiners)
	errs := make([]error, joiners)
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			errs[i] = c.nodes[i+1].sa.JoinAsFree(ctx, c.seedAddr)
			c.joinTime[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			c.close()
			return nil, err
		}
	}

	if err := c.preload(ctx); err != nil {
		c.close()
		return nil, err
	}
	if err := c.settle(ctx); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// newClient returns a client of the public tier on its own transport, as a
// remote user would run it. The retry budget is wide enough for an operation
// to ride out a fail-stop until the range is revived: under churn an
// operation may be late, but it must not fail.
func (c *cluster) newClient(id string) (*client.Client, *tcp.Transport, error) {
	t := c.newTCP(tcp.Config{DialTimeout: time.Second, CallTimeout: 2 * time.Second, ConnsPerPeer: 1})
	cli, err := client.New(c.wrap(t, id), client.Config{
		Seeds:        []transport.Addr{c.seedAddr},
		ID:           transport.Addr(id),
		OpTimeout:    20 * time.Second,
		MaxAttempts:  4000,
		RetryBackoff: 5 * time.Millisecond,
		ScanDepth:    3,
	})
	if err != nil {
		t.Close()
		return nil, nil, err
	}
	return cli, t, nil
}

// preloadPlan splits one region's keys into the pass that forces the splits
// and the pass that fills. The first pass carries 201 keys per region, the
// region's top key last: a peer that holds one region's 201 keys plus the
// next region's first 200 overflows past 2·sf = 400 and splits at its median
// item, which is exactly the region boundary.
func preloadPlan(region int) (first, fill []keyspace.Key) {
	base := region * itemsPerPeer
	for j := 1; j <= itemsPerPeer; j++ {
		k := keyspace.Key((base + j) * keyStep)
		if j == 1 || j%3 != 1 {
			first = append(first, k)
		} else {
			fill = append(fill, k)
		}
	}
	return first, fill
}

// insertAll inserts keys through the client from a few concurrent callers.
func insertAll(ctx context.Context, cli *client.Client, keys []keyspace.Key, callers int) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		next     int
		firstErr error
	)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				failed := firstErr != nil
				mu.Unlock()
				if i >= len(keys) || failed {
					return
				}
				if err := cli.Insert(ctx, datastore.Item{Key: keys[i], Payload: payloadFor(keys[i])}); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("preload insert %d: %w", keys[i], err)
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// waitFor polls cond every 5 ms until it holds or ctx ends.
func waitFor(ctx context.Context, what string, cond func() bool) error {
	for !cond() {
		select {
		case <-ctx.Done():
			return fmt.Errorf("timed out waiting for %s", what)
		case <-time.After(5 * time.Millisecond):
		}
	}
	return nil
}

// servingCount counts the peers serving a range.
func (c *cluster) servingCount() int {
	n := 0
	for _, nd := range c.nodes {
		if nd.serving() {
			n++
		}
	}
	return n
}

// preload runs the sequential pass that forces peers-1 splits at the region
// boundaries, then the interleaved pass that fills every region to 300 keys.
func (c *cluster) preload(ctx context.Context) error {
	cli, t, err := c.newClient("bench-setup")
	if err != nil {
		return err
	}
	defer t.Close()
	const callers = 4
	var fill []keyspace.Key
	for r := 0; r < c.spec.peers; r++ {
		first, rest := preloadPlan(r)
		fill = append(fill, rest...)
		top := first[len(first)-1]
		if err := insertAll(ctx, cli, first[:len(first)-1], callers); err != nil {
			return err
		}
		if r > 0 {
			// The top peer now holds 401 items; its split must land before
			// the next key, or the median moves off the region boundary.
			want := r + 1
			start := time.Now()
			if err := waitFor(ctx, fmt.Sprintf("split %d", r), func() bool { return c.servingCount() >= want }); err != nil {
				return err
			}
			c.splitMs = append(c.splitMs, ms(time.Since(start)))
		}
		if err := cli.Insert(ctx, datastore.Item{Key: top, Payload: payloadFor(top)}); err != nil {
			return fmt.Errorf("preload insert %d: %w", top, err)
		}
	}
	// Interleave the fill across regions so every peer receives its share at
	// the same pace.
	n := len(fill) / c.spec.peers
	inter := make([]keyspace.Key, 0, len(fill))
	for i := 0; i < n; i++ {
		for r := 0; r < c.spec.peers; r++ {
			inter = append(inter, fill[r*n+i])
		}
	}
	return insertAll(ctx, cli, inter, callers)
}

// settle waits for the stated shape, lets replication catch up, and verifies
// the preload with one full-range query.
func (c *cluster) settle(ctx context.Context) error {
	shape := func() bool {
		serving, free := 0, 0
		for _, nd := range c.nodes {
			if !nd.serving() {
				free++
				continue
			}
			serving++
			if n := nd.sa.CurrentPeer().Store.ItemCount(); n < 280 || n > 320 {
				return false
			}
		}
		return serving == c.spec.peers && free == c.spec.free
	}
	if err := waitFor(ctx, "the stated cluster shape", shape); err != nil {
		return fmt.Errorf("%w: %s", err, c.describe())
	}
	if err := waitFor(ctx, "replicas to settle", c.replicated); err != nil {
		return fmt.Errorf("%w: %s", err, c.describe())
	}
	return c.verifyPreload(ctx)
}

// replicated reports whether every serving peer holds the items of its
// replication-factor predecessors, which it does once one replica refresh of
// each has reached it.
func (c *cluster) replicated() bool {
	want := 3
	if c.spec.peers-1 < want {
		want = c.spec.peers - 1
	}
	for _, nd := range c.nodes {
		if nd.serving() && nd.sa.CurrentPeer().Rep.ReplicaCount() < want*280 {
			return false
		}
	}
	return true
}

// verifyPreload requires a full-range query to return exactly the preload.
func (c *cluster) verifyPreload(ctx context.Context) error {
	cli, t, err := c.newClient("bench-verify")
	if err != nil {
		return err
	}
	defer t.Close()
	total := itemsPerPeer * c.spec.peers
	items, err := cli.Query(ctx, keyspace.ClosedInterval(0, keyspace.Key((total+1)*keyStep)))
	if err != nil {
		return fmt.Errorf("full-range verification query: %w", err)
	}
	if len(items) != total {
		return fmt.Errorf("full-range verification: %d items, want %d", len(items), total)
	}
	for i, it := range items {
		want := keyspace.Key((i + 1) * keyStep)
		if it.Key != want || it.Payload != payloadFor(want) {
			return fmt.Errorf("full-range verification: item %d is key %d, want %d with its derived payload", i, it.Key, want)
		}
	}
	return nil
}

// describe renders the cluster's shape for error messages.
func (c *cluster) describe() string {
	out := ""
	for i, nd := range c.nodes {
		switch {
		case nd.dead:
			out += fmt.Sprintf(" [%d dead]", i)
		case nd.serving():
			p := nd.sa.CurrentPeer()
			rng, _ := p.Store.Range()
			out += fmt.Sprintf(" [%d %s items=%d replicas=%d]", i, rng, p.Store.ItemCount(), p.Rep.ReplicaCount())
		default:
			out += fmt.Sprintf(" [%d free]", i)
		}
	}
	return out
}

// failStop kills a serving node in two steps, so that what replication had
// not carried over at the instant of the failure can be read off: first the
// node's sockets close — from then on nothing reaches it and nothing leaves
// it — then its items are compared with the replicas of its range held by
// its ring successor, which is where the range will be revived from, and only
// then is the stack stopped. It returns the keys of rng on which the two
// disagree.
func (c *cluster) failStop(victim *node, rng keyspace.Range) map[keyspace.Key]bool {
	victim.tcp.Close()
	diff := make(map[keyspace.Key]bool)
	for _, it := range victim.sa.CurrentPeer().Store.LocalItems() {
		if rng.Contains(it.Key) {
			diff[it.Key] = true
		}
	}
	for _, n := range c.nodes {
		if n == victim || !n.serving() {
			continue
		}
		p := n.sa.CurrentPeer()
		if r, _ := p.Store.Range(); r.Lo != rng.Hi {
			continue
		}
		for _, it := range p.Rep.HeldReplicas() {
			if !rng.Contains(it.Key) {
				continue
			}
			if diff[it.Key] {
				delete(diff, it.Key) // held by both: replicated
			} else {
				diff[it.Key] = true // a delete the successor has not seen
			}
		}
	}
	victim.dead = true
	victim.sa.Close()
	return diff
}

// close tears every live node down.
func (c *cluster) close() {
	for _, n := range c.nodes {
		if !n.dead {
			n.dead = true
			n.sa.Close()
			n.tcp.Close()
		}
	}
}
