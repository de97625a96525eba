package client

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/replication"
	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// tcpPeerCfg tunes the peer stack for loopback TCP latencies (mirrors the
// core standalone tests).
func tcpPeerCfg() core.Config {
	return core.Config{
		Ring: ring.Config{
			SuccListLen: 4,
			StabPeriod:  20 * time.Millisecond,
			PingPeriod:  20 * time.Millisecond,
			CallTimeout: 500 * time.Millisecond,
			AckTimeout:  5 * time.Second,
		},
		Store: datastore.Config{
			StorageFactor:      5,
			CheckPeriod:        25 * time.Millisecond,
			CallTimeout:        500 * time.Millisecond,
			MaintenanceTimeout: 5 * time.Second,
		},
		Replication: replication.Config{
			Factor:        3,
			RefreshPeriod: 25 * time.Millisecond,
			CallTimeout:   500 * time.Millisecond,
		},
		Router: router.Config{
			RefreshPeriod: 30 * time.Millisecond,
			CallTimeout:   500 * time.Millisecond,
			MaxHops:       64,
		},
		QueryAttemptTimeout: 3 * time.Second,
		MaxQueryAttempts:    30,
		Seed:                7,
	}
}

// testPeer is one OS-process-shaped peer stack: a standalone node plus its
// own transport, so killing the transport fail-stops the whole "process"
// (the client-visible equivalent of kill -9 on a pepperd).
type testPeer struct {
	s  *core.Standalone
	tr *tcp.Transport
}

// kill fail-stops the peer: loops halted, listener closed, every future call
// to it resolving ErrUnreachable.
func (p *testPeer) kill() {
	p.s.Close()
	p.tr.Close()
}

// startPeer binds a fresh loopback endpoint and assembles a standalone peer
// stack on it, each with its own transport so all traffic crosses real
// sockets.
func startPeer(t *testing.T, cfg core.Config) *testPeer {
	t.Helper()
	tr := tcp.New(tcp.Config{DialTimeout: time.Second, CallTimeout: 2 * time.Second})
	t.Cleanup(func() { tr.Close() })
	probe := tcp.New(tcp.Config{})
	bound, err := probe.Listen("127.0.0.1:0", func(transport.Addr, string, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()
	s, err := core.NewStandalone(tr, bound, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return &testPeer{s: s, tr: tr}
}

// startCluster bootstraps a ring and overflows it until extra peers serve
// ranges, returning the peer stacks (index 0 is the bootstrap) and the
// inserted keys.
func startCluster(t *testing.T, peers, items int) ([]*testPeer, []keyspace.Key) {
	t.Helper()
	cfg := tcpPeerCfg()
	boot := startPeer(t, cfg)
	if err := boot.s.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	nodes := []*testPeer{boot}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 1; i < peers; i++ {
		n := startPeer(t, cfg)
		if err := n.s.JoinAsFree(ctx, boot.s.CurrentPeer().Addr); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	var keys []keyspace.Key
	for i := 1; i <= items; i++ {
		k := keyspace.Key(i * 100)
		if err := boot.s.CurrentPeer().InsertItem(ctx, datastore.Item{Key: k, Payload: "seed"}); err != nil {
			t.Fatalf("seed insert %d: %v", i, err)
		}
		keys = append(keys, k)
	}
	// Wait until every joiner serves a range (items force the splits).
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		serving := 0
		for _, n := range nodes {
			if _, ok := n.s.CurrentPeer().Store.Range(); ok && n.s.CurrentPeer().Ring.State() == ring.StateJoined {
				serving++
			}
		}
		if serving == len(nodes) {
			return nodes, keys
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("cluster never settled with every peer serving")
	return nil, nil
}

// newTestClient returns a client with its own dial-side transport, seeded at
// the bootstrap peer.
func newTestClient(t *testing.T, seed transport.Addr) *Client {
	t.Helper()
	return newTestClientWithBackoff(t, seed, 0)
}

// newTestClientWithBackoff is newTestClient pausing backoff after a transient
// failure (0: the default).
func newTestClientWithBackoff(t *testing.T, seed transport.Addr, backoff time.Duration) *Client {
	t.Helper()
	tr := tcp.New(tcp.Config{DialTimeout: time.Second, CallTimeout: 2 * time.Second})
	t.Cleanup(func() { tr.Close() })
	c, err := New(tr, Config{
		Seeds:        []transport.Addr{seed},
		ID:           "client-test",
		OpTimeout:    20 * time.Second,
		RetryBackoff: backoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// A client outside the ring runs the full mixed workload over real sockets:
// inserts and deletes land on validated owners, range queries return exactly
// the surviving keys, and every reply primes the route cache so repeated
// operations stop paying descents.
func TestClientMixedWorkloadOverTCP(t *testing.T) {
	nodes, keys := startCluster(t, 2, 14)
	c := newTestClient(t, nodes[0].s.CurrentPeer().Addr)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	iv := keyspace.ClosedInterval(0, keys[len(keys)-1]+100)
	items, err := c.Query(ctx, iv)
	if err != nil {
		t.Fatalf("cold query: %v", err)
	}
	if len(items) != len(keys) {
		t.Fatalf("cold query returned %d items, want %d", len(items), len(keys))
	}

	// The cold query learned every serving range; repeated operations must
	// ride the cache without any further descent.
	base := c.Stats().Descents
	if err := c.Insert(ctx, datastore.Item{Key: 1450, Payload: "client"}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if found, err := c.Delete(ctx, keys[0]); err != nil || !found {
		t.Fatalf("delete = %v, %v; want found", found, err)
	}
	items, err = c.Query(ctx, iv)
	if err != nil {
		t.Fatalf("warm query: %v", err)
	}
	if len(items) != len(keys) {
		t.Fatalf("warm query returned %d items, want %d (one insert, one delete)", len(items), len(keys))
	}
	for _, it := range items {
		if it.Key == keys[0] {
			t.Fatalf("deleted key %d still in query result", keys[0])
		}
	}
	if got := c.Stats().Descents; got != base {
		t.Fatalf("warm operations paid %d extra descents, want 0", got-base)
	}
	if c.Stats().Cache.Hits == 0 {
		t.Fatal("route cache reports zero hits after a warm workload")
	}
}

// A write reply primes the cache: after one cold insert, further operations
// on the same region resolve from the cache with no descent.
func TestClientCachePrimedFromWriteReplies(t *testing.T) {
	nodes, _ := startCluster(t, 1, 4)
	c := newTestClient(t, nodes[0].s.CurrentPeer().Addr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := c.Insert(ctx, datastore.Item{Key: 777, Payload: "a"}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Descents; got != 1 {
		t.Fatalf("cold insert paid %d descents, want 1", got)
	}
	ent, ok := c.Cache().Lookup(778)
	if !ok {
		t.Fatal("insert reply did not prime the route cache")
	}
	if ent.Epoch == 0 {
		t.Fatal("primed entry carries no ownership epoch")
	}
	if err := c.Insert(ctx, datastore.Item{Key: 778, Payload: "b"}); err != nil {
		t.Fatal(err)
	}
	if found, err := c.Delete(ctx, 777); err != nil || !found {
		t.Fatalf("delete = %v, %v; want found", found, err)
	}
	if got := c.Stats().Descents; got != 1 {
		t.Fatalf("warm operations paid %d descents, want 1 (the cold one)", got)
	}
}

// Poisoned routing state never surfaces to the caller: a cache entry naming
// the wrong owner draws a typed ErrNotOwner, and one naming a wrong epoch a
// typed ErrStaleEpoch — each costs an invalidate and a re-resolve inside the
// retry loop, and the operation still succeeds. The re-resolve runs at once:
// the client's backoff is 2 s, and neither insert waits it out.
func TestClientRecoversFromPoisonedRoutes(t *testing.T) {
	const backoff = 2 * time.Second
	nodes, keys := startCluster(t, 2, 14)
	c := newTestClientWithBackoff(t, nodes[0].s.CurrentPeer().Addr, backoff)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Learn the real partition, then find two peers serving different keys.
	iv := keyspace.ClosedInterval(0, keys[len(keys)-1]+100)
	if _, err := c.Query(ctx, iv); err != nil {
		t.Fatal(err)
	}
	ents := c.Cache().Entries()
	if len(ents) < 2 {
		t.Fatalf("cache holds %d entries, want >= 2 serving peers", len(ents))
	}
	// insert stores key through the poisoned cache; it must cost exactly one
	// stale-route rejection and return well inside one backoff.
	insert := func(poison string, key keyspace.Key) {
		t.Helper()
		before := c.Stats().StaleRoutes
		start := time.Now()
		if err := c.Insert(ctx, datastore.Item{Key: key, Payload: poison}); err != nil {
			t.Fatalf("insert through %s poison: %v", poison, err)
		}
		if took := time.Since(start); took >= backoff/2 {
			t.Errorf("insert through %s poison took %v, want well under the %v backoff", poison, took, backoff)
		}
		if got := c.Stats().StaleRoutes - before; got != 1 {
			t.Errorf("%s poison registered %d stale-route rejections, want 1", poison, got)
		}
	}

	// Wrong owner: claim peer B serves peer A's range (same epoch, so the
	// poison is not rejected as stale). The target's ownership check must
	// answer ErrNotOwner and the client must recover transparently.
	a, b := ents[0], ents[1]
	c.Cache().Clear()
	c.Cache().Learn(a.Range, b.Addr, b.Epoch, nil)
	key := a.Range.Hi // a key peer A serves
	insert("wrong-owner", key)

	// Wrong epoch: claim the right owner at a future incarnation. The fenced
	// mutation must draw ErrStaleEpoch, and the retry must re-learn the real
	// epoch and succeed.
	c.Cache().Clear()
	c.Cache().Learn(a.Range, a.Addr, a.Epoch+1000, nil)
	insert("wrong-epoch", key)
	if ent, ok := c.Cache().Lookup(key); !ok || ent.Epoch != a.Epoch {
		t.Fatalf("cache entry after recovery = %+v, want the real epoch %d", ent, a.Epoch)
	}
}

// A dead primary mid-query never surfaces to the caller: the affected
// segment is served from the replica chain the cluster advertised (bounded
// staleness), and the result still covers the whole interval.
func TestClientReplicaFallbackOnDeadPrimary(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process kill cycle is slow")
	}
	nodes, keys := startCluster(t, 2, 14)
	c := newTestClient(t, nodes[0].s.CurrentPeer().Addr)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	iv := keyspace.ClosedInterval(0, keys[len(keys)-1]+100)
	if _, err := c.Query(ctx, iv); err != nil {
		t.Fatal(err)
	}
	// Let one replication refresh propagate the items to the successors.
	time.Sleep(300 * time.Millisecond)

	// Kill the joiner process outright (transport and all): its range stays
	// cached at the client, with the bootstrap advertised as replica holder.
	victim := nodes[1].s.CurrentPeer().Addr
	victimItems := nodes[1].s.CurrentPeer().Store.ItemCount()
	if victimItems == 0 {
		t.Fatal("victim serves no items; the fallback would be vacuous")
	}
	nodes[1].kill()

	items, err := c.Query(ctx, iv)
	if err != nil {
		t.Fatalf("query with dead primary: %v", err)
	}
	if len(items) != len(keys) {
		t.Fatalf("query with dead primary returned %d items, want %d", len(items), len(keys))
	}
	st := c.Stats()
	if st.ReplicaReads == 0 {
		t.Fatalf("no replica reads recorded; victim %s was not exercised", victim)
	}
}
