package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/keyspace"
	"repro/internal/transport"
)

// loadSpread inserts n spaced items and waits for the ring to spread them
// over at least minPeers serving peers.
func loadSpread(t *testing.T, c *Cluster, ctx context.Context, n, minPeers int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if err := c.InsertItem(ctx, mkItem(uint64(i)*1000)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	waitFor(t, 15*time.Second, "splits to spread the load", func() bool {
		return len(c.LivePeers()) >= minPeers
	})
}

// queryAll runs one journaled full-load query from origin and checks the
// result count.
func queryAll(t *testing.T, ctx context.Context, origin *Peer, n int) {
	t.Helper()
	items, _, err := origin.RangeQueryStats(ctx, keyspace.ClosedInterval(0, keyspace.Key((n+1)*1000)))
	if err != nil {
		t.Fatalf("full query: %v", err)
	}
	if len(items) != n {
		t.Fatalf("full query returned %d items, want %d", len(items), n)
	}
}

// TestWarmCacheSpeedsRepeatQueries pins the core read-path win: a repeated
// query enters at the cached owner in a single validated round trip, and the
// result is identical to the cold run.
func TestWarmCacheSpeedsRepeatQueries(t *testing.T) {
	c := bootCluster(t, fastConfig(), 12)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	loadSpread(t, c, ctx, 40, 4)
	time.Sleep(50 * time.Millisecond) // let routing and replication settle

	origin := c.LivePeers()[0]
	queryAll(t, ctx, origin, 40)
	st := origin.Router.Cache().Stats()
	if st.Size == 0 {
		t.Fatalf("query warmed nothing: %+v", st)
	}

	// The cache only ever serves lookups for REMOTE owners (a key the origin
	// itself owns short-circuits before the cache), so aim the repeat query
	// at another peer's range.
	var lb keyspace.Key
	for _, p := range c.LivePeers() {
		if p.Addr == origin.Addr {
			continue
		}
		if rng, ok := p.Store.Range(); ok && !rng.IsFull() {
			lb = rng.Lo + 1
			break
		}
	}
	iv := keyspace.ClosedInterval(lb, lb+500)
	if _, _, err := origin.RangeQueryStats(ctx, iv); err != nil {
		t.Fatalf("warming query %v: %v", iv, err)
	}
	hitsBefore := origin.Router.Cache().Stats().Hits
	if _, _, err := origin.RangeQueryStats(ctx, iv); err != nil {
		t.Fatalf("repeat query %v: %v", iv, err)
	}
	if after := origin.Router.Cache().Stats(); after.Hits <= hitsBefore {
		t.Errorf("repeat query did not hit the cache: hits %d -> %d (%+v)", hitsBefore, after.Hits, after)
	}
}

// TestRouteCacheChurnEvictsStaleEntries drives the cache through splits,
// merges and a failure, then probes every surviving cache entry with a
// query: each stale entry must be evicted (replaced by the validated truth),
// every query must return the correct Definition 4 result, and the journal
// audit must stay clean.
func TestRouteCacheChurnEvictsStaleEntries(t *testing.T) {
	c := bootCluster(t, fastConfig(), 24)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	loadSpread(t, c, ctx, 60, 5)

	// A merged-away peer departs the transport; transient rebalance states
	// (LEAVING, INSERTING) keep the endpoint alive, so this is the honest
	// "has the peer really gone" test.
	alive := func(a transport.Addr) bool { return c.Net().Alive(a) }

	// Warm the caches of every serving peer over the whole key space: the
	// churn below merges peers away unpredictably, and the validation pass
	// needs an origin whose cache lived through it — any peer that survives
	// the merges existed (and was warmed) before them.
	origins := c.LivePeers()
	for _, o := range origins {
		queryAll(t, ctx, o, 60)
		if o.Router.Cache().Stats().Size == 0 {
			t.Fatal("cache did not warm")
		}
	}
	survivor := func() *Peer {
		for _, o := range origins {
			if alive(o.Addr) {
				return o
			}
		}
		return nil
	}

	// Churn: delete most items (forcing merges away from under the cache),
	// kill one serving peer that is not the origin, then add items back
	// (forcing splits that shrink cached ranges).
	for i := 1; i <= 40; i++ {
		if _, err := c.DeleteItem(ctx, keyspace.Key(uint64(i)*1000)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	warmed := make(map[transport.Addr]bool)
	for _, o := range origins {
		warmed[o.Addr] = true
	}
	for _, p := range c.LivePeers() {
		if !warmed[p.Addr] {
			c.KillPeer(p.Addr)
			break
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		origin := survivor()
		if origin == nil {
			t.Skip("every warmed origin merged away during churn; cache lifetime not observable")
		}
		items, _, err := origin.RangeQueryUnjournaled(ctx, keyspace.ClosedInterval(0, 61*1000))
		if err == nil && len(items) == 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("revival after the kill timed out (err=%v, items=%d)", err, len(items))
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 41; i <= 60; i++ {
		if err := c.InsertItem(ctx, mkItem(uint64(i)*1000+500)); err != nil {
			t.Fatalf("re-insert %d: %v", i, err)
		}
	}
	origin := survivor()
	if origin == nil {
		t.Skip("every warmed origin merged away during churn; cache lifetime not observable")
	}

	// Let the re-insert-triggered maintenance finish before validating: an
	// entry learned from a peer that splits a moment later is fresh
	// information overtaken by events, not a cache defect.
	waitFor(t, 30*time.Second, "maintenance to settle", func() bool {
		before := c.Stats()
		time.Sleep(100 * time.Millisecond)
		after := c.Stats()
		return before.Splits == after.Splits && before.Merges == after.Merges &&
			before.Redistributes == after.Redistributes
	})

	// Probe every cached entry: a query whose lower bound lands inside the
	// entry's believed range forces validation at its target. Stale entries
	// must be evicted or corrected, never trusted.
	// A kill can land mid-split or mid-merge and leave the ring converging
	// for several ack timeouts; journaled queries are allowed to fail while
	// membership is in flux (availability is bounded, not instantaneous), so
	// each probe retries until the ring lets it through.
	invBefore := origin.Router.Cache().Stats().Invalidations
	for _, ent := range origin.Router.Cache().Entries() {
		lb := ent.Range.Hi // always inside a non-full believed range
		iv := keyspace.ClosedInterval(lb, lb+1)
		if lb == keyspace.MaxKey {
			iv = keyspace.Point(lb)
		}
		var qerr error
		waitFor(t, 30*time.Second, fmt.Sprintf("probe query %v to succeed", iv), func() bool {
			_, _, qerr = origin.RangeQueryStats(ctx, iv)
			return qerr == nil
		})
	}
	// After probing, every surviving entry must describe a live serving peer
	// whose current range really contains the entry's anchor.
	for _, ent := range origin.Router.Cache().Entries() {
		if !alive(ent.Addr) {
			t.Errorf("cache entry %v -> %s survives probing but the peer is not a live ring member", ent.Range, ent.Addr)
			continue
		}
		c.mu.Lock()
		p := c.peers[ent.Addr]
		c.mu.Unlock()
		if rng, ok := p.Store.Range(); !ok || !rng.Contains(ent.Range.Hi) {
			t.Errorf("cache entry %v -> %s is stale after probing (peer now owns %v)", ent.Range, ent.Addr, rng)
		}
	}
	if churned := origin.Router.Cache().Stats().Invalidations; churned == invBefore {
		t.Logf("note: churn produced no invalidations (hits stayed fresh); entries=%d", origin.Router.Cache().Stats().Size)
	}

	// The decisive check: every journaled query of the run satisfies
	// Definition 4 despite the stale cache hints along the way.
	if v := c.Log().CheckAllQueries(); len(v) != 0 {
		t.Fatalf("correctness violations under cached routing: %v", v[:min(len(v), 5)])
	}
}

// TestReplicaFallbackServesKilledPrimary kills the primary owner of a
// mid-interval segment after the route cache has learned the layout, then
// runs an unjournaled query across that segment: the scan must fall back to
// the dead peer's replicas and still return the complete, correct result —
// with ring failure detection slowed so revival cannot beat the fallback.
func TestReplicaFallbackServesKilledPrimary(t *testing.T) {
	cfg := fastConfig()
	// Slow the failure detector so the killed range is NOT revived during
	// the test window: any complete answer must come through replica reads.
	cfg.Ring.PingPeriod = 10 * time.Second
	cfg.Replication.RefreshPeriod = 5 * time.Millisecond
	c := bootCluster(t, cfg, 12)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	loadSpread(t, c, ctx, 40, 4)
	time.Sleep(100 * time.Millisecond) // several replica refresh periods

	// Pick an origin and a victim that owns a strict mid-interval segment.
	lives := c.LivePeers()
	origin := lives[0]
	var victim *Peer
	for _, p := range lives[1:] {
		if rng, ok := p.Store.Range(); ok && !rng.IsFull() && rng.Lo >= 1000 && rng.Hi < 41*1000 {
			victim = p
			break
		}
	}
	if victim == nil {
		t.Skip("no mid-interval victim in this layout")
	}

	// Warm the origin's cache (it learns the victim's range AND its replica
	// candidates from the successor chain metadata), then kill the victim.
	queryAll(t, ctx, origin, 40)
	c.KillPeer(victim.Addr)

	items, stats, err := origin.RangeQueryUnjournaled(ctx, keyspace.ClosedInterval(0, 41*1000))
	if err != nil {
		t.Fatalf("query with dead primary: %v", err)
	}
	if len(items) != 40 {
		t.Fatalf("query with dead primary returned %d items, want all 40", len(items))
	}
	for i, it := range items {
		if want := keyspace.Key(uint64(i+1) * 1000); it.Key != want {
			t.Fatalf("item %d has key %d, want %d", i, it.Key, want)
		}
	}
	if stats.ReplicaPieces == 0 || origin.ReplicaReads.Load() == 0 {
		t.Errorf("no replica reads recorded (pieces=%d counter=%d); fallback path not exercised",
			stats.ReplicaPieces, origin.ReplicaReads.Load())
	}

	// The journaled path must NOT use replicas: with the primary dead and no
	// revival, a journaled query is allowed to fail or to return the post-
	// failure truth, but it must never silently read stale replicas. We
	// assert the audit stays clean whatever it observed.
	shortCtx, cancelShort := context.WithTimeout(ctx, 2*time.Second)
	_, _, _ = origin.RangeQueryStats(shortCtx, keyspace.ClosedInterval(0, 41*1000))
	cancelShort()
	if v := c.Log().CheckAllQueries(); len(v) != 0 {
		t.Fatalf("journal audit not clean: %v", v[:min(len(v), 5)])
	}
}
