package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/replication"
	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/simnet"
)

// fastConfig runs the paper's defaults at aggressive millisecond scale so
// integration tests finish quickly.
func fastConfig() Config {
	return Config{
		Net: simnet.Config{
			MinLatency:    50 * time.Microsecond,
			MaxLatency:    200 * time.Microsecond,
			DeadCallDelay: 2 * time.Millisecond,
			Seed:          7,
		},
		Ring: ring.Config{
			SuccListLen: 4,
			StabPeriod:  5 * time.Millisecond,
			PingPeriod:  5 * time.Millisecond,
			CallTimeout: 40 * time.Millisecond,
			AckTimeout:  3 * time.Second,
		},
		Store: datastore.Config{
			StorageFactor:      5,
			CheckPeriod:        10 * time.Millisecond,
			CallTimeout:        40 * time.Millisecond,
			MaintenanceTimeout: 3 * time.Second,
		},
		Replication: replication.Config{
			Factor:        3,
			RefreshPeriod: 10 * time.Millisecond,
			CallTimeout:   40 * time.Millisecond,
		},
		Router: router.Config{
			RefreshPeriod: 15 * time.Millisecond,
			CallTimeout:   40 * time.Millisecond,
			MaxHops:       128,
		},
		QueryAttemptTimeout: 2 * time.Second,
		MaxQueryAttempts:    30,
		Seed:                7,
	}
}

func mkItem(k uint64) datastore.Item {
	return datastore.Item{Key: keyspace.Key(k), Payload: fmt.Sprintf("item-%d", k)}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func bootCluster(t *testing.T, cfg Config, freePeers int) *Cluster {
	t.Helper()
	c := NewCluster(cfg)
	t.Cleanup(c.Shutdown)
	// Send failures are silent (as on a real network), so a codec rejection
	// of a one-way message would otherwise go unnoticed.
	t.Cleanup(func() {
		if err := c.Net().CodecErr(); err != nil {
			t.Errorf("codec violation: %v", err)
		}
	})
	if _, err := c.AddFirstPeer(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddFreePeers(freePeers); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBootstrapInsertAndQuery(t *testing.T) {
	c := bootCluster(t, fastConfig(), 8)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Insert 40 items: with sf=5 the single first peer must split repeatedly.
	for i := 1; i <= 40; i++ {
		if err := c.InsertItem(ctx, mkItem(uint64(i)*1000)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	waitFor(t, 10*time.Second, "splits to spread the load", func() bool {
		return len(c.LivePeers()) >= 4
	})

	// A full-range query must return everything.
	items, err := c.RangeQuery(ctx, keyspace.ClosedInterval(0, 41*1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 40 {
		t.Fatalf("full query returned %d items, want 40", len(items))
	}
	// A sub-range query returns exactly the contained keys.
	items, err = c.RangeQuery(ctx, keyspace.ClosedInterval(10*1000, 20*1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 11 {
		t.Fatalf("sub-range query returned %d items, want 11", len(items))
	}
	for _, it := range items {
		if it.Key < 10*1000 || it.Key > 20*1000 {
			t.Errorf("item %d outside the queried range", it.Key)
		}
	}

	if err := c.CheckRing(); err != nil {
		t.Errorf("ring inconsistent: %v", err)
	}
	if v := c.Log().CheckAllQueries(); len(v) != 0 {
		t.Errorf("journal violations: %v", v)
	}
}

func TestDeleteAndMerge(t *testing.T) {
	c := bootCluster(t, fastConfig(), 8)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i := 1; i <= 40; i++ {
		if err := c.InsertItem(ctx, mkItem(uint64(i)*1000)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "splits", func() bool { return len(c.LivePeers()) >= 4 })

	// Delete most items: peers underflow and merge away.
	for i := 1; i <= 34; i++ {
		found, err := c.DeleteItem(ctx, keyspace.Key(uint64(i)*1000))
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if !found {
			t.Errorf("delete %d: item not found", i)
		}
	}
	waitFor(t, 20*time.Second, "merges to shrink the ring", func() bool {
		return len(c.LivePeers()) <= 2
	})

	items, err := c.RangeQuery(ctx, keyspace.ClosedInterval(0, 41*1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 6 {
		t.Fatalf("query after merges returned %d items, want 6", len(items))
	}
	if err := c.CheckRing(); err != nil {
		t.Errorf("ring inconsistent after merges: %v", err)
	}
	if v := c.Log().CheckAllQueries(); len(v) != 0 {
		t.Errorf("journal violations: %v", v)
	}
}

// Theorem 3 end to end: concurrent inserts, deletes and range queries with
// splits/merges/redistributions in flight never produce an incorrect result.
func TestQueryCorrectnessUnderChurn(t *testing.T) {
	c := bootCluster(t, fastConfig(), 12)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Seed the index.
	for i := 1; i <= 30; i++ {
		if err := c.InsertItem(ctx, mkItem(uint64(i)*100)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "initial splits", func() bool { return len(c.LivePeers()) >= 3 })

	stop := make(chan struct{})

	// Mutator: inserts and deletes items to force splits/merges/redistributes.
	var mutator sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(rng.Intn(60)+1) * 100
			if rng.Intn(3) == 0 {
				_, _ = c.DeleteItem(ctx, keyspace.Key(k))
			} else {
				_ = c.InsertItem(ctx, mkItem(k))
			}
		}
	}()

	// Queriers: concurrent range queries of varying span.
	var queriers sync.WaitGroup
	errCh := make(chan error, 64)
	for q := 0; q < 3; q++ {
		queriers.Add(1)
		go func(q int) {
			defer queriers.Done()
			rng := rand.New(rand.NewSource(int64(q + 1)))
			for i := 0; i < 25; i++ {
				lb := uint64(rng.Intn(40)+1) * 100
				span := uint64(rng.Intn(20)+1) * 100
				_, err := c.RangeQuery(ctx, keyspace.ClosedInterval(keyspace.Key(lb), keyspace.Key(lb+span)))
				if err != nil {
					errCh <- fmt.Errorf("query %d/%d: %w", q, i, err)
					return
				}
			}
		}(q)
	}
	queriers.Wait()
	close(stop)
	mutator.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	if v := c.Log().CheckAllQueries(); len(v) != 0 {
		for _, viol := range v {
			t.Errorf("correctness violation: %v", viol)
		}
	}
	if err := c.CheckRing(); err != nil {
		t.Errorf("ring inconsistent after churn: %v", err)
	}
}

// Item availability across failures: with replication factor k, killing a
// serving peer must not lose items — its successor revives them.
func TestFailureRevival(t *testing.T) {
	cfg := fastConfig()
	cfg.Replication.Factor = 3
	c := bootCluster(t, cfg, 8)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i := 1; i <= 40; i++ {
		if err := c.InsertItem(ctx, mkItem(uint64(i)*1000)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "splits", func() bool { return len(c.LivePeers()) >= 4 })
	// Let replication settle.
	time.Sleep(100 * time.Millisecond)

	// Kill a serving peer that holds items.
	var victim *Peer
	for _, p := range c.LivePeers() {
		if p.Store.ItemCount() > 0 {
			victim = p
			break
		}
	}
	if victim == nil {
		t.Fatal("no victim found")
	}
	lost := victim.Store.ItemCount()
	t.Logf("killing %s holding %d items", victim.Addr, lost)
	c.KillPeer(victim.Addr)

	// All 40 items must eventually be queryable again.
	waitFor(t, 20*time.Second, "revival of lost items", func() bool {
		items, err := c.RangeQuery(ctx, keyspace.ClosedInterval(0, 41*1000))
		return err == nil && len(items) == 40
	})
	if v := c.Log().CheckAllQueries(); len(v) != 0 {
		t.Errorf("journal violations: %v", v)
	}
}

// System keeps operating while peers are killed at a steady rate (the
// paper's failure mode, Section 6.3.4).
func TestOperationUnderSteadyFailures(t *testing.T) {
	cfg := fastConfig()
	cfg.Replication.Factor = 4
	c := bootCluster(t, cfg, 16)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i := 1; i <= 60; i++ {
		if err := c.InsertItem(ctx, mkItem(uint64(i)*500)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "splits", func() bool { return len(c.LivePeers()) >= 5 })
	time.Sleep(100 * time.Millisecond)

	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 3; round++ {
		live := c.LivePeers()
		if len(live) < 4 {
			break
		}
		victim := live[rng.Intn(len(live))]
		c.KillPeer(victim.Addr)
		time.Sleep(150 * time.Millisecond)

		// The index must still answer queries (items on the failed peer may
		// be mid-revival, so just require success, not cardinality).
		if _, err := c.RangeQuery(ctx, keyspace.ClosedInterval(0, 61*500)); err != nil {
			t.Fatalf("round %d: query failed: %v", round, err)
		}
	}
	// After the dust settles, everything must be back.
	waitFor(t, 20*time.Second, "full recovery", func() bool {
		items, err := c.RangeQuery(ctx, keyspace.ClosedInterval(0, 61*500))
		return err == nil && len(items) == 60
	})
	if v := c.Log().CheckAllQueries(); len(v) != 0 {
		t.Errorf("journal violations: %v", v)
	}
}

func TestEqualityQueryIsPointRange(t *testing.T) {
	c := bootCluster(t, fastConfig(), 4)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= 12; i++ {
		if err := c.InsertItem(ctx, mkItem(uint64(i)*10)); err != nil {
			t.Fatal(err)
		}
	}
	items, err := c.RangeQuery(ctx, keyspace.Point(70))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Key != 70 {
		t.Fatalf("point query = %v, want exactly key 70", items)
	}
	items, err = c.RangeQuery(ctx, keyspace.Point(75))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Fatalf("point query for absent key = %v, want empty", items)
	}
}

func TestOpenClosedBounds(t *testing.T) {
	c := bootCluster(t, fastConfig(), 4)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= 10; i++ {
		if err := c.InsertItem(ctx, mkItem(uint64(i)*10)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		iv   keyspace.Interval
		want int
	}{
		{keyspace.ClosedInterval(20, 50), 4},
		{keyspace.Interval{Lb: 20, Ub: 50, LbOpen: true}, 3},
		{keyspace.Interval{Lb: 20, Ub: 50, UbOpen: true}, 3},
		{keyspace.Interval{Lb: 20, Ub: 50, LbOpen: true, UbOpen: true}, 2},
	}
	for _, tc := range cases {
		items, err := c.RangeQuery(ctx, tc.iv)
		if err != nil {
			t.Fatalf("%v: %v", tc.iv, err)
		}
		if len(items) != tc.want {
			t.Errorf("%v returned %d items, want %d", tc.iv, len(items), tc.want)
		}
	}
}

func TestInsertOverwriteSameKey(t *testing.T) {
	c := bootCluster(t, fastConfig(), 2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := c.InsertItem(ctx, datastore.Item{Key: 5, Payload: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertItem(ctx, datastore.Item{Key: 5, Payload: "b"}); err != nil {
		t.Fatal(err)
	}
	items, err := c.RangeQuery(ctx, keyspace.Point(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Payload != "b" {
		t.Fatalf("overwrite result = %v", items)
	}
}

func TestDeleteMissingKey(t *testing.T) {
	c := bootCluster(t, fastConfig(), 2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	found, err := c.DeleteItem(ctx, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("deleting a missing key reported found")
	}
}

func TestFreePoolRecycling(t *testing.T) {
	c := bootCluster(t, fastConfig(), 6)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	before := c.FreeCount()
	for i := 1; i <= 40; i++ {
		if err := c.InsertItem(ctx, mkItem(uint64(i)*1000)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "splits to consume free peers", func() bool {
		return c.FreeCount() < before
	})
	// Delete down to trigger merges; merged peers must be replaced in the pool.
	for i := 1; i <= 36; i++ {
		_, _ = c.DeleteItem(ctx, keyspace.Key(uint64(i)*1000))
	}
	waitFor(t, 20*time.Second, "merges to refill the pool", func() bool {
		return len(c.LivePeers()) <= 2
	})
	if c.FreeCount() == 0 {
		t.Error("free pool empty after merges; merged peers were not recycled")
	}
}

// A split's new peer holds the replicas of its k predecessors (all the
// others on a smaller ring) with no periodic stabilization or replica
// refresh: each predecessor hears at once that the peer is JOINED, and that
// change of its JOINED successors kicks its push. The benchmark's setup waits
// for this on every serving peer before it measures.
func TestSplitPeerHoldsItsPredecessorsReplicasWithoutPeriodicRounds(t *testing.T) {
	cfg := fastConfig()
	cfg.Ring.StabPeriod = time.Hour
	cfg.Replication.RefreshPeriod = time.Hour
	c := bootCluster(t, cfg, 6)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= 30; i++ {
		if err := c.InsertItem(ctx, mkItem(uint64(i)*1000)); err != nil {
			t.Fatal(err)
		}
	}
	// The splits are over once no peer overflows and none is inserting.
	waitFor(t, 10*time.Second, "the splits to end", func() bool {
		live := c.LivePeers()
		if len(live) < cfg.Replication.Factor+2 || len(ring.RingOrder(c.RingPeers())) != len(live) {
			return false
		}
		for _, p := range live {
			if p.Store.ItemCount() > 2*cfg.Store.StorageFactor {
				return false
			}
		}
		return true
	})

	var missing string
	replicated := func() bool {
		live := c.LivePeers()
		slices.SortFunc(live, func(a, b *Peer) int { return cmp.Compare(a.Ring.Self().Val, b.Ring.Self().Val) })
		n := len(live)
		for i, p := range live {
			held := make(map[keyspace.Key]bool)
			for _, it := range p.Rep.HeldReplicas() {
				held[it.Key] = true
			}
			for j := 1; j <= min(cfg.Replication.Factor, n-1); j++ {
				q := live[(i-j+n)%n]
				for _, it := range q.Store.LocalItems() {
					if !held[it.Key] {
						missing = fmt.Sprintf("%s lacks item %d of its predecessor %s at distance %d", p.Addr, it.Key, q.Addr, j)
						return false
					}
				}
			}
		}
		return true
	}
	deadline := time.Now().Add(5 * time.Second)
	for !replicated() {
		if time.Now().After(deadline) {
			t.Fatalf("replicas did not settle without periodic rounds: %s", missing)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
