package router

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/keyspace"
	"repro/internal/transport"
)

// waitStabilized blocks until every ring peer reports a stabilized successor.
func (h *rtHarness) waitStabilized(t *testing.T) {
	t.Helper()
	rtWait(t, 5*time.Second, "stabilized successors", func() bool {
		for _, rp := range h.rings {
			if _, ok := rp.FirstStabilizedSuccessor(); !ok {
				return false
			}
		}
		return true
	})
}

func TestFindOwnerCachedEntryResolvesInOneHop(t *testing.T) {
	h := newRTHarness(t, 12, Config{CallTimeout: 40 * time.Millisecond, MaxHops: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	h.waitStabilized(t)
	h.refreshAll(5)

	const key = keyspace.Key(750)
	owner, coldHops, err := h.routers[0].FindOwner(ctx, key)
	if err != nil {
		t.Fatalf("cold FindOwner: %v", err)
	}
	if want := h.expectOwner(key); owner != want {
		t.Fatalf("cold FindOwner = %s, want %s", owner, want)
	}
	// Cached beats cold: the descent must cost more than the one validation
	// probe a warm lookup pays below.
	if coldHops <= 1 {
		t.Fatalf("cold lookup took %d hops; expected a multi-hop descent", coldHops)
	}

	owner, warmHops, err := h.routers[0].FindOwner(ctx, key)
	if err != nil {
		t.Fatalf("warm FindOwner: %v", err)
	}
	if want := h.expectOwner(key); owner != want {
		t.Fatalf("warm FindOwner = %s, want %s", owner, want)
	}
	if warmHops != 1 {
		t.Errorf("warm lookup took %d hops, want exactly 1 (the validation probe)", warmHops)
	}
	st := h.routers[0].Cache().Stats()
	if st.Hits == 0 {
		t.Errorf("cache stats report no hits: %+v", st)
	}
	// The learned entry carries the owner's successor chain (its replica
	// candidates) for the scan path's fallback.
	ent, ok := h.routers[0].CachedEntry(key)
	if !ok {
		t.Fatal("CachedEntry miss after a validated hit")
	}
	if len(ent.Replicas) == 0 {
		t.Errorf("cached entry has no replica candidates: %+v", ent)
	}
}

// Resolve is the route seam the scan planner reads: a full lookup when the
// cache is cold (returning the entry the lookup learned), the unprobed hint
// when it is warm, and a bare address for a key this peer owns itself.
func TestResolveHintOrFullLookup(t *testing.T) {
	h := newRTHarness(t, 8, Config{CallTimeout: 40 * time.Millisecond, MaxHops: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	h.waitStabilized(t)
	h.refreshAll(4)

	const key = keyspace.Key(580)
	want := h.expectOwner(key)
	cold, ranged, err := h.routers[0].Resolve(ctx, key)
	if err != nil || !ranged || cold.Addr != want || !cold.Range.Contains(key) || cold.Epoch == 0 || len(cold.Replicas) == 0 {
		t.Fatalf("cold Resolve = %+v, ranged=%v, err=%v; want %s with range, epoch and replicas", cold, ranged, err, want)
	}
	probes := h.net.Stats().ByMethod[methodNextHop.Name()]
	warm, ranged, err := h.routers[0].Resolve(ctx, key)
	if err != nil || !ranged || warm.Addr != want || warm.Range != cold.Range {
		t.Fatalf("warm Resolve = %+v, ranged=%v, err=%v; want the cold answer", warm, ranged, err)
	}
	if got := h.net.Stats().ByMethod[methodNextHop.Name()]; got != probes {
		t.Errorf("warm Resolve probed %d times, want none (the hint is returned unvalidated)", got-probes)
	}

	rng, _ := h.stores[0].Range()
	self, ranged, err := h.routers[0].Resolve(ctx, rng.Hi)
	if err != nil || ranged || self.Addr != h.addrs[0] {
		t.Errorf("Resolve of an own key = %+v, ranged=%v, err=%v; want the bare address %s", self, ranged, err, h.addrs[0])
	}
}

func TestStaleCacheEntryIsEvictedNotTrusted(t *testing.T) {
	h := newRTHarness(t, 8, Config{CallTimeout: 40 * time.Millisecond, MaxHops: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	h.waitStabilized(t)
	h.refreshAll(4)

	// Warm the cache for a key owned by peer 5.
	if _, _, err := h.routers[0].FindOwner(ctx, 580); err != nil {
		t.Fatalf("warming lookup: %v", err)
	}
	if ent, ok := h.routers[0].CachedEntry(580); !ok || ent.Addr != h.addrs[5] {
		t.Fatalf("cache entry for 580 = %+v, %v; want %s", ent, ok, h.addrs[5])
	}

	// Move the boundary under the cache: peer 5 shrinks (as a split would),
	// peer 6 absorbs the orphaned segment.
	h.rings[5].SetVal(540)
	r5, _ := h.stores[5].Range()
	h.stores[5].SetRangeForTesting(keyspace.NewRange(r5.Lo, 540))
	r6, _ := h.stores[6].Range()
	h.stores[6].SetRangeForTesting(r6.ExtendDown(540))

	owner, _, err := h.routers[0].FindOwner(ctx, 580)
	if err != nil {
		t.Fatalf("FindOwner with stale cache entry: %v", err)
	}
	if owner != h.addrs[6] {
		t.Errorf("FindOwner(580) = %s, want %s (boundary moved)", owner, h.addrs[6])
	}
	if st := h.routers[0].Cache().Stats(); st.Invalidations == 0 {
		t.Errorf("stale entry was not invalidated: %+v", st)
	}
	if ent, ok := h.routers[0].CachedEntry(580); ok && ent.Addr == h.addrs[5] {
		t.Errorf("stale entry for peer 5 still cached: %+v", ent)
	}
}

// slowLevelNet delays the pointer-maintenance RPC (rt.levelAt) only, so a
// refresh round trip is slow while lookups stay fast.
type slowLevelNet struct {
	transport.Transport
	delay time.Duration
}

func (s *slowLevelNet) Call(ctx context.Context, from, to transport.Addr, method string, payload any) (any, error) {
	if method == methodLevelAt.Name() {
		time.Sleep(s.delay)
	}
	return s.Transport.Call(ctx, from, to, method, payload)
}

// TestRefreshDoesNotBlockLookups pins the narrowed critical sections: a
// refresh stuck in a slow pointer RPC must not stall concurrent lookups,
// because the router's mutex is only ever held around in-memory pointer
// access, never across the wire. Run under -race this also exercises the
// reader/writer interleavings.
func TestRefreshDoesNotBlockLookups(t *testing.T) {
	const refreshDelay = 500 * time.Millisecond
	h := newRTHarnessNet(t, 8, Config{CallTimeout: 2 * time.Second, MaxHops: 64},
		func(tr transport.Transport) transport.Transport {
			return &slowLevelNet{Transport: tr, delay: refreshDelay}
		})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.waitStabilized(t)

	var refreshDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.routers[0].RefreshOnce() // >= refreshDelay per level round trip
		refreshDone.Store(true)
	}()

	// While the refresh is parked inside its first slow RPC, lookups from
	// the same router must keep completing.
	for i := 0; i < 24; i++ {
		key := keyspace.Key((i%8)*100 + 50)
		owner, _, err := h.routers[0].FindOwner(ctx, key)
		if err != nil {
			t.Fatalf("lookup %d during refresh: %v", i, err)
		}
		if want := h.expectOwner(key); owner != want {
			t.Fatalf("lookup %d = %s, want %s", key, owner, want)
		}
	}
	if refreshDone.Load() {
		t.Fatal("refresh finished before the lookups; the slow-RPC window was not exercised")
	}
	wg.Wait()
}
