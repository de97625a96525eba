package router

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/history"
	"repro/internal/keyspace"
	"repro/internal/ring"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// rtHarness builds an n-peer ring with evenly spaced ranges and routers.
type rtHarness struct {
	t       *testing.T
	net     *simnet.Network
	routers []*Router
	stores  []*datastore.Store
	rings   []*ring.Peer
	addrs   []transport.Addr
}

func newRTHarness(t *testing.T, n int, cfg Config) *rtHarness {
	return newRTHarnessNet(t, n, cfg, nil)
}

// newRTHarnessNet builds the harness with the routers talking through
// wrap(simnet) when wrap is non-nil (the other components stay on the raw
// network), so tests can intercept router RPCs.
func newRTHarnessNet(t *testing.T, n int, cfg Config, wrap func(transport.Transport) transport.Transport) *rtHarness {
	t.Helper()
	h := &rtHarness{t: t, net: simnet.New(simnet.Config{DeadCallDelay: time.Millisecond, Seed: 11})}
	// Send failures are silent (as on a real network), so a codec rejection
	// of a one-way message would otherwise go unnoticed.
	t.Cleanup(func() {
		if err := h.net.CodecErr(); err != nil {
			t.Errorf("codec violation: %v", err)
		}
	})
	log := history.NewLog()
	rCfg := ring.Config{
		SuccListLen: 4,
		StabPeriod:  5 * time.Millisecond,
		PingPeriod:  5 * time.Millisecond,
		CallTimeout: 100 * time.Millisecond,
		// Generous: test packages run in parallel and can starve the
		// stabilization goroutines that carry the ack.
		AckTimeout: 30 * time.Second,
	}
	for i := 0; i < n; i++ {
		addr := transport.Addr(fmt.Sprintf("rt%d", i))
		mux := transport.NewMux()
		// Only the rings run loops; tests step stores and routers by hand.
		var (
			st *datastore.Store
			rp *ring.Peer
		)
		cb := ring.Callbacks{
			PrepareJoinData: func(j ring.Node) (any, error) { return st.PrepareJoinData(j) },
			OnJoined: func(self, pred ring.Node, data any) {
				st.OnJoined(self, pred, data)
				rp.Start()
			},
		}
		rp = ring.NewPeer(h.net, mux, rCfg, ring.Node{Addr: addr}, cb)
		st = datastore.New(h.net, mux, rp, log, datastore.Config{
			StorageFactor: 1000,
			CallTimeout:   40 * time.Millisecond,
		})
		var rtNet transport.Transport = h.net
		if wrap != nil {
			rtNet = wrap(h.net)
		}
		rt := New(rtNet, mux, rp, st, cfg)
		if err := h.net.Register(addr, mux.Dispatch); err != nil {
			t.Fatal(err)
		}
		h.routers = append(h.routers, rt)
		h.stores = append(h.stores, st)
		h.rings = append(h.rings, rp)
		h.addrs = append(h.addrs, addr)
		t.Cleanup(func() { rp.Stop(); st.Stop(); rt.Stop() })
	}
	// Build the ring: peer i owns (i*100, (i+1)*100] except the last, which
	// wraps to 0... we assign values so peer i has val (i+1)*100, with the
	// last peer holding the wrap anchor val 0.
	if err := h.rings[0].InitRing(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	for i := 1; i < n; i++ {
		prev := h.rings[i-1]
		oldVal := prev.Self().Val
		prev.SetVal(keyspace.Key(uint64(i) * 100))
		// A join can time out under heavy machine load (the ack rides on
		// stabilization); the abort rolls back cleanly, so retry.
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			err = prev.InsertSucc(ctx, ring.Node{Addr: h.addrs[i], Val: oldVal})
			if err == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	return h
}

func rtWait(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	// Generous floor: the race detector slows stabilization by an order of
	// magnitude.
	if timeout < 15*time.Second {
		timeout = 15 * time.Second
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// expectOwner returns the address that owns key under the even layout.
func (h *rtHarness) expectOwner(key keyspace.Key) transport.Addr {
	for i, st := range h.stores {
		if rng, ok := st.Range(); ok && rng.Contains(key) {
			return h.addrs[i]
		}
	}
	return ""
}

func (h *rtHarness) refreshAll(rounds int) {
	for r := 0; r < rounds; r++ {
		for _, rt := range h.routers {
			rt.RefreshOnce()
		}
	}
}

func TestFindOwnerLinearFallbackOnly(t *testing.T) {
	// Without any refresh, lookups still succeed via successor stepping.
	h := newRTHarness(t, 6, Config{CallTimeout: 40 * time.Millisecond, MaxHops: 32})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rtWait(t, 5*time.Second, "stabilized successors", func() bool {
		for _, rp := range h.rings {
			if _, ok := rp.FirstStabilizedSuccessor(); !ok {
				return false
			}
		}
		return true
	})
	for _, key := range []keyspace.Key{50, 150, 250, 350, 450, 550} {
		owner, _, err := h.routers[0].FindOwner(ctx, key)
		if err != nil {
			t.Fatalf("FindOwner(%d): %v", key, err)
		}
		if want := h.expectOwner(key); owner != want {
			t.Errorf("FindOwner(%d) = %s, want %s", key, owner, want)
		}
	}
}

func TestFindOwnerWithHierarchy(t *testing.T) {
	h := newRTHarness(t, 16, Config{CallTimeout: 40 * time.Millisecond, MaxHops: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rtWait(t, 5*time.Second, "stabilized successors", func() bool {
		for _, rp := range h.rings {
			if _, ok := rp.FirstStabilizedSuccessor(); !ok {
				return false
			}
		}
		return true
	})
	h.refreshAll(6)

	rng := rand.New(rand.NewSource(2))
	maxHops := 0
	for trial := 0; trial < 50; trial++ {
		src := rng.Intn(16)
		key := keyspace.Key(rng.Intn(1600))
		owner, hops, err := h.routers[src].FindOwner(ctx, key)
		if err != nil {
			t.Fatalf("FindOwner(%d) from %d: %v", key, src, err)
		}
		if want := h.expectOwner(key); owner != want {
			t.Errorf("FindOwner(%d) = %s, want %s", key, owner, want)
		}
		if hops > maxHops {
			maxHops = hops
		}
	}
	// With doubling pointers over 16 peers, lookups must be clearly
	// sub-linear: allow generous slack but far less than n.
	if maxHops > 10 {
		t.Errorf("max hops = %d; hierarchy is not being used", maxHops)
	}
}

func TestFindOwnerSelf(t *testing.T) {
	h := newRTHarness(t, 3, Config{CallTimeout: 40 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rng, _ := h.stores[0].Range()
	owner, hops, err := h.routers[0].FindOwner(ctx, rng.Hi)
	if err != nil {
		t.Fatal(err)
	}
	if owner != h.addrs[0] || hops != 0 {
		t.Errorf("self lookup = %s/%d hops", owner, hops)
	}
}

func TestLinearFindOwner(t *testing.T) {
	h := newRTHarness(t, 8, Config{CallTimeout: 40 * time.Millisecond, MaxHops: 32})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rtWait(t, 5*time.Second, "stabilized successors", func() bool {
		for _, rp := range h.rings {
			if _, ok := rp.FirstStabilizedSuccessor(); !ok {
				return false
			}
		}
		return true
	})
	owner, hops, err := h.routers[0].LinearFindOwner(ctx, 750)
	if err != nil {
		t.Fatal(err)
	}
	if want := h.expectOwner(750); owner != want {
		t.Errorf("LinearFindOwner = %s, want %s", owner, want)
	}
	if hops < 5 {
		t.Errorf("linear lookup took %d hops; expected to walk most of the ring", hops)
	}
}

func TestFindOwnerSurvivesFailure(t *testing.T) {
	h := newRTHarness(t, 8, Config{CallTimeout: 40 * time.Millisecond, MaxHops: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rtWait(t, 5*time.Second, "stabilized successors", func() bool {
		for _, rp := range h.rings {
			if _, ok := rp.FirstStabilizedSuccessor(); !ok {
				return false
			}
		}
		return true
	})
	h.refreshAll(4)

	// Kill a mid-ring peer; lookups for other peers' keys must still work
	// after the ring heals (routing falls back around the corpse).
	h.net.Kill(h.addrs[4])
	h.rings[4].Stop()
	rtWait(t, 5*time.Second, "ring heal", func() bool {
		s := h.rings[3].Successors()
		return len(s) > 0 && s[0].Addr == h.addrs[5]
	})
	owner, _, err := h.routers[0].FindOwner(ctx, 750)
	if err != nil {
		t.Fatalf("FindOwner after failure: %v", err)
	}
	if want := h.expectOwner(750); owner != want {
		t.Errorf("FindOwner after failure = %s, want %s", owner, want)
	}
}

func TestFindOwnerStaleValuesCostHopsNotCorrectness(t *testing.T) {
	h := newRTHarness(t, 8, Config{CallTimeout: 40 * time.Millisecond, MaxHops: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rtWait(t, 5*time.Second, "stabilized successors", func() bool {
		for _, rp := range h.rings {
			if _, ok := rp.FirstStabilizedSuccessor(); !ok {
				return false
			}
		}
		return true
	})
	h.refreshAll(4)

	// Shrink peer 5's value (as a split would) WITHOUT telling the routers:
	// its datastore range shrinks accordingly; lookups for the orphaned
	// upper part now resolve to... nobody owns it, so give it to peer 6 by
	// extending its range down, then verify lookups still land correctly.
	h.rings[5].SetVal(540)
	r5, _ := h.stores[5].Range()
	h.stores[5].SetRangeForTesting(keyspace.NewRange(r5.Lo, 540))
	r6, _ := h.stores[6].Range()
	h.stores[6].SetRangeForTesting(r6.ExtendDown(540))

	owner, _, err := h.routers[0].FindOwner(ctx, 580)
	if err != nil {
		t.Fatalf("FindOwner with stale pointers: %v", err)
	}
	if owner != h.addrs[6] {
		t.Errorf("FindOwner(580) = %s, want %s (range moved)", owner, h.addrs[6])
	}
}

func TestConcurrentLookups(t *testing.T) {
	h := newRTHarness(t, 12, Config{CallTimeout: 40 * time.Millisecond, MaxHops: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rtWait(t, 5*time.Second, "stabilized successors", func() bool {
		for _, rp := range h.rings {
			if _, ok := rp.FirstStabilizedSuccessor(); !ok {
				return false
			}
		}
		return true
	})
	h.refreshAll(5)

	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 30; i++ {
				key := keyspace.Key(rng.Intn(1200))
				owner, _, err := h.routers[g%len(h.routers)].FindOwner(ctx, key)
				if err != nil {
					errs <- err
					return
				}
				if want := h.expectOwner(key); owner != want {
					errs <- fmt.Errorf("lookup %d: got %s want %s", key, owner, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
