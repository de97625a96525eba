package replication

import (
	"context"
	"fmt"
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

// repHarness wires ring + datastore + replication manager stacks.
type repHarness struct {
	t      testing.TB
	net    *simnet.Network
	log    *history.Log
	mu     sync.Mutex
	nextID int
	mgrs   map[transport.Addr]*Manager
	stores map[transport.Addr]*datastore.Store
	rings  map[transport.Addr]*ring.Peer

	// lease, when positive, is the Data Store LeaseDuration of peers added.
	lease time.Duration
	// span, when positive, is the width of each range bootRing assigns
	// (default 100).
	span uint64
	// loseReply, when set, is consulted after every handled request: true
	// loses the reply on the way back, so the handler ran but the caller sees
	// the destination as unreachable.
	loseReply func(to transport.Addr, method string) bool
}

func newRepHarness(t testing.TB) *repHarness {
	return newRepHarnessNet(t, simnet.Config{DeadCallDelay: time.Millisecond, Seed: 5})
}

// newRepHarnessNet is newRepHarness over a custom network configuration
// (chunk sizing, fault injection).
func newRepHarnessNet(t testing.TB, netCfg simnet.Config) *repHarness {
	net := simnet.New(netCfg)
	// Send failures are silent (as on a real network), so a codec rejection
	// of a one-way message would otherwise go unnoticed.
	t.Cleanup(func() {
		if err := net.CodecErr(); err != nil {
			t.Errorf("codec violation: %v", err)
		}
	})
	return &repHarness{
		t:      t,
		net:    net,
		log:    history.NewLog(),
		mgrs:   make(map[transport.Addr]*Manager),
		stores: make(map[transport.Addr]*datastore.Store),
		rings:  make(map[transport.Addr]*ring.Peer),
	}
}

type noPool struct{}

func (noPool) Acquire() (transport.Addr, error) { return "", fmt.Errorf("no pool") }
func (noPool) Release(transport.Addr)           {}
func (noPool) Retire(transport.Addr)            {}

func (h *repHarness) addPeer(repCfg Config) (*Manager, *datastore.Store, *ring.Peer) {
	h.t.Helper()
	h.mu.Lock()
	h.nextID++
	addr := transport.Addr(fmt.Sprintf("r%d", h.nextID))
	h.mu.Unlock()
	mux := transport.NewMux()
	// Only the ring runs loops; tests step stores and managers by hand.
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
		OnPredChanged: func(n, p ring.Node, f bool) { st.OnPredChanged(n, p, f) },
	}
	rCfg := ring.Config{
		SuccListLen: 4,
		StabPeriod:  5 * time.Millisecond,
		PingPeriod:  5 * time.Millisecond,
		CallTimeout: 40 * time.Millisecond,
		AckTimeout:  3 * time.Second,
	}
	rp = ring.NewPeer(h.net, mux, rCfg, ring.Node{Addr: addr}, cb)
	st = datastore.New(h.net, mux, rp, h.log, datastore.Config{
		StorageFactor:      100, // no automatic splits in these tests
		CheckPeriod:        20 * time.Millisecond,
		CallTimeout:        40 * time.Millisecond,
		MaintenanceTimeout: 3 * time.Second,
		LeaseDuration:      h.lease,
	})
	m := New(h.net, mux, rp, st, repCfg)
	st.SetDeps(m, noPool{})
	handler := func(from transport.Addr, method string, payload any) (any, error) {
		resp, err := mux.Dispatch(from, method, payload)
		if h.loseReply != nil && h.loseReply(addr, method) {
			return nil, fmt.Errorf("%w: reply from %s lost", transport.ErrUnreachable, addr)
		}
		return resp, err
	}
	if err := h.net.Register(addr, handler); err != nil {
		h.t.Fatal(err)
	}
	h.mu.Lock()
	h.mgrs[addr] = m
	h.stores[addr] = st
	h.rings[addr] = rp
	h.mu.Unlock()
	h.t.Cleanup(func() { rp.Stop(); st.Stop(); m.Stop() })
	return m, st, rp
}

// bootRing builds an n-peer ring with evenly assigned ranges (h.span wide) by
// driving the ring join protocol directly, assigning each peer an explicit
// value.
func (h *repHarness) bootRing(n int, repCfg Config) ([]*Manager, []*datastore.Store, []*ring.Peer) {
	h.t.Helper()
	mgrs := make([]*Manager, n)
	stores := make([]*datastore.Store, n)
	rings := make([]*ring.Peer, n)
	for i := 0; i < n; i++ {
		mgrs[i], stores[i], rings[i] = h.addPeer(repCfg)
	}
	if err := rings[0].InitRing(); err != nil {
		h.t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	// Join each next peer by splitting the previous one's range: insert items
	// is overkill here; instead use the ring join with explicit values by
	// lowering the splitter's value manually via the datastore split payload.
	// Simplest: give every peer items through the first peer and split by
	// hand is complex — instead we drive InsertSucc directly and install
	// ranges through the join payload produced by PrepareJoinData after
	// setting values. For an even ring over [0, n*span):
	span := uint64(100)
	if h.span > 0 {
		span = h.span
	}
	for i := 1; i < n; i++ {
		// peer i-1 currently owns up to its value; lower it and hand the top
		// to peer i, exactly like a split.
		prev := rings[i-1]
		oldVal := prev.Self().Val
		newVal := keyspace.Key(uint64(i) * span)
		_ = oldVal
		prev.SetVal(newVal)
		if err := prev.InsertSucc(ctx, ring.Node{Addr: rings[i].Self().Addr, Val: oldVal}); err != nil {
			h.t.Fatalf("join %d: %v", i, err)
		}
	}
	return mgrs, stores, rings
}

// insertAt and deleteAt issue one unfenced mutation at st through the Data
// Store's dial bridges, sent from st's own address.
func insertAt(ctx context.Context, h *repHarness, st *datastore.Store, item datastore.Item) error {
	_, err := datastore.ClientInsert(ctx, h.net, st.Addr(), st.Addr(), item, 0)
	return err
}

func deleteAt(ctx context.Context, h *repHarness, st *datastore.Store, key keyspace.Key) (bool, error) {
	found, _, err := datastore.ClientDelete(ctx, h.net, st.Addr(), st.Addr(), key, 0)
	return found, err
}

func waitRep(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestRefreshPlacesKReplicas(t *testing.T) {
	h := newRepHarness(t)
	cfg := Config{Factor: 2, RefreshPeriod: 5 * time.Millisecond, CallTimeout: 40 * time.Millisecond}
	mgrs, stores, rings := h.bootRing(5, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Give peer 0 some items (its range after the joins is (400, 100] —
	// the wrap; use keys 50, 60 inside it).
	for _, k := range []uint64{50, 60} {
		if err := insertAt(ctx, h, stores[0], datastore.Item{Key: keyspace.Key(k)}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for full stabilization so successors are known.
	waitRep(t, 5*time.Second, "successors", func() bool {
		return len(rings[0].Successors()) >= 2
	})
	mgrs[0].RefreshOnce()

	// The 2 successors of peer 0 must now hold replicas of both items.
	succs := rings[0].Successors()[:2]
	for _, s := range succs {
		m := h.mgrs[s.Addr]
		if got := m.ReplicaCount(); got != 2 {
			t.Errorf("replica count at %s = %d, want 2", s.Addr, got)
		}
	}
	// A peer further along must hold nothing.
	if len(rings[0].Successors()) > 2 {
		far := rings[0].Successors()[2]
		if got := h.mgrs[far.Addr].ReplicaCount(); got != 0 {
			t.Errorf("replica count beyond k = %d, want 0", got)
		}
	}
}

func TestRefreshReconcilesDeletions(t *testing.T) {
	h := newRepHarness(t)
	cfg := Config{Factor: 2, CallTimeout: 40 * time.Millisecond}
	mgrs, stores, rings := h.bootRing(3, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for _, k := range []uint64{50, 60} {
		if err := insertAt(ctx, h, stores[0], datastore.Item{Key: keyspace.Key(k)}); err != nil {
			t.Fatal(err)
		}
	}
	waitRep(t, 5*time.Second, "successors", func() bool { return len(rings[0].Successors()) >= 2 })
	mgrs[0].RefreshOnce()
	succ := rings[0].Successors()[0]
	if got := h.mgrs[succ.Addr].ReplicaCount(); got != 2 {
		t.Fatalf("replicas = %d, want 2", got)
	}

	if _, err := deleteAt(ctx, h, stores[0], 50); err != nil {
		t.Fatal(err)
	}
	mgrs[0].RefreshOnce()
	if got := h.mgrs[succ.Addr].ReplicaCount(); got != 1 {
		t.Errorf("replicas after delete+refresh = %d, want 1", got)
	}
}

func TestReviveReturnsRangeSubset(t *testing.T) {
	h := newRepHarness(t)
	m, _, _ := h.addPeer(Config{Factor: 2})
	m.mu.Lock()
	m.replicas[10] = newReplica(datastore.Item{Key: 10})
	m.replicas[20] = newReplica(datastore.Item{Key: 20})
	m.replicas[30] = newReplica(datastore.Item{Key: 30})
	m.mu.Unlock()
	got := m.Revive(keyspace.NewRange(10, 25))
	if len(got) != 1 || got[0].Key != 20 {
		t.Errorf("Revive = %v, want just key 20", got)
	}
}

// Section 5.2 / Figures 17–18: with the naive replication manager, a merge
// departure followed by one failure loses an item; with the
// replicate-to-additional-hop rule the item survives.
func TestExtraHopPreservesItemAvailability(t *testing.T) {
	run := func(naive bool) int {
		h := newRepHarness(t)
		cfg := Config{Factor: 1, Naive: naive, CallTimeout: 40 * time.Millisecond}
		mgrs, stores, rings := h.bootRing(4, cfg)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()

		// Peer 1 holds one item; its only replica sits at peer 2 (k = 1).
		if err := insertAt(ctx, h, stores[1], datastore.Item{Key: 150}); err != nil {
			t.Fatal(err)
		}
		waitRep(t, 5*time.Second, "successors", func() bool {
			return len(rings[1].Successors()) >= 2 && len(rings[2].Successors()) >= 2
		})
		mgrs[1].RefreshOnce()

		// Peer 1 merges away: pre-departure replication, graceful leave,
		// Data Store hand-off to peer 2 (mirroring mergeIntoSuccessor).
		if err := mgrs[1].BeforeLeave(ctx); err != nil {
			t.Fatal(err)
		}
		if err := rings[1].Leave(ctx); err != nil {
			t.Fatal(err)
		}
		// Hand items to peer 2 out of band (the datastore would do this).
		items := stores[1].LocalItems()
		rings[1].Depart()
		for _, it := range items {
			h.mu.Lock()
			m2 := h.mgrs[stores[2].Addr()]
			h.mu.Unlock()
			_ = m2 // peer 2 now serves the item (simulate by direct insert)
			if err := insertAt(ctx, h, stores[2], datastore.Item{Key: it.Key}); err != nil {
				// Peer 2 may not own the key's range in this hand-driven
				// setup; store it as a replica instead.
				m2.mu.Lock()
				m2.replicas[it.Key] = newReplica(it)
				m2.mu.Unlock()
			}
		}

		// The single failure: peer 2 dies, taking the merged item (and with
		// the naive manager, its only remaining copy).
		h.net.Kill(stores[2].Addr())

		// Count surviving copies of key 150 anywhere.
		copies := 0
		h.mu.Lock()
		defer h.mu.Unlock()
		for addr, m := range h.mgrs {
			if !h.net.Alive(addr) {
				continue
			}
			for _, it := range m.HeldReplicas() {
				if it.Key == 150 {
					copies++
				}
			}
			for _, it := range h.stores[addr].LocalItems() {
				if it.Key == 150 {
					copies++
				}
			}
		}
		return copies
	}

	if got := run(true); got != 0 {
		t.Errorf("naive merge+failure left %d copies; the Figure 17 scenario expects total loss", got)
	}
	if got := run(false); got == 0 {
		t.Error("extra-hop replication lost the item; Figure 18 expects survival")
	}
}

func TestItemsChangedKicksRefresh(t *testing.T) {
	h := newRepHarness(t)
	cfg := Config{Factor: 1, RefreshPeriod: time.Hour, CallTimeout: 40 * time.Millisecond} // only kicks trigger refresh
	mgrs, stores, rings := h.bootRing(2, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	mgrs[0].Start()

	waitRep(t, 5*time.Second, "successors", func() bool { return len(rings[0].Successors()) >= 1 })
	if err := insertAt(ctx, h, stores[0], datastore.Item{Key: 50}); err != nil {
		t.Fatal(err)
	}
	// The insert triggers ItemsChanged via the datastore; the kick must cause a
	// refresh despite the hour-long period.
	succ := rings[0].Successors()[0]
	waitRep(t, 5*time.Second, "kicked refresh", func() bool {
		return h.mgrs[succ.Addr].ReplicaCount() == 1
	})
}
