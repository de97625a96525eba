package ring

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/keyspace"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// testCluster wires peers to one simnet for ring-layer tests.
type testCluster struct {
	t     *testing.T
	net   *simnet.Network
	cfg   Config
	mu    sync.Mutex
	peers map[simnet.Addr]*Peer
}

func fastRingConfig() Config {
	return Config{
		SuccListLen: 4,
		StabPeriod:  4 * time.Millisecond,
		PingPeriod:  4 * time.Millisecond,
		CallTimeout: 30 * time.Millisecond,
		AckTimeout:  2 * time.Second,
	}
}

func newTestCluster(t *testing.T, cfg Config) *testCluster {
	t.Helper()
	nc := simnet.Config{DeadCallDelay: time.Millisecond, Seed: 1}
	return &testCluster{
		t:     t,
		net:   simnet.New(nc),
		cfg:   cfg,
		peers: make(map[simnet.Addr]*Peer),
	}
}

func (tc *testCluster) addPeer(addr string, val uint64) *Peer {
	tc.t.Helper()
	mux := simnet.NewMux()
	p := NewPeer(tc.net, mux, tc.cfg, Node{Addr: simnet.Addr(addr), Val: keyspace.Key(val)}, Callbacks{})
	if err := tc.net.Register(simnet.Addr(addr), mux.Dispatch); err != nil {
		tc.t.Fatal(err)
	}
	tc.mu.Lock()
	tc.peers[simnet.Addr(addr)] = p
	tc.mu.Unlock()
	tc.t.Cleanup(p.Stop)
	return p
}

func (tc *testCluster) addPeerCB(addr string, val uint64, cb Callbacks) *Peer {
	tc.t.Helper()
	mux := simnet.NewMux()
	p := NewPeer(tc.net, mux, tc.cfg, Node{Addr: simnet.Addr(addr), Val: keyspace.Key(val)}, cb)
	if err := tc.net.Register(simnet.Addr(addr), mux.Dispatch); err != nil {
		tc.t.Fatal(err)
	}
	tc.mu.Lock()
	tc.peers[simnet.Addr(addr)] = p
	tc.mu.Unlock()
	tc.t.Cleanup(p.Stop)
	return p
}

// predByValue returns the JOINED peer that would precede a new peer with
// value v on the ring, or nil if none is ready.
func (tc *testCluster) predByValue(v keyspace.Key) *Peer {
	order := RingOrder(tc.all())
	var best Node
	for _, n := range order {
		if n.Val < v && (best.IsZero() || n.Val > best.Val) {
			best = n
		}
	}
	if best.IsZero() && len(order) > 0 {
		// v is below every peer: its predecessor is the largest value (wrap).
		best = order[len(order)-1]
	}
	if best.IsZero() {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	p := tc.peers[best.Addr]
	if p != nil && p.State() == StateJoined {
		return p
	}
	return nil
}

func (tc *testCluster) all() []*Peer {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	out := make([]*Peer, 0, len(tc.peers))
	for _, p := range tc.peers {
		out = append(out, p)
	}
	return out
}

// buildRing creates and joins n peers with evenly spaced values, returning
// them in ring (value) order. The first peer inits the ring; each next peer
// is inserted as the successor of the peer before it by value.
func (tc *testCluster) buildRing(n int) []*Peer {
	tc.t.Helper()
	peers := make([]*Peer, n)
	for i := 0; i < n; i++ {
		peers[i] = tc.addPeer(fmt.Sprintf("p%d", i), uint64(i+1)*100)
	}
	if err := peers[0].InitRing(); err != nil {
		tc.t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 1; i < n; i++ {
		if err := peers[i-1].InsertSucc(ctx, peers[i].Self()); err != nil {
			tc.t.Fatalf("insert peer %d: %v", i, err)
		}
	}
	return peers
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitConsistent(t *testing.T, peers []*Peer) {
	t.Helper()
	var last error
	waitUntil(t, 5*time.Second, "ring consistency", func() bool {
		last = CheckConsistency(peers)
		return last == nil
	})
	if last != nil {
		t.Fatal(last)
	}
}

func TestInitRingSolo(t *testing.T) {
	tc := newTestCluster(t, fastRingConfig())
	p := tc.addPeer("a", 100)
	if err := p.InitRing(); err != nil {
		t.Fatal(err)
	}
	if p.State() != StateJoined {
		t.Errorf("state = %s, want JOINED", p.State())
	}
	if p.Pred().Addr != "a" {
		t.Errorf("solo pred = %v, want self", p.Pred())
	}
	if len(p.Successors()) != 0 {
		t.Errorf("solo peer should have no successor entries, got %v", p.Successors())
	}
	if err := p.InitRing(); err == nil {
		t.Error("second InitRing must fail")
	}
}

func TestInsertIntoSoloRing(t *testing.T) {
	tc := newTestCluster(t, fastRingConfig())
	a := tc.addPeer("a", 100)
	b := tc.addPeer("b", 200)
	if err := a.InitRing(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.InsertSucc(ctx, b.Self()); err != nil {
		t.Fatal(err)
	}
	if b.State() != StateJoined {
		t.Errorf("b state = %s, want JOINED", b.State())
	}
	succs := a.Successors()
	if len(succs) != 1 || succs[0].Addr != "b" {
		t.Errorf("a successors = %v, want [b]", succs)
	}
	succs = b.Successors()
	if len(succs) != 1 || succs[0].Addr != "a" {
		t.Errorf("b successors = %v, want [a]", succs)
	}
	if b.Pred().Addr != "a" {
		t.Errorf("b pred = %v, want a", b.Pred())
	}
	waitConsistent(t, tc.all())
}

func TestBuildRingOfEight(t *testing.T) {
	tc := newTestCluster(t, fastRingConfig())
	peers := tc.buildRing(8)
	waitConsistent(t, peers)
	// After enough stabilization every peer should know d JOINED successors.
	waitUntil(t, 5*time.Second, "full successor lists", func() bool {
		for _, p := range peers {
			if len(p.Successors()) < tc.cfg.SuccListLen {
				return false
			}
		}
		return true
	})
	// Successor lists must converge to ring order (entry state labels can
	// lag the global state briefly, so poll).
	order := RingOrder(peers)
	pos := make(map[simnet.Addr]int)
	for i, n := range order {
		pos[n.Addr] = i
	}
	inOrder := func() bool {
		for _, p := range peers {
			self := pos[p.Self().Addr]
			succs := p.Successors()
			if len(succs) < tc.cfg.SuccListLen {
				return false
			}
			for off, s := range succs {
				if want := order[(self+1+off)%len(order)].Addr; s.Addr != want {
					return false
				}
			}
		}
		return true
	}
	waitUntil(t, 5*time.Second, "successor lists in ring order", inOrder)
}

func TestPredTracking(t *testing.T) {
	tc := newTestCluster(t, fastRingConfig())
	peers := tc.buildRing(5)
	waitConsistent(t, peers)
	order := RingOrder(peers)
	byAddr := make(map[simnet.Addr]*Peer)
	for _, p := range peers {
		byAddr[p.Self().Addr] = p
	}
	waitUntil(t, 5*time.Second, "predecessor pointers", func() bool {
		for i, n := range order {
			pred := order[(i+len(order)-1)%len(order)]
			if byAddr[n.Addr].Pred().Addr != pred.Addr {
				return false
			}
		}
		return true
	})
}

// Theorem 1: with PEPPER insertSucc, successor pointers stay consistent at
// every instant while peers join concurrently in disjoint neighbourhoods
// (insertions more than d positions apart, which is what Data Store splits
// produce — a split only involves one peer and its local successors).
func TestConsistencyDuringConcurrentInserts(t *testing.T) {
	cfg := fastRingConfig()
	cfg.SuccListLen = 2
	tc := newTestCluster(t, cfg)
	peers := tc.buildRing(12)
	waitConsistent(t, peers)

	stop := make(chan struct{})
	violations := make(chan error, 1)
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := CheckConsistency(tc.all()); err != nil {
				select {
				case violations <- err:
				default:
				}
				return
			}
		}
	}()

	// Concurrent inserts at positions 0, 3, 6, 9: neighbourhoods (inserter
	// plus d-1 predecessors) are disjoint for d=2.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for w, pos := range []int{0, 3, 6, 9} {
		wg.Add(1)
		go func(w, pos int) {
			defer wg.Done()
			inserter := peers[pos]
			p := tc.addPeer(fmt.Sprintf("n%d", w), uint64(pos+1)*100+50)
			if err := inserter.InsertSucc(ctx, p.Self()); err != nil {
				t.Errorf("insert n%d: %v", w, err)
			}
		}(w, pos)
	}
	wg.Wait()
	close(stop)
	checker.Wait()
	select {
	case err := <-violations:
		for _, p := range tc.all() {
			p.mu.Lock()
			t.Logf("%s state=%s list=%v", p.self, p.state, p.succ)
			p.mu.Unlock()
		}
		t.Fatalf("consistency violated during inserts: %v", err)
	default:
	}
	waitConsistent(t, tc.all())
}

// Heavy churn in overlapping neighbourhoods: transient views may briefly lag
// while the ring grows (the scan layer masks these windows by validating
// continuation points), but the ring must converge to consistency and every
// insert must complete.
func TestEventualConsistencyUnderHeavyChurn(t *testing.T) {
	tc := newTestCluster(t, fastRingConfig())
	peers := tc.buildRing(8)
	waitConsistent(t, peers)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One new value per gap: concurrent joins overlap in successor
			// list neighbourhoods (d=4 spans half the base ring) but never
			// race within the same gap — matching what Data Store splits
			// produce, where a new value always comes from inside the
			// splitting peer's own range.
			val := uint64(w+1)*100 + 10
			p := tc.addPeer(fmt.Sprintf("n%d", w), val)
			// Insert at the value-correct predecessor; re-resolve on every
			// retry since a concurrent join may have changed it.
			for {
				inserter := tc.predByValue(keyspace.Key(val))
				if inserter == nil {
					time.Sleep(time.Millisecond)
					continue
				}
				err := inserter.InsertSucc(ctx, p.Self())
				if err == nil {
					return
				}
				if errors.Is(err, ErrBusy) || errors.Is(err, ErrTimeout) {
					time.Sleep(time.Millisecond)
					continue
				}
				t.Errorf("insert n%d: %v", w, err)
				return
			}
		}(w)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	var last error
	for time.Now().Before(deadline) {
		if last = CheckConsistency(tc.all()); last == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if last != nil {
		for _, p := range tc.all() {
			p.mu.Lock()
			t.Logf("%s state=%s pred=%s list=%v", p.self, p.state, p.pred, p.succ)
			p.mu.Unlock()
		}
		t.Fatalf("ring never converged: %v", last)
	}
	if got := len(RingOrder(tc.all())); got != 16 {
		t.Errorf("ring has %d members, want 16", got)
	}
}

// Section 4.2.1: the naive insertSucc leaves distant predecessors pointing
// past the new peer — the checker must flag it until stabilization runs.
func TestNaiveInsertBreaksConsistency(t *testing.T) {
	cfg := fastRingConfig()
	cfg.Naive = true
	cfg.SuccListLen = 2
	cfg.DisableAutoStabilize = true
	tc := newTestCluster(t, cfg)

	a := tc.addPeer("a", 100)
	b := tc.addPeer("b", 200)
	c := tc.addPeer("c", 300)
	if err := a.InitRing(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.InsertSucc(ctx, b.Self()); err != nil {
		t.Fatal(err)
	}
	if err := b.InsertSucc(ctx, c.Self()); err != nil {
		t.Fatal(err)
	}
	// Manual stabilization until everyone has full lists.
	for i := 0; i < 4; i++ {
		a.StabilizeOnce()
		b.StabilizeOnce()
		c.StabilizeOnce()
	}
	if err := CheckConsistency(tc.all()); err != nil {
		t.Fatalf("base ring inconsistent: %v", err)
	}

	// Insert x between a and b. Naive: x is JOINED instantly, but c still
	// has [a, b] and skips x.
	x := tc.addPeer("x", 150)
	if err := a.InsertSucc(ctx, x.Self()); err != nil {
		t.Fatal(err)
	}
	if err := CheckConsistency(tc.all()); err == nil {
		t.Fatal("naive insert should leave the ring transiently inconsistent (Section 4.2.1)")
	}
	// Stabilization repairs it.
	for i := 0; i < 4; i++ {
		a.StabilizeOnce()
		b.StabilizeOnce()
		c.StabilizeOnce()
		x.StabilizeOnce()
	}
	if err := CheckConsistency(tc.all()); err != nil {
		t.Fatalf("ring should converge after stabilization: %v", err)
	}
}

// The PEPPER insert ack must wait for propagation to the farthest relevant
// predecessor; with periodic stabilization disabled and the proactive
// optimization off, the insert completes only after manual rounds.
func TestPepperAckRequiresPropagation(t *testing.T) {
	cfg := fastRingConfig()
	cfg.SuccListLen = 3
	cfg.DisableAutoStabilize = true
	cfg.NoProactive = true
	tc := newTestCluster(t, cfg)

	peers := make([]*Peer, 5)
	for i := range peers {
		peers[i] = tc.addPeer(fmt.Sprintf("p%d", i), uint64(i+1)*100)
	}
	if err := peers[0].InitRing(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 1; i < 5; i++ {
		done := make(chan error, 1)
		go func() { done <- peers[i-1].InsertSucc(ctx, peers[i].Self()) }()
		// Drive stabilization until the join completes.
		for {
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			default:
				for _, p := range peers[:i] {
					p.StabilizeOnce()
				}
				time.Sleep(time.Millisecond)
				continue
			}
			break
		}
	}
	for i := 0; i < 6; i++ {
		for _, p := range peers {
			p.StabilizeOnce()
		}
	}
	if err := CheckConsistency(peers); err != nil {
		t.Fatalf("ring inconsistent after build: %v", err)
	}

	// Insert x as successor of p2 (value 350). The ack must not arrive until
	// the farthest predecessor (p0, distance d-1=2 back from p2) has seen x.
	x := tc.addPeer("x", 350)
	done := make(chan error, 1)
	go func() { done <- peers[2].InsertSucc(ctx, x.Self()) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("insert completed with no stabilization at all: %v", err)
	default:
	}
	// One round at the direct predecessor p1 is not enough for d=3 with a
	// full horizon: p1 sees x mid-list, not at penultimate position.
	peers[1].StabilizeOnce()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("insert completed after only the direct predecessor stabilized: %v", err)
	default:
	}
	if x.State() == StateJoined {
		t.Fatal("x must still be JOINING")
	}
	// Now p0 stabilizes and sees x at the penultimate position -> ack.
	peers[0].StabilizeOnce()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("insert did not complete after propagation reached the farthest predecessor")
	}
	waitUntil(t, time.Second, "x joined", func() bool { return x.State() == StateJoined })
	if err := CheckConsistency(tc.all()); err != nil {
		t.Fatalf("ring inconsistent after PEPPER insert: %v", err)
	}
}

func TestInsertBusyOnConcurrentInsertAtSamePeer(t *testing.T) {
	cfg := fastRingConfig()
	cfg.DisableAutoStabilize = true
	cfg.NoProactive = true
	tc := newTestCluster(t, cfg)
	a := tc.addPeer("a", 100)
	b := tc.addPeer("b", 200)
	c := tc.addPeer("c", 300)
	if err := a.InitRing(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.InsertSucc(ctx, c.Self()); err != nil {
		t.Fatal(err)
	}
	// Let the one-shot post-join stabilizations settle so no stray round can
	// ack the next insert early.
	time.Sleep(50 * time.Millisecond)
	// Start a slow PEPPER insert (needs stabilization, which is manual).
	done := make(chan error, 1)
	go func() { done <- a.InsertSucc(ctx, b.Self()) }()
	waitUntil(t, time.Second, "insert to start", func() bool { return a.State() == StateInserting })
	d := tc.addPeer("d", 400)
	if err := a.InsertSucc(ctx, d.Self()); !errors.Is(err, ErrBusy) {
		t.Errorf("concurrent insert = %v, want ErrBusy", err)
	}
	c.StabilizeOnce() // lets the pending insert finish (ring of 2: c acks)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestInsertUnreachableNewPeer(t *testing.T) {
	tc := newTestCluster(t, fastRingConfig())
	a := tc.addPeer("a", 100)
	if err := a.InitRing(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	ghost := Node{Addr: "ghost", Val: 200}
	if err := a.InsertSucc(ctx, ghost); err == nil {
		t.Fatal("inserting an unreachable peer must fail")
	}
	if a.State() != StateJoined {
		t.Errorf("a state = %s, want JOINED after failed insert", a.State())
	}
	if len(a.Successors()) != 0 {
		t.Errorf("ghost left in successor list: %v", a.SuccessorList())
	}
}

// One free peer handed to two inserters: the loser fails without carving
// anything — whether the peer had already joined when its insert began, or
// joined elsewhere while it waited for the ack — since the joined peer
// ignores a second joined message and a carved range would be owned by no one.
func TestInsertOfAnAlreadyJoinedPeerCarvesNothing(t *testing.T) {
	cfg := fastRingConfig()
	cfg.DisableAutoStabilize = true
	cfg.NoProactive = true
	for _, during := range []bool{false, true} {
		t.Run(fmt.Sprintf("joined during the ack wait=%v", during), func(t *testing.T) {
			tc := newTestCluster(t, cfg)
			a := tc.addPeer("a", 100)
			b := tc.addPeer("b", 200)
			carved := false
			c := tc.addPeerCB("c", 300, Callbacks{PrepareJoinData: func(Node) any { carved = true; return nil }})
			d := tc.addPeer("d", 400)
			for _, p := range []*Peer{a, c} {
				if err := p.InitRing(); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := c.InsertSucc(ctx, d.Self()); err != nil { // c's insert of b will need d's ack
				t.Fatal(err)
			}
			carved = false
			var err error
			if during {
				done := make(chan error, 1)
				go func() { done <- c.InsertSucc(ctx, b.Self()) }()
				waitUntil(t, time.Second, "c's insert to start", func() bool { return c.State() == StateInserting })
				if err := a.InsertSucc(ctx, b.Self()); err != nil {
					t.Fatal(err)
				}
				d.StabilizeOnce() // acks c's insert, which now finds b joined
				err = <-done
			} else {
				if err := a.InsertSucc(ctx, b.Self()); err != nil {
					t.Fatal(err)
				}
				err = c.InsertSucc(ctx, b.Self())
			}
			if err == nil {
				t.Fatal("inserting a peer that joined elsewhere succeeded")
			}
			if carved {
				t.Error("the failed insert carved its range for the joined peer")
			}
			if c.State() != StateJoined || len(c.Successors()) != 1 {
				t.Errorf("c after the failed insert: state %s, successors %v; want JOINED and only d", c.State(), c.SuccessorList())
			}
		})
	}
}

func TestFailureDetectionReconnects(t *testing.T) {
	tc := newTestCluster(t, fastRingConfig())
	peers := tc.buildRing(6)
	waitConsistent(t, peers)

	victim := peers[3]
	tc.net.Kill(victim.Self().Addr)
	victim.Stop()

	remaining := make([]*Peer, 0, 5)
	for _, p := range peers {
		if p != victim {
			remaining = append(remaining, p)
		}
	}
	waitConsistent(t, remaining)
	// peers[2] must now point at peers[4].
	waitUntil(t, 5*time.Second, "reconnect", func() bool {
		s := peers[2].Successors()
		return len(s) > 0 && s[0].Addr == peers[4].Self().Addr
	})
}

func TestPredFailureRaisesCallback(t *testing.T) {
	cfg := fastRingConfig()
	tc := newTestCluster(t, cfg)

	var mu sync.Mutex
	var failedEvents []Node

	peers := make([]*Peer, 4)
	for i := range peers {
		i := i
		cb := Callbacks{
			OnPredChanged: func(newPred, prev Node, predFailed bool) {
				if predFailed {
					mu.Lock()
					failedEvents = append(failedEvents, newPred)
					mu.Unlock()
				}
			},
		}
		peers[i] = tc.addPeerCB(fmt.Sprintf("p%d", i), uint64(i+1)*100, cb)
	}
	if err := peers[0].InitRing(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 1; i < 4; i++ {
		if err := peers[i-1].InsertSucc(ctx, peers[i].Self()); err != nil {
			t.Fatal(err)
		}
	}
	waitConsistent(t, peers)
	// Give predecessor pointers a moment to settle everywhere.
	waitUntil(t, 5*time.Second, "pred settled", func() bool {
		return peers[2].Pred().Addr == peers[1].Self().Addr
	})

	tc.net.Kill(peers[1].Self().Addr)
	peers[1].Stop()

	// peers[2] must eventually accept peers[0] as predecessor with the
	// failure flag set.
	waitUntil(t, 15*time.Second, "failure revival callback", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, n := range failedEvents {
			if n.Addr == peers[0].Self().Addr {
				return true
			}
		}
		return false
	})
}

// OnNewSuccessor fires when any JOINED successor changes, not only the first:
// a peer that enters the list further down is a new replication target, and
// the replication manager must push to it at once rather than at its next
// periodic refresh. Adopting an unchanged list raises nothing.
func TestNewSuccessorRaisedWhenALaterSuccessorChanges(t *testing.T) {
	p := newBareRingPeer(4, "p", 100)
	events := make(chan Node, 8)
	p.cb.OnNewSuccessor = func(first Node) { events <- first }
	p.state = StateJoined
	a, b, c, d := Node{Addr: "a", Val: 200}, Node{Addr: "b", Val: 300}, Node{Addr: "c", Val: 400}, Node{Addr: "d", Val: 350}
	p.succ = []Entry{{Node: a, State: EntryJoined}}
	adopt := func(list ...Node) {
		resp := stabilizeResp{Node: a, State: StateJoined}
		for _, n := range list {
			resp.List = append(resp.List, Entry{Node: n, State: EntryJoined})
		}
		p.adoptSuccessorList(a, resp)
	}
	next := func(what string) {
		t.Helper()
		select {
		case first := <-events:
			if first.Addr != a.Addr {
				t.Fatalf("%s: OnNewSuccessor(%v), want the first successor %v", what, first, a)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: OnNewSuccessor not raised", what)
		}
	}
	adopt(b, c)
	next("first list")
	adopt(b, c) // unchanged
	adopt(b, d) // the third successor changes; the first does not
	next("third successor changed")
	if n := len(events); n != 0 {
		t.Errorf("%d more OnNewSuccessor events, want none for an unchanged list", n)
	}
}

// The Figure 9 guard: a stale predecessor contact (from a peer further back
// than the live current predecessor) must not be accepted.
func TestStaleContactRejected(t *testing.T) {
	tc := newTestCluster(t, fastRingConfig())
	peers := tc.buildRing(3) // a(100) b(200) c(300)
	waitConsistent(t, peers)
	waitUntil(t, 5*time.Second, "pred settled", func() bool {
		return peers[2].Pred().Addr == peers[1].Self().Addr
	})
	// Simulate a stale stabilization contact from peers[0] to peers[2]
	// while peers[1] is alive between them.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := methodStabilize.Call(ctx, tc.net, peers[0].Self().Addr, peers[2].Self().Addr,
		stabilizeReq{From: peers[0].Self()})
	if err != nil {
		t.Fatal(err)
	}
	if got := peers[2].Pred().Addr; got != peers[1].Self().Addr {
		t.Errorf("stale contact accepted: pred = %s, want %s", got, peers[1].Self().Addr)
	}
}

// Section 5.1 / Figure 14: naive leave plus a single failure disconnects a
// d=2 ring; PEPPER leave survives the same schedule.
func TestLeaveAvailability(t *testing.T) {
	run := func(naive bool) error {
		cfg := fastRingConfig()
		cfg.SuccListLen = 2
		cfg.Naive = naive
		tc := newTestCluster(t, cfg)
		peers := tc.buildRing(5)
		waitConsistent(t, peers)
		waitUntil(t, 5*time.Second, "full lists", func() bool {
			for _, p := range peers {
				if len(p.Successors()) < 2 {
					return false
				}
			}
			return true
		})

		// peers[2] leaves; then its old successor peers[3] fails at once.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := peers[2].Leave(ctx); err != nil {
			return fmt.Errorf("leave: %v", err)
		}
		peers[2].Depart()
		tc.net.Kill(peers[3].Self().Addr)
		peers[3].Stop()

		remaining := []*Peer{peers[0], peers[1], peers[4]}
		deadline := time.Now().Add(2 * time.Second)
		var last error
		for time.Now().Before(deadline) {
			last = CheckConsistency(remaining)
			if last == nil {
				// Also require peers[1] to have found a live successor.
				if s := peers[1].Successors(); len(s) > 0 && tc.net.Alive(s[0].Addr) {
					return nil
				}
				last = fmt.Errorf("peers[1] has no live successor: %v", peers[1].SuccessorList())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if !naive {
			for _, p := range remaining {
				p.mu.Lock()
				t.Logf("PEPPER leave debug: %s state=%s pred=%s list=%v", p.self, p.state, p.pred, p.succ)
				p.mu.Unlock()
			}
		}
		return last
	}

	if err := run(false); err != nil {
		t.Errorf("PEPPER leave failed to preserve availability: %v", err)
	}
	if err := run(true); err == nil {
		t.Error("naive leave unexpectedly survived leave+failure with d=2 (Figure 14 scenario)")
	}
}

// A leaving peer's predecessor lengthens its successor list by one while the
// LEAVING entry is present (Section 5.1, Figure 15).
func TestLeaveLengthensPredecessorList(t *testing.T) {
	cfg := fastRingConfig()
	cfg.SuccListLen = 2
	tc := newTestCluster(t, cfg)
	peers := tc.buildRing(5)
	waitConsistent(t, peers)
	waitUntil(t, 5*time.Second, "full lists", func() bool {
		for _, p := range peers {
			if len(p.Successors()) < 2 {
				return false
			}
		}
		return true
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := peers[2].Leave(ctx); err != nil {
		t.Fatal(err)
	}
	// After the ack, the predecessor peers[1] must hold the LEAVING entry
	// plus d JOINED entries.
	waitUntil(t, 2*time.Second, "lengthened list at predecessor", func() bool {
		list := peers[1].SuccessorList()
		var leaving, joined int
		for _, e := range list {
			switch e.State {
			case EntryLeaving:
				leaving++
			case EntryJoined:
				joined++
			}
		}
		return leaving == 1 && joined >= 2
	})
	peers[2].Depart()
	remaining := []*Peer{peers[0], peers[1], peers[3], peers[4]}
	waitConsistent(t, remaining)
}

func TestLeaveSolo(t *testing.T) {
	tc := newTestCluster(t, fastRingConfig())
	a := tc.addPeer("a", 100)
	if err := a.InitRing(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := a.Leave(ctx); err != nil {
		t.Fatalf("solo leave: %v", err)
	}
	a.Depart()
	if a.State() != StateFree {
		t.Errorf("state after depart = %s", a.State())
	}
}

func TestLeaveWhileBusy(t *testing.T) {
	cfg := fastRingConfig()
	cfg.DisableAutoStabilize = true
	cfg.NoProactive = true
	tc := newTestCluster(t, cfg)
	a := tc.addPeer("a", 100)
	b := tc.addPeer("b", 200)
	if err := a.InitRing(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.InsertSucc(ctx, b.Self()); err != nil {
		t.Fatal(err)
	}
	// Let the one-shot post-join stabilizations settle so no stray round can
	// ack the next insert early.
	time.Sleep(50 * time.Millisecond)
	c := tc.addPeer("c", 300)
	done := make(chan error, 1)
	go func() { done <- a.InsertSucc(ctx, c.Self()) }()
	waitUntil(t, time.Second, "inserting", func() bool { return a.State() == StateInserting })
	lctx, lcancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer lcancel()
	if err := a.Leave(lctx); !errors.Is(err, ErrBusy) {
		t.Errorf("leave while inserting = %v, want ErrBusy", err)
	}
	b.StabilizeOnce()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// An inserter that dies mid-protocol leaves its JOINING child orphaned; the
// predecessor's ping loop drops the orphan along with the corpse (see the
// PingOnce doc for why this deviates from Algorithm 14's promotion) and the
// ring reconnects around both.
func TestOrphanAbortedOnInserterDeath(t *testing.T) {
	cfg := fastRingConfig()
	cfg.SuccListLen = 3
	cfg.DisableAutoStabilize = true
	cfg.NoProactive = true
	cfg.AckTimeout = 10 * time.Second
	tc := newTestCluster(t, cfg)

	peers := make([]*Peer, 5)
	for i := range peers {
		peers[i] = tc.addPeer(fmt.Sprintf("p%d", i), uint64(i+1)*100)
	}
	if err := peers[0].InitRing(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 1; i < 5; i++ {
		done := make(chan error, 1)
		go func() { done <- peers[i-1].InsertSucc(ctx, peers[i].Self()) }()
		for {
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			default:
				for _, p := range peers[:i] {
					p.StabilizeOnce()
				}
				continue
			}
			break
		}
	}
	for i := 0; i < 6; i++ {
		for _, p := range peers {
			p.StabilizeOnce()
		}
	}

	// p2 starts inserting x, then dies before the ack can fire.
	x := tc.addPeer("x", 350)
	insertErr := make(chan error, 1)
	go func() { insertErr <- peers[2].InsertSucc(ctx, x.Self()) }()
	// One stabilization at p1 propagates the JOINING entry into p1's list.
	waitUntil(t, time.Second, "inserting state", func() bool { return peers[2].State() == StateInserting })
	peers[1].StabilizeOnce()
	hasJoining := func(p *Peer) bool {
		for _, e := range p.SuccessorList() {
			if e.State == EntryJoining && e.Node.Addr == "x" {
				return true
			}
		}
		return false
	}
	if !hasJoining(peers[1]) {
		t.Fatal("p1 did not pick up the JOINING entry")
	}
	tc.net.Kill(peers[2].Self().Addr)
	peers[2].Stop()

	// p1's ping loop removes the dead p2 and the orphaned JOINING x with it.
	waitUntil(t, 5*time.Second, "orphan dropped", func() bool {
		peers[1].PingOnce()
		if !hasJoining(peers[1]) {
			s := peers[1].Successors()
			return len(s) > 0 && s[0].Addr == peers[3].Self().Addr
		}
		return false
	})
	if x.State() == StateJoined {
		t.Fatal("orphan must not be promoted")
	}
	// Ring must converge without p2 and without x.
	survivors := []*Peer{peers[0], peers[1], peers[3], peers[4]}
	for i := 0; i < 8; i++ {
		for _, p := range survivors {
			p.StabilizeOnce()
			p.PingOnce()
		}
	}
	if err := CheckConsistency(survivors); err != nil {
		t.Fatalf("ring inconsistent after orphan drop: %v", err)
	}
}

func TestSetValAndRingOrder(t *testing.T) {
	tc := newTestCluster(t, fastRingConfig())
	peers := tc.buildRing(3)
	waitConsistent(t, peers)
	// A split lowers the splitting peer's value; ring order must follow.
	peers[1].SetVal(150)
	order := RingOrder(peers)
	if order[1].Addr != peers[1].Self().Addr || order[1].Val != 150 {
		t.Errorf("ring order after SetVal = %v", order)
	}
}

func TestFirstStabilizedSuccessorGating(t *testing.T) {
	cfg := fastRingConfig()
	cfg.DisableAutoStabilize = true
	cfg.NoProactive = true
	tc := newTestCluster(t, cfg)
	a := tc.addPeer("a", 100)
	b := tc.addPeer("b", 200)
	if err := a.InitRing(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.InsertSucc(ctx, b.Self()); err != nil {
		t.Fatal(err)
	}
	// Right after the join, a has not stabilized with b yet: getSucc gates.
	if _, ok := a.FirstStabilizedSuccessor(); ok {
		t.Error("successor should not be stabilized immediately after join")
	}
	a.StabilizeOnce()
	if s, ok := a.FirstStabilizedSuccessor(); !ok || s.Addr != "b" {
		t.Errorf("after stabilization getSucc = %v,%v, want b", s, ok)
	}
}

func TestDepartStopsTraffic(t *testing.T) {
	tc := newTestCluster(t, fastRingConfig())
	peers := tc.buildRing(3)
	waitConsistent(t, peers)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := peers[1].Leave(ctx); err != nil {
		t.Fatal(err)
	}
	peers[1].Depart()
	if _, err := methodPing.Call(ctx, tc.net, "", peers[1].Self().Addr, transport.None{}); err == nil {
		t.Error("departed peer must not answer")
	}
	waitConsistent(t, []*Peer{peers[0], peers[2]})
}
