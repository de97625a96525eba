package ring

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/keyspace"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// testCluster wires peers to one simnet for ring-layer tests.
type testCluster struct {
	t   *testing.T
	net *simnet.Network
	cfg Config
	// manual leaves every peer's loops unstarted (see addPeer).
	manual bool
	mu     sync.Mutex
	peers  map[transport.Addr]*Peer
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
	net := simnet.New(simnet.Config{DeadCallDelay: time.Millisecond, Seed: 1})
	// Send failures are silent (as on a real network), so a codec rejection
	// of a one-way message would otherwise go unnoticed.
	t.Cleanup(func() {
		if err := net.CodecErr(); err != nil {
			t.Errorf("codec violation: %v", err)
		}
	})
	return &testCluster{
		t:     t,
		net:   net,
		cfg:   cfg,
		peers: make(map[transport.Addr]*Peer),
	}
}

// addPeer registers a FREE peer with the given callbacks. Unless the cluster
// is manual, the peer's loops start when it joins, as its owner starts them
// in production; a manual cluster never starts them and its tests drive
// StabilizeOnce and PingOnce by hand.
func (tc *testCluster) addPeer(addr string, val uint64, cb Callbacks) *Peer {
	tc.t.Helper()
	return tc.addPeerOn(tc.net, addr, val, cb)
}

// addPeerOn is addPeer for a peer that sends through net, a view of the
// cluster's network.
func (tc *testCluster) addPeerOn(net transport.Transport, addr string, val uint64, cb Callbacks) *Peer {
	tc.t.Helper()
	mux := transport.NewMux()
	var p *Peer
	if !tc.manual {
		onJoined := cb.OnJoined
		cb.OnJoined = func(self, pred Node, data any) {
			if onJoined != nil {
				onJoined(self, pred, data)
			}
			p.Start()
		}
	}
	p = NewPeer(net, mux, tc.cfg, Node{Addr: transport.Addr(addr), Val: keyspace.Key(val)}, cb)
	if err := tc.net.Register(transport.Addr(addr), mux.Dispatch); err != nil {
		tc.t.Fatal(err)
	}
	tc.mu.Lock()
	tc.peers[transport.Addr(addr)] = p
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
		peers[i] = tc.addPeer(fmt.Sprintf("p%d", i), uint64(i+1)*100, Callbacks{})
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
	p := tc.addPeer("a", 100, Callbacks{})
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
	a := tc.addPeer("a", 100, Callbacks{})
	b := tc.addPeer("b", 200, Callbacks{})
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
	pos := make(map[transport.Addr]int)
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
	byAddr := make(map[transport.Addr]*Peer)
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
			p := tc.addPeer(fmt.Sprintf("n%d", w), uint64(pos+1)*100+50, Callbacks{})
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
			p := tc.addPeer(fmt.Sprintf("n%d", w), val, Callbacks{})
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
	tc := newTestCluster(t, cfg)
	tc.manual = true

	a := tc.addPeer("a", 100, Callbacks{})
	b := tc.addPeer("b", 200, Callbacks{})
	c := tc.addPeer("c", 300, Callbacks{})
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
	x := tc.addPeer("x", 150, Callbacks{})
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
	cfg.NoProactive = true
	tc := newTestCluster(t, cfg)
	tc.manual = true
	peers := tc.buildByHand(5)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Insert x as successor of p2 (value 350). The ack must not arrive until
	// the farthest predecessor (p0, distance d-1=2 back from p2) has seen x.
	x := tc.addPeer("x", 350, Callbacks{})
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

// An inserter's list keeps at most d JOINED entries through its new
// successor's flip to JOINED. An entry past the d-th lies beyond the
// horizon, where no later join is announced, so until the inserter's next
// round it would skip such a joiner (Definition 5). No round runs here but
// those the test calls, and the inserter calls none after its insert.
func TestInserterListKeepsTheHorizonThroughTheFlip(t *testing.T) {
	cfg := quietRingConfig(true)
	cfg.SuccListLen = 2
	tc := newTestCluster(t, cfg)
	tc.manual = true
	peers := tc.buildByHand(4)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Each insert is driven by the one peer that must see its joiner.
	x := tc.addPeer("x", 450, Callbacks{})
	tc.insertByHand(ctx, peers[3], x, peers[2])
	if n := len(peers[3].Successors()); n > cfg.SuccListLen {
		t.Errorf("the inserter lists %d JOINED successors, want at most d=%d", n, cfg.SuccListLen)
	}
	// y joins after p0; p3 is past y's horizon and is not told.
	y := tc.addPeer("y", 150, Callbacks{})
	tc.insertByHand(ctx, peers[0], y, x)
	if err := CheckConsistency(tc.all()); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBusyOnConcurrentInsertAtSamePeer(t *testing.T) {
	cfg := fastRingConfig()
	cfg.NoProactive = true
	tc := newTestCluster(t, cfg)
	tc.manual = true
	a := tc.addPeer("a", 100, Callbacks{})
	b := tc.addPeer("b", 200, Callbacks{})
	c := tc.addPeer("c", 300, Callbacks{})
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
	d := tc.addPeer("d", 400, Callbacks{})
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
	a := tc.addPeer("a", 100, Callbacks{})
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

// joinedCounter is one peer's view of the network that counts the joined
// messages it sends. It hides the bulk interface, so a bulk call is a Call.
type joinedCounter struct {
	transport.Transport
	joined atomic.Int64
}

func (n *joinedCounter) Call(ctx context.Context, from, to transport.Addr, method string, payload any) (any, error) {
	if method == methodJoined.Name() {
		n.joined.Add(1)
	}
	return n.Transport.Call(ctx, from, to, method, payload)
}

// A carve the layer above refuses sends no joined message and fails the
// insert with the refusal: the joining peer never joins, the inserter drops
// it from its list, and the ring converges without it.
func TestRefusedCarveAbortsInsert(t *testing.T) {
	tc := newTestCluster(t, fastRingConfig())
	refusal := errors.New("carve refused")
	var refuse atomic.Bool
	net := &joinedCounter{Transport: tc.net}
	a := tc.addPeerOn(net, "a", 100, Callbacks{PrepareJoinData: func(Node) (any, error) {
		if refuse.Load() {
			return nil, refusal
		}
		return nil, nil
	}})
	b := tc.addPeer("b", 200, Callbacks{})
	c := tc.addPeer("c", 300, Callbacks{})
	if err := a.InitRing(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.InsertSucc(ctx, c.Self()); err != nil {
		t.Fatal(err)
	}
	waitConsistent(t, []*Peer{a, c})
	sent := net.joined.Load()
	if sent != 1 {
		t.Fatalf("counted %d joined messages for a's first insert, want 1", sent)
	}

	refuse.Store(true)
	err := a.InsertSucc(ctx, b.Self())
	if !errors.Is(err, refusal) {
		t.Fatalf("insert with a refused carve = %v, want an error wrapping %v", err, refusal)
	}
	if got := net.joined.Load(); got != sent {
		t.Errorf("a sent %d joined messages for the refused insert, want none", got-sent)
	}
	for _, n := range a.SuccessorList() {
		if n.Node.Addr == b.Self().Addr {
			t.Errorf("b left in a's successor list: %v", a.SuccessorList())
		}
	}
	waitConsistent(t, []*Peer{a, c})
	if b.State() == StateJoined {
		t.Error("b joined on a refused carve")
	}
	// a gave b's reservation back: c draws b at once, within a's deadline,
	// at a value past its own.
	cctx, ccancel := context.WithTimeout(ctx, time.Second)
	defer ccancel()
	if err := c.InsertSucc(cctx, Node{Addr: b.Self().Addr, Val: 400}); err != nil {
		t.Fatalf("c's insert of b after a's refused insert: %v", err)
	}
	waitConsistent(t, []*Peer{a, b, c})
}

// One free peer handed to two inserters: the loser fails with ErrNotFree
// without carving anything or touching its successor list — whether the peer
// had already joined when its insert began, or the winner was still waiting
// for its ack (the peer is reserved for the winner then, so it cannot join
// elsewhere during that wait, and the winner's insert completes).
func TestInsertOfAnAlreadyJoinedPeerCarvesNothing(t *testing.T) {
	cfg := fastRingConfig()
	cfg.NoProactive = true
	for _, during := range []bool{false, true} {
		t.Run(fmt.Sprintf("joined during the ack wait=%v", during), func(t *testing.T) {
			tc := newTestCluster(t, cfg)
			tc.manual = true
			var carvedBy []Node
			carve := Callbacks{PrepareJoinData: func(n Node) (any, error) { carvedBy = append(carvedBy, n); return nil, nil }}
			a := tc.addPeer("a", 100, carve)
			b := tc.addPeer("b", 200, Callbacks{})
			c := tc.addPeer("c", 300, carve)
			d := tc.addPeer("d", 400, Callbacks{})
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
			carvedBy = nil
			var err error
			loser, loserSuccs := c, 1 // c keeps only d
			if during {
				done := make(chan error, 1)
				go func() { done <- c.InsertSucc(ctx, b.Self()) }()
				waitUntil(t, time.Second, "c's insert to start", func() bool { return c.State() == StateInserting })
				err = a.InsertSucc(ctx, b.Self())
				loser, loserSuccs = a, 0 // a stays alone
				// d's round acks c's insert, which still holds b.
				d.StabilizeOnce()
				if err := <-done; err != nil {
					t.Fatalf("the reserving insert failed: %v", err)
				}
			} else {
				if err := a.InsertSucc(ctx, b.Self()); err != nil {
					t.Fatal(err)
				}
				err = c.InsertSucc(ctx, b.Self())
			}
			if !errors.Is(err, ErrNotFree) {
				t.Fatalf("second insert of b = %v, want ErrNotFree", err)
			}
			if len(carvedBy) != 1 || b.State() != StateJoined {
				t.Errorf("carved %d times, b %s; want one carve, by the winner, and b JOINED", len(carvedBy), b.State())
			}
			if loser.State() != StateJoined || len(loser.Successors()) != loserSuccs {
				t.Errorf("%s after the failed insert: state %s, successors %v; want JOINED with %d", loser.Self(), loser.State(), loser.SuccessorList(), loserSuccs)
			}
		})
	}
}

// Race (i): two JOINED peers insert the same FREE peer at once. The free peer
// grants itself to one of them; the other fails with ErrNotFree in one round
// trip, before it enters INSERTING, lowers anything or carves anything —
// instead of waiting out AckTimeout with a JOINING entry the ring must
// abort. Stabilization is driven by hand, so nothing acks the loser.
func TestConcurrentInsertersOfOneFreePeer(t *testing.T) {
	cfg := fastRingConfig()
	cfg.SuccListLen = 3
	cfg.NoProactive = true
	cfg.AckTimeout = 10 * time.Second
	tc := newTestCluster(t, cfg)
	tc.manual = true

	var mu sync.Mutex
	carved := map[transport.Addr]bool{}
	peers := make([]*Peer, 3)
	for i := range peers {
		addr := fmt.Sprintf("p%d", i)
		peers[i] = tc.addPeer(addr, uint64(i+1)*100, Callbacks{PrepareJoinData: func(Node) (any, error) {
			mu.Lock()
			carved[transport.Addr(addr)] = true
			mu.Unlock()
			return nil, nil
		}})
	}
	if err := peers[0].InitRing(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	stabilizeUntil := func(done <-chan error, ps []*Peer) error {
		for {
			select {
			case err := <-done:
				return err
			default:
				for _, p := range ps {
					p.StabilizeOnce()
				}
			}
		}
	}
	for i := 1; i < len(peers); i++ {
		done := make(chan error, 1)
		go func() { done <- peers[i-1].InsertSucc(ctx, peers[i].Self()) }()
		if err := stabilizeUntil(done, peers[:i]); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < 4; i++ {
		for _, p := range peers {
			p.StabilizeOnce()
		}
	}
	mu.Lock()
	clear(carved)
	mu.Unlock()

	x := tc.addPeer("x", 0, Callbacks{})
	inserters := peers[:2]
	before := [][]Entry{inserters[0].SuccessorList(), inserters[1].SuccessorList()}
	var sawInserting [2]atomic.Bool
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() { // records which inserter ever reached INSERTING
		defer close(watched)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, p := range inserters {
				if p.State() == StateInserting {
					sawInserting[i].Store(true)
				}
			}
			runtime.Gosched()
		}
	}()
	type result struct {
		i   int
		err error
		in  time.Duration
	}
	results := make(chan result, 2)
	start := time.Now()
	for i, p := range inserters {
		go func() {
			err := p.InsertSucc(ctx, Node{Addr: x.Self().Addr, Val: p.Self().Val + 50})
			results <- result{i, err, time.Since(start)}
		}()
	}
	var lose result
	select {
	case lose = <-results:
	case <-time.After(time.Second):
		t.Fatal("neither insert of the one free peer failed within 1 s")
	}
	close(stop)
	<-watched
	if !errors.Is(lose.err, ErrNotFree) || lose.in > time.Second {
		t.Fatalf("loser %s returned %v after %v, want ErrNotFree within 1 s", inserters[lose.i].Self(), lose.err, lose.in)
	}
	loser, winner := inserters[lose.i], inserters[1-lose.i]
	if sawInserting[lose.i].Load() {
		t.Errorf("loser %s entered INSERTING", loser.Self())
	}
	if after := loser.SuccessorList(); loser.State() != StateJoined || !slices.Equal(after, before[lose.i]) {
		t.Errorf("loser %s: state %s, successors %v; want JOINED and unchanged %v", loser.Self(), loser.State(), after, before[lose.i])
	}

	won := make(chan error, 1)
	go func() { r := <-results; won <- r.err }()
	if err := stabilizeUntil(won, append(peers, x)); err != nil {
		t.Fatalf("winner %s: %v", winner.Self(), err)
	}
	mu.Lock()
	if carved[loser.Self().Addr] || !carved[winner.Self().Addr] {
		t.Errorf("carved %v; want the winner %s only", carved, winner.Self())
	}
	mu.Unlock()
	if x.State() != StateJoined {
		t.Fatalf("x is %s after the winning insert, want JOINED", x.State())
	}
	all := append(peers, x)
	for i := 0; i < 6; i++ {
		for _, p := range all {
			p.StabilizeOnce()
		}
	}
	if err := CheckConsistency(all); err != nil {
		t.Fatalf("ring inconsistent after the race: %v", err)
	}
}

// ring.reserve grants a free peer to one inserter at a time: granted once,
// renewed for the same inserter, refused to a second one and by a JOINED
// peer, and granted to the second once the first one's deadline passed —
// after which the first inserter's late joined message is refused.
func TestReserveGrantsOnce(t *testing.T) {
	tc := newTestCluster(t, fastRingConfig())
	a := tc.addPeer("a", 100, Callbacks{})
	b := tc.addPeer("b", 200, Callbacks{})
	x := tc.addPeer("x", 300, Callbacks{})
	if err := a.InitRing(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	short, cancelShort := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancelShort()

	if err := a.reserve(short, x.Self()); err != nil {
		t.Fatalf("grant: %v", err)
	}
	if x.State() != StateJoining {
		t.Fatalf("x is %s after the grant, want JOINING", x.State())
	}
	if err := a.reserve(short, x.Self()); err != nil {
		t.Fatalf("re-reserve by the same inserter: %v", err)
	}
	if err := b.reserve(ctx, x.Self()); !errors.Is(err, ErrNotFree) {
		t.Fatalf("second inserter = %v, want ErrNotFree", err)
	}
	if err := b.reserve(ctx, a.Self()); !errors.Is(err, ErrNotFree) {
		t.Fatalf("reserve of a JOINED peer = %v, want ErrNotFree", err)
	}

	waitUntil(t, 2*time.Second, "a's reservation to lapse", func() bool { return b.reserve(ctx, x.Self()) == nil })
	late := joinedMsg{Self: x.Self(), Pred: a.Self()}
	if _, err := methodJoined.Call(ctx, tc.net, a.Self().Addr, x.Self().Addr, late); !errors.Is(err, ErrNotFree) {
		t.Fatalf("late joined from the lapsed inserter = %v, want ErrNotFree", err)
	}
	if x.State() != StateJoining {
		t.Fatalf("x is %s after the refused joined, want JOINING for b", x.State())
	}
	if _, err := methodJoined.Call(ctx, tc.net, b.Self().Addr, x.Self().Addr, joinedMsg{Self: x.Self(), Pred: b.Self()}); err != nil {
		t.Fatalf("joined from the reserving inserter: %v", err)
	}
	if x.State() != StateJoined {
		t.Fatalf("x is %s after its reserver's joined, want JOINED", x.State())
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
		peers[i] = tc.addPeer(fmt.Sprintf("p%d", i), uint64(i+1)*100, cb)
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
	a := tc.addPeer("a", 100, Callbacks{})
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
	cfg.NoProactive = true
	tc := newTestCluster(t, cfg)
	tc.manual = true
	a := tc.addPeer("a", 100, Callbacks{})
	b := tc.addPeer("b", 200, Callbacks{})
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
	c := tc.addPeer("c", 300, Callbacks{})
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
	cfg.NoProactive = true
	cfg.AckTimeout = 10 * time.Second
	tc := newTestCluster(t, cfg)
	tc.manual = true

	peers := make([]*Peer, 5)
	for i := range peers {
		peers[i] = tc.addPeer(fmt.Sprintf("p%d", i), uint64(i+1)*100, Callbacks{})
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
	x := tc.addPeer("x", 350, Callbacks{})
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
	cfg.NoProactive = true
	tc := newTestCluster(t, cfg)
	tc.manual = true
	a := tc.addPeer("a", 100, Callbacks{})
	b := tc.addPeer("b", 200, Callbacks{})
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
