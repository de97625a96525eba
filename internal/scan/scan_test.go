package scan

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/ring"
	"repro/internal/routecache"
	"repro/internal/transport"
)

// The planner is tested without a cluster and without a clock: fakeNet is a
// stub transport whose peers answer segment scans, replica reads and
// mutations from a scripted ring, synchronously at issue time (mutations are
// scripted in mutate_test.go), and fakeRoutes is a route seam
// over a real routecache.Cache whose "full lookup" reads the same script.
// Every test is a deterministic sequence of calls.

// call records one request the planner issued.
type call struct {
	to      transport.Addr
	replica bool         // a replica read; otherwise a segment scan
	cursor  keyspace.Key // segment scans only
	epoch   uint64
	ctx     context.Context
	// live is how many earlier segment scans were still in flight — issued
	// and neither consumed nor discarded by the planner, both of which cancel
	// the scan's context — when this one was issued.
	live int
}

// fakePeer is one scripted peer: it owns rng at epoch, advertises chain, and
// stores the keysIn its range. As a replica holder it answers with the keysIn
// the requested interval.
type fakePeer struct {
	rng   keyspace.Range
	epoch uint64
	chain []ring.Node

	dead       bool                                                  // unreachable: the fail-stop signature
	disclaims  bool                                                  // answers NotOwner whatever the cursor
	segErr     error                                                 // handler error answering segment scans
	mutErr     error                                                 // handler error answering mutations
	tamper     func(datastore.SegmentResult) datastore.SegmentResult // rewrites an honest segment answer
	replicaErr error                                                 // error answering replica reads
}

type fakeNet struct {
	peers     map[transport.Addr]*fakePeer
	calls     []*call     // segment scans and replica reads
	mutations []*mutation // inserts and deletes
}

// newRing scripts a ring of peers p0..pn-1 where p_i owns (his[i-1], his[i]]
// and p0's range wraps down from his[n-1]; each advertises its next succLen
// successors. Epochs are 1, 2, ....
func newRing(succLen int, his ...keyspace.Key) *fakeNet {
	n := &fakeNet{peers: make(map[transport.Addr]*fakePeer)}
	node := func(i int) ring.Node {
		i %= len(his)
		return ring.Node{Addr: transport.Addr(fmt.Sprintf("p%d", i)), Val: his[i]}
	}
	for i := range his {
		p := &fakePeer{rng: keyspace.NewRange(his[(i+len(his)-1)%len(his)], his[i]), epoch: uint64(i + 1)}
		for s := 1; s <= succLen; s++ {
			p.chain = append(p.chain, node(i+s))
		}
		n.peers[node(i).Addr] = p
	}
	return n
}

// keysIn returns the items the scripted ring stores in iv: every multiple of
// 10 up to 1000.
func keysIn(iv keyspace.Interval) []datastore.Item {
	var out []datastore.Item
	for k := (iv.First() + 9) / 10 * 10; k <= min(iv.Last(), 1000); k += 10 {
		out = append(out, datastore.Item{Key: k})
	}
	return out
}

func (n *fakeNet) CallAsync(ctx context.Context, _, to transport.Addr, _ string, payload any) *transport.Pending {
	// The request types are unexported wire structs; their exported fields
	// are the protocol.
	req := reflect.ValueOf(payload)
	if !req.FieldByName("Iv").IsValid() {
		return n.mutate(to, req)
	}
	iv := req.FieldByName("Iv").Interface().(keyspace.Interval)
	c := &call{to: to, epoch: req.FieldByName("Epoch").Uint(), ctx: ctx}
	if f := req.FieldByName("Cursor"); f.IsValid() {
		c.cursor = keyspace.Key(f.Uint())
		for _, prev := range n.calls {
			if !prev.replica && prev.ctx.Err() == nil {
				c.live++
			}
		}
	} else {
		c.replica = true
	}
	n.calls = append(n.calls, c)

	pend := transport.NewPending()
	p := n.peers[to]
	switch {
	case p == nil || p.dead:
		pend.Resolve(nil, fmt.Errorf("fake: %s: %w", to, transport.ErrUnreachable))
	case c.replica:
		pend.Resolve(keysIn(iv), p.replicaErr)
	case p.segErr != nil:
		pend.Resolve(nil, p.segErr)
	case p.disclaims || !p.rng.Contains(c.cursor):
		pend.Resolve(datastore.SegmentResult{NotOwner: true}, nil)
	case c.epoch != 0 && c.epoch != p.epoch:
		pend.Resolve(datastore.SegmentResult{StaleEpoch: true, Epoch: p.epoch}, nil)
	default:
		end, done := p.rng.ContiguousEnd(c.cursor, iv.Last())
		piece := keyspace.ClosedInterval(c.cursor, end)
		res := datastore.SegmentResult{Piece: piece, Items: keysIn(piece), Done: done, Range: p.rng, Epoch: p.epoch, Chain: p.chain}
		if p.tamper != nil {
			res = p.tamper(res)
		}
		pend.Resolve(res, nil)
	}
	return pend
}

func (n *fakeNet) Call(ctx context.Context, from, to transport.Addr, method string, payload any) (any, error) {
	return n.CallAsync(ctx, from, to, method, payload).Result()
}
func (n *fakeNet) Register(transport.Addr, transport.Handler) error { return nil }
func (n *fakeNet) Send(_, _ transport.Addr, _ string, _ any)        {}
func (n *fakeNet) Close() error                                     { return nil }

// segments returns the segment scans issued so far as "addr@cursor".
func (n *fakeNet) segments() []string {
	var out []string
	for _, c := range n.calls {
		if !c.replica {
			out = append(out, fmt.Sprintf("%s@%d", c.to, c.cursor))
		}
	}
	return out
}

// replicaReads returns the holders asked for replica reads, in order.
func (n *fakeNet) replicaReads() []transport.Addr {
	var out []transport.Addr
	for _, c := range n.calls {
		if c.replica {
			out = append(out, c.to)
		}
	}
	return out
}

// fakeRoutes is a route seam over a real cache. A full lookup answers from
// the scripted ring (dead peers included: a lookup's answer can be as stale
// as a hint), learning what it found like both real origins do.
type fakeRoutes struct {
	net   *fakeNet
	cache *routecache.Cache
	// addrOnly makes every Resolve a full lookup that yields only an address
	// and teaches the cache nothing — an origin whose lookups its cache does
	// not describe.
	addrOnly    bool
	lookups     []keyspace.Key
	invalidated []transport.Addr
}

func newRoutes(n *fakeNet) *fakeRoutes { return &fakeRoutes{net: n, cache: routecache.New(0)} }

func (r *fakeRoutes) CachedEntry(key keyspace.Key) (routecache.Entry, bool) {
	return r.cache.Lookup(key)
}

func (r *fakeRoutes) Resolve(_ context.Context, key keyspace.Key) (routecache.Entry, bool, error) {
	if ent, ok := r.cache.Lookup(key); ok && !r.addrOnly {
		return ent, true, nil
	}
	r.lookups = append(r.lookups, key)
	for addr, p := range r.net.peers {
		if !p.rng.Contains(key) {
			continue
		}
		if r.addrOnly {
			return routecache.Entry{Addr: addr}, false, nil
		}
		ent := routecache.Entry{Range: p.rng, Addr: addr, Epoch: p.epoch, Replicas: ring.ChainAddrs(addr, p.chain)}
		r.cache.Learn(ent.Range, ent.Addr, ent.Epoch, ent.Replicas)
		return ent, true, nil
	}
	return routecache.Entry{}, false, errors.New("fake: key unowned")
}

func (r *fakeRoutes) Learn(rng keyspace.Range, owner transport.Addr, epoch uint64, chain []ring.Node) {
	r.cache.Learn(rng, owner, epoch, ring.ChainAddrs(owner, chain))
}

func (r *fakeRoutes) InvalidateOwner(owner transport.Addr) {
	r.invalidated = append(r.invalidated, owner)
	r.cache.Invalidate(owner)
}

// learn primes the cache with p's true route.
func (r *fakeRoutes) learn(addr transport.Addr) {
	p := r.net.peers[addr]
	r.cache.Learn(p.rng, addr, p.epoch, ring.ChainAddrs(addr, p.chain))
}

func planner(n *fakeNet, r *fakeRoutes, depth int, allowReplica bool) Planner {
	return Planner{Net: n, From: "origin", Routes: r, Depth: depth, AllowReplica: allowReplica}
}

func wantItems(t *testing.T, got []datastore.Item, iv keyspace.Interval) {
	t.Helper()
	if want := keysIn(iv); !reflect.DeepEqual(got, want) {
		t.Errorf("items = %v, want %v", got, want)
	}
}

func wantEqual[T any](t *testing.T, what string, got, want T) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

func TestPlansFromChain(t *testing.T) {
	node := func(addr string, val keyspace.Key) ring.Node {
		return ring.Node{Addr: transport.Addr(addr), Val: val}
	}
	addrs := func(a ...transport.Addr) []transport.Addr { return a }
	cases := []struct {
		name         string
		prevHi, last keyspace.Key
		chain        []ring.Node
		want         []segPlan
	}{
		{name: "empty chain", prevHi: 100, last: 500},
		{name: "interval already covered", prevHi: 500, last: 500, chain: []ring.Node{node("b", 600)}},
		{
			name: "consecutive successors", prevHi: 100, last: 500,
			chain: []ring.Node{node("b", 200), node("c", 300)},
			want: []segPlan{
				{cursor: 101, addr: "b", end: 200, endKnown: true, replicas: addrs("c")},
				{cursor: 201, addr: "c", end: 300, endKnown: true, replicas: []transport.Addr{}},
			},
		},
		{
			name: "zero node ends the chain", prevHi: 100, last: 500,
			chain: []ring.Node{node("b", 200), {}, node("d", 400)},
			want:  []segPlan{{cursor: 101, addr: "b", end: 200, endKnown: true, replicas: addrs("d")}},
		},
		{
			name: "wrapped successor value covers the remainder", prevHi: 900, last: 990,
			chain: []ring.Node{node("a", 50), node("b", 200)},
			want:  []segPlan{{cursor: 901, addr: "a", end: 990, endKnown: true, final: true, replicas: addrs("b")}},
		},
		{
			name: "chain value at or past last is final", prevHi: 100, last: 250,
			chain: []ring.Node{node("b", 200), node("c", 250), node("d", 400)},
			want: []segPlan{
				{cursor: 101, addr: "b", end: 200, endKnown: true, replicas: addrs("c", "d")},
				{cursor: 201, addr: "c", end: 250, endKnown: true, final: true, replicas: addrs("d")},
			},
		},
		{
			// A two-peer ring's chain names the owner again behind its
			// successor: the owner is never its own replica holder.
			name: "owner repeated in chain", prevHi: 100, last: 150,
			chain: []ring.Node{node("b", 200), node("a", 100), node("b", 200)},
			want:  []segPlan{{cursor: 101, addr: "b", end: 150, endKnown: true, final: true, replicas: addrs("a")}},
		},
	}
	for _, c := range cases {
		if got := plansFromChain(c.prevHi, c.last, c.chain); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, c.want)
		}
	}
}

func TestReplan(t *testing.T) {
	inflightAt := func(pl segPlan) []*segCall { return []*segCall{{segPlan: pl}} }
	fresh := []segPlan{
		{cursor: 101, addr: "b", end: 200, endKnown: true, replicas: []transport.Addr{"c"}},
		{cursor: 201, addr: "c", end: 300, endKnown: true},
		{cursor: 301, addr: "d", end: 400, endKnown: true},
	}

	// Nothing in flight: everything contiguous from the frontier is planned.
	wantEqual(t, "plan from the frontier", replan(nil, fresh, 101), fresh)
	// A frontier the chain does not start at plans nothing (a boundary moved).
	wantEqual(t, "plan off the chain", replan(nil, fresh, 151), []segPlan(nil))

	// An end-unknown probe the fresh chain does not describe blocks
	// speculation past it: nobody knows where it ends.
	probe := inflightAt(segPlan{cursor: 101, addr: "x"})
	wantEqual(t, "plan past an unknown end", replan(probe, fresh, 101), []segPlan(nil))

	// The same probe, described by the fresh chain, gains its end and replica
	// candidates, and planning continues beyond it.
	probe = inflightAt(segPlan{cursor: 101, addr: "b", replicas: []transport.Addr{"z"}})
	wantEqual(t, "plan past a refreshed probe", replan(probe, fresh, 101), fresh[1:])
	wantEqual(t, "refreshed probe", probe[0].segPlan,
		segPlan{cursor: 101, addr: "b", end: 200, endKnown: true, replicas: []transport.Addr{"z", "c"}})
}

// A warm scan keeps exactly Depth segments in flight once a chain is known,
// never more, and returns every piece's items in key order.
func TestDepthBoundsSegmentsInFlight(t *testing.T) {
	iv := keyspace.ClosedInterval(5, 795)
	for _, depth := range []int{1, 3, 4} {
		n := newRing(6, 100, 200, 300, 400, 500, 600, 700, 800)
		items, st, err := planner(n, newRoutes(n), depth, false).Attempt(context.Background(), iv)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		wantItems(t, items, iv)
		wantEqual(t, "pieces", st.Pieces, 8)
		wantEqual(t, "segments", n.segments(), []string{"p0@5", "p1@101", "p2@201", "p3@301", "p4@401", "p5@501", "p6@601", "p7@701"})
		deepest := 0
		for _, c := range n.calls {
			deepest = max(deepest, c.live+1)
		}
		wantEqual(t, fmt.Sprintf("depth %d: deepest pipeline", depth), deepest, depth)
	}
}

// A query reaching MaxKey ends in the peer whose range wraps through the top
// of the key space.
func TestScanThroughWrappedRange(t *testing.T) {
	n := newRing(2, 100, 200, 300)
	iv := keyspace.ClosedInterval(150, keyspace.MaxKey)
	items, st, err := planner(n, newRoutes(n), 3, false).Attempt(context.Background(), iv)
	if err != nil {
		t.Fatal(err)
	}
	wantEqual(t, "segments", n.segments(), []string{"p1@150", "p2@201", "p0@301"})
	wantEqual(t, "pieces", st.Pieces, 3)
	wantItems(t, items, iv)
}

// A piece that ends short of the next issued cursor proves a boundary moved
// under the speculative plan: every segment in flight is discarded and the
// frontier re-resolved.
func TestFrontierMismatchDiscardsSpeculation(t *testing.T) {
	n := newRing(4, 100, 200, 300, 400)
	// p1 split since p0 last stabilised: p0 still advertises p1 at 200, but
	// p1 now ends at 150 and a newcomer owns (150, 200].
	p1 := n.peers["p1"]
	p1.rng = keyspace.NewRange(100, 150)
	n.peers["new"] = &fakePeer{rng: keyspace.NewRange(150, 200), epoch: 9, chain: p1.chain}
	p1.chain = append([]ring.Node{{Addr: "new", Val: 200}}, p1.chain...)

	iv := keyspace.ClosedInterval(5, 395)
	r := newRoutes(n)
	items, st, err := planner(n, r, 3, false).Attempt(context.Background(), iv)
	if err != nil {
		t.Fatal(err)
	}
	wantItems(t, items, iv)
	wantEqual(t, "pieces", st.Pieces, 5)
	wantEqual(t, "segments", n.segments(), []string{
		"p0@5", "p1@101", "p2@201", "p3@301", // speculated from p0's stale chain
		"new@151", "p2@201", "p3@301", // after p1's short piece
	})
	if c := n.calls[4]; c.live != 0 {
		t.Errorf("%d speculative segments still in flight when the frontier was re-resolved", c.live)
	}
	wantEqual(t, "lookups", r.lookups, []keyspace.Key{5, 151})
	wantEqual(t, "invalidated", r.invalidated, []transport.Addr(nil))
	wantEqual(t, "stale routes", st.StaleRoutes, 0)
}

// A route proven wrong by a typed verdict costs exactly one invalidation and
// one re-resolve, and never a wrong answer.
func TestStaleRouteCostsOneProbe(t *testing.T) {
	iv := keyspace.ClosedInterval(120, 180)
	t.Run("NotOwner", func(t *testing.T) {
		n := newRing(2, 100, 200, 300)
		r := newRoutes(n)
		r.cache.Learn(keyspace.NewRange(100, 300), "p2", 3, nil) // p2 owned (100, 300] before p1 joined
		items, st, err := planner(n, r, 3, false).Attempt(context.Background(), iv)
		if err != nil {
			t.Fatal(err)
		}
		wantItems(t, items, iv)
		wantEqual(t, "segments", n.segments(), []string{"p2@120", "p1@120"})
		wantEqual(t, "invalidated", r.invalidated, []transport.Addr{"p2"})
		wantEqual(t, "lookups", r.lookups, []keyspace.Key{120})
		wantEqual(t, "stats", [2]int{st.StaleRoutes, st.StaleEpochHints}, [2]int{1, 0})
	})
	t.Run("StaleEpoch", func(t *testing.T) {
		n := newRing(2, 100, 200, 300)
		r := newRoutes(n)
		r.cache.Learn(keyspace.NewRange(100, 200), "p1", 77, nil) // right owner, another incarnation
		items, st, err := planner(n, r, 3, false).Attempt(context.Background(), iv)
		if err != nil {
			t.Fatal(err)
		}
		wantItems(t, items, iv)
		wantEqual(t, "segments", n.segments(), []string{"p1@120", "p1@120"})
		wantEqual(t, "epochs", [2]uint64{n.calls[0].epoch, n.calls[1].epoch}, [2]uint64{77, 2})
		wantEqual(t, "invalidated", r.invalidated, []transport.Addr{"p1"})
		wantEqual(t, "lookups", r.lookups, []keyspace.Key{120})
		wantEqual(t, "stats", [2]int{st.StaleRoutes, st.StaleEpochHints}, [2]int{1, 1})
	})
}

// A lookup that yields only an address still scans: the entry segment goes
// out alone as an end-unknown probe, and pipelining starts from its answer.
func TestAddressOnlyRouteProbesThenPipelines(t *testing.T) {
	n := newRing(3, 100, 200, 300, 400)
	r := newRoutes(n)
	r.addrOnly = true
	iv := keyspace.ClosedInterval(5, 395)
	items, _, err := planner(n, r, 3, false).Attempt(context.Background(), iv)
	if err != nil {
		t.Fatal(err)
	}
	wantItems(t, items, iv)
	wantEqual(t, "segments", n.segments(), []string{"p0@5", "p1@101", "p2@201", "p3@301"})
	wantEqual(t, "probe epoch", n.calls[0].epoch, uint64(0))
	wantEqual(t, "lookups", r.lookups, []keyspace.Key{5})
}

// deadPrimary scripts a warm scan over four peers whose second owner, p1, has
// fail-stopped; its replica holders are p2 and p3.
func deadPrimary() (*fakeNet, *fakeRoutes, keyspace.Interval) {
	n := newRing(3, 100, 200, 300, 400)
	r := newRoutes(n)
	for addr := range n.peers {
		r.learn(addr)
	}
	n.peers["p1"].dead = true
	return n, r, keyspace.ClosedInterval(5, 395)
}

func TestUnreachablePrimaryWithoutReplicaFallback(t *testing.T) {
	n, r, iv := deadPrimary()
	_, _, err := planner(n, r, 3, false).Attempt(context.Background(), iv)
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	wantEqual(t, "replica reads", n.replicaReads(), []transport.Addr(nil))
	wantEqual(t, "invalidated", r.invalidated, []transport.Addr{"p1"})
	if _, ok := r.cache.Lookup(150); ok {
		t.Error("dead primary's route still cached")
	}
}

func TestUnreachablePrimaryServedByReplica(t *testing.T) {
	n, r, iv := deadPrimary()
	n.peers["p2"].replicaErr = errors.New("fake: holder busy") // the next holder in the chain is tried
	items, st, err := planner(n, r, 3, true).Attempt(context.Background(), iv)
	if err != nil {
		t.Fatal(err)
	}
	wantItems(t, items, iv)
	wantEqual(t, "replica reads", n.replicaReads(), []transport.Addr{"p2", "p3"})
	wantEqual(t, "replica epoch", n.calls[len(n.calls)-1].epoch, n.peers["p1"].epoch)
	wantEqual(t, "stats", [2]int{st.Pieces, st.ReplicaPieces}, [2]int{4, 1})
	// The entry naming the dead owner is kept: it is what carries the replica
	// candidates for the next query.
	wantEqual(t, "invalidated", r.invalidated, []transport.Addr(nil))
	if ent, ok := r.cache.Lookup(150); !ok || ent.Addr != "p1" {
		t.Errorf("dead primary's route = %+v, %v; want it kept", ent, ok)
	}
	// Only p1's segment was replica-read; the segments speculated past it
	// were served by their own primaries.
	wantEqual(t, "segments", n.segments(), []string{"p0@5", "p1@101", "p2@201", "p3@301"})
}

// An unreachable end-unknown probe knows neither its end, its epoch nor its
// replicas; the route cache fills them in before the fallback is decided.
func TestUnreachableProbeConsultsCache(t *testing.T) {
	n, r, _ := deadPrimary()
	r.addrOnly = true
	iv := keyspace.ClosedInterval(150, 250)
	items, st, err := planner(n, r, 3, true).Attempt(context.Background(), iv)
	if err != nil {
		t.Fatal(err)
	}
	wantItems(t, items, iv)
	wantEqual(t, "segments", n.segments(), []string{"p1@150", "p2@201"})
	wantEqual(t, "replica reads", n.replicaReads(), []transport.Addr{"p2"})
	wantEqual(t, "replica epoch", n.calls[1].epoch, n.peers["p1"].epoch)
	wantEqual(t, "replica pieces", st.ReplicaPieces, 1)
}

// A holder refusing with ErrStaleEpoch has seen a newer incarnation own the
// segment: the believed primary's whole chain is deposed, so no further
// holder is asked and the route is dropped.
func TestReplicaHolderStaleEpochAbandonsChain(t *testing.T) {
	n, r, iv := deadPrimary()
	n.peers["p2"].replicaErr = fmt.Errorf("fake: %w", datastore.ErrStaleEpoch)
	_, st, err := planner(n, r, 3, true).Attempt(context.Background(), iv)
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	wantEqual(t, "replica reads", n.replicaReads(), []transport.Addr{"p2"})
	wantEqual(t, "invalidated", r.invalidated, []transport.Addr{"p1"})
	wantEqual(t, "stats", [2]int{st.StaleRoutes, st.ReplicaPieces}, [2]int{1, 0})
}

// A handler error from a live primary is neither proof the route is stale
// nor licence to read a replica.
func TestLivePrimaryErrorKeepsRouteAndSkipsReplicas(t *testing.T) {
	n, r, iv := deadPrimary()
	n.peers["p1"].dead = false
	n.peers["p1"].segErr = datastore.ErrLockBusy
	_, _, err := planner(n, r, 3, true).Attempt(context.Background(), iv)
	if !errors.Is(err, datastore.ErrLockBusy) {
		t.Fatalf("err = %v, want ErrLockBusy", err)
	}
	wantEqual(t, "replica reads", n.replicaReads(), []transport.Addr(nil))
	wantEqual(t, "invalidated", r.invalidated, []transport.Addr(nil))
}

func TestMalformedAnswersFailTheAttempt(t *testing.T) {
	iv := keyspace.ClosedInterval(5, 295)
	cases := []struct {
		name, want string
		tamper     func(datastore.SegmentResult) datastore.SegmentResult
	}{
		{"misaligned piece", "misaligned piece", func(res datastore.SegmentResult) datastore.SegmentResult {
			res.Piece.Lb++
			return res
		}},
		{"short final piece", "cover check failed", func(res datastore.SegmentResult) datastore.SegmentResult {
			res.Done = true // claims to finish the interval at its own upper bound
			return res
		}},
	}
	for _, c := range cases {
		n := newRing(2, 100, 200, 300)
		n.peers["p1"].tamper = c.tamper
		_, _, err := planner(n, newRoutes(n), 3, false).Attempt(context.Background(), iv)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// Routes that keep naming a peer that keeps disclaiming the key are boundary
// thrash; the attempt gives up after maxScanSteps instead of spinning.
func TestScanStepsAreBounded(t *testing.T) {
	n := newRing(2, 100, 200, 300)
	n.peers["p1"].disclaims = true
	r := newRoutes(n)
	_, st, err := planner(n, r, 3, false).Attempt(context.Background(), keyspace.ClosedInterval(120, 180))
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v, want the step bound", err)
	}
	if got := len(n.calls); got == 0 || got > maxScanSteps {
		t.Errorf("%d segment scans issued, want within (0, %d]", got, maxScanSteps)
	}
	wantEqual(t, "every verdict counted", st.StaleRoutes, len(r.invalidated))
}

func TestExpiredContextFailsTheAttempt(t *testing.T) {
	n := newRing(2, 100, 200, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := planner(n, newRoutes(n), 3, false).Attempt(ctx, keyspace.ClosedInterval(5, 295))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDedupeKeepsFirstAndSorts(t *testing.T) {
	got := Dedupe([]datastore.Item{{Key: 30, Payload: "a"}, {Key: 10}, {Key: 30, Payload: "b"}})
	want := []datastore.Item{{Key: 10}, {Key: 30, Payload: "a"}}
	wantEqual(t, "deduped", got, want)
}

func TestJoinConcatenatesSortedPiecesAndDedupesOthers(t *testing.T) {
	parts := [][]datastore.Item{{{Key: 10}, {Key: 20}}, nil, {{Key: 30}}}
	got := join(parts, 3)
	wantEqual(t, "joined", got, []datastore.Item{{Key: 10}, {Key: 20}, {Key: 30}})
	if cap(got) != 3 {
		t.Fatalf("joined into a slice of capacity %d, want 3", cap(got))
	}
	overlapping := [][]datastore.Item{{{Key: 10}, {Key: 30, Payload: "a"}}, {{Key: 20}, {Key: 30, Payload: "b"}}}
	wantEqual(t, "joined overlapping", join(overlapping, 4), []datastore.Item{{Key: 10}, {Key: 20}, {Key: 30, Payload: "a"}})
}
