package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/history"
	"repro/internal/keyspace"
	"repro/internal/ring"
	"repro/internal/transport"
)

// lostAckNet is one peer's view of the network: it hides every optional
// transport interface but Deregistrar, so a bulk call is a plain Call, and
// the first call named lose is delivered — its handler runs — and then
// reported ErrUnreachable, as when the connection dies before the reply
// crosses it. Later calls of lose get their replies.
type lostAckNet struct {
	transport.Transport
	lose  string
	asked atomic.Int64 // calls of lose
	lost  atomic.Int64 // replies of lose reported lost
}

func (n *lostAckNet) Call(ctx context.Context, from, to transport.Addr, method string, payload any) (any, error) {
	if method == n.lose {
		n.asked.Add(1)
	}
	resp, err := n.Transport.Call(ctx, from, to, method, payload)
	if err == nil && method == n.lose && n.lost.CompareAndSwap(0, 1) {
		return nil, fmt.Errorf("%w: reply to %s lost", transport.ErrUnreachable, method)
	}
	return resp, err
}

func (n *lostAckNet) Deregister(addr transport.Addr) { transport.Deregister(n.Transport, addr) }

// heldPushNet is one peer's view of the network that holds its first replica
// push until release is closed, and closes held when it starts holding it.
// Like lostAckNet it hides every optional transport interface but
// Deregistrar, so the push is a plain Call.
type heldPushNet struct {
	transport.Transport
	once    atomic.Bool
	held    chan struct{}
	release chan struct{}
}

func (n *heldPushNet) Call(ctx context.Context, from, to transport.Addr, method string, payload any) (any, error) {
	if method == "rep.push" && n.once.CompareAndSwap(false, true) {
		close(n.held)
		<-n.release
	}
	return n.Transport.Call(ctx, from, to, method, payload)
}

func (n *heldPushNet) Deregister(addr transport.Addr) { transport.Deregister(n.Transport, addr) }

// recyclePool is a free pool that lends at most one peer, lend, and counts
// the peers retired to it.
type recyclePool struct {
	mu      sync.Mutex
	lend    transport.Addr
	retired atomic.Int64
}

func (p *recyclePool) Acquire() (transport.Addr, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	addr := p.lend
	p.lend = ""
	if addr == "" {
		return "", ErrNoFreePeer
	}
	return addr, nil
}

func (*recyclePool) Release(transport.Addr)  {}
func (p *recyclePool) Retire(transport.Addr) { p.retired.Add(1) }

// handOffCluster is a cluster whose peers a test assembles by hand, each on
// its own view of the network. A peer's ring, store and replication loops
// never run (its router's does): the test drives each step.
type handOffCluster struct {
	*Cluster
	t    *testing.T
	pool *recyclePool
}

func newHandOffCluster(t *testing.T, cfg Config) *handOffCluster {
	c := NewCluster(cfg)
	t.Cleanup(c.Shutdown)
	t.Cleanup(func() {
		if err := c.Net().CodecErr(); err != nil {
			t.Errorf("codec violation: %v", err)
		}
	})
	return &handOffCluster{Cluster: c, t: t, pool: &recyclePool{}}
}

// assemble builds and activates the peer at addr on tr.
func (h *handOffCluster) assemble(tr transport.Transport, addr transport.Addr) *Peer {
	p, err := assemblePeer(tr, addr, h.cfg, h.Log(), h.pool)
	if err != nil {
		h.t.Fatal(err)
	}
	if err := p.Activate(); err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(p.Stop)
	// Stopped before the join, these never start; the router's loop runs.
	p.Ring.Stop()
	p.Store.Stop()
	p.Rep.Stop()
	return p
}

// boot makes first own the whole ring and inserts one item per key; it
// returns the keys inserted.
func (h *handOffCluster) boot(ctx context.Context, first *Peer, keys ...uint64) map[keyspace.Key]bool {
	if err := first.Ring.InitRing(); err != nil {
		h.t.Fatal(err)
	}
	want := make(map[keyspace.Key]bool)
	for _, k := range keys {
		if _, err := datastore.ClientInsert(ctx, h.Net(), first.Addr, first.Addr, mkItem(k), 0); err != nil {
			h.t.Fatal(err)
		}
		want[keyspace.Key(k)] = true
	}
	return want
}

// splitAt hands the part of first's range above at to second, which becomes
// its successor, and brings both rings and replicas up to date.
func (h *handOffCluster) splitAt(ctx context.Context, first, second *Peer, at keyspace.Key) {
	top := first.Ring.Self().Val
	first.Ring.SetVal(at)
	if err := first.Ring.InsertSucc(ctx, ring.Node{Addr: second.Addr, Val: top}); err != nil {
		h.t.Fatal(err)
	}
	h.settle(first, second)
}

// settle runs a stabilization round at each peer (the second's twice, so
// both learn each other) and a replication refresh at each.
func (h *handOffCluster) settle(first, second *Peer) {
	for _, p := range []*Peer{second, first, second} {
		p.Ring.StabilizeOnce()
	}
	first.Rep.RefreshOnce()
	second.Rep.RefreshOnce()
}

// checkServed requires a query from p to return exactly the keys of want,
// and the Definition 4, claim and lease audits to be clean.
func (h *handOffCluster) checkServed(ctx context.Context, p *Peer, want map[keyspace.Key]bool) {
	t := h.t
	t.Helper()
	items, _, err := p.RangeQueryStats(ctx, keyspace.ClosedInterval(0, 20000))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[keyspace.Key]bool)
	for _, it := range items {
		got[it.Key] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("acknowledged item %d lost", k)
		}
	}
	if len(items) != len(want) {
		t.Errorf("query returned %d items, want %d", len(items), len(want))
	}
	if v := h.Log().CheckAllQueries(); len(v) != 0 {
		t.Errorf("Definition 4 violations: %v", v)
	}
	if v := h.Log().CheckEpochAudit(); len(v) != 0 {
		t.Errorf("claim audit violations: %v", v)
	}
	if v := history.CheckLeases(h.Log().Events()); len(v) != 0 {
		t.Errorf("lease audit violations: %v", v)
	}
}

func keys(lo, hi uint64) []uint64 {
	var out []uint64
	for k := lo; k <= hi; k += 1000 {
		out = append(out, k)
	}
	return out
}

// A merge hand-off whose acknowledgment is lost: the successor absorbed the
// range, but the merging peer reads the call as failed and takes its range
// and items back. Two live peers now claim the merged range, the successor at
// the higher epoch. The merging peer's next replication refresh lands on that
// claim, is answered Deposed, and the merging peer steps down: one owner is
// left, the claim and Definition 4 audits are clean, and no acknowledged item
// is lost.
func TestMergeWhoseAckIsLostEndsWithOneOwner(t *testing.T) {
	cfg := fastConfig()
	cfg.Net.Seed = 31
	h := newHandOffCluster(t, cfg)
	lossy := &lostAckNet{Transport: h.Net(), lose: "ds.mergeIn"} // the Data Store's merge hand-off
	merger := h.assemble(lossy, "merger")
	succ := h.assemble(h.Net(), "succ")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// The merger owns the whole ring and the eight items; it splits the upper
	// half, (4000, 0], off to succ. Each side keeps four items, under the
	// storage factor of five, and eight fit one peer: the merger's next
	// balance check merges it into succ.
	want := h.boot(ctx, merger, keys(1000, 8000)...)
	h.splitAt(ctx, merger, succ, 4000)
	merged, _ := merger.Store.Range()

	merger.Store.CheckBalance()
	if n := lossy.lost.Load(); n != 1 {
		t.Fatalf("the balance check lost %d merge acknowledgments, want 1", n)
	}
	if rng, ok := merger.Store.Range(); !ok || rng != merged {
		t.Fatalf("after the lost ack the merger serves %v (%v), want its range %v back", rng, ok, merged)
	}
	if rng, ok := succ.Store.Range(); !ok || !rng.IsFull() {
		t.Fatalf("succ serves %v (%v) after absorbing the merge, want the whole ring", rng, ok)
	}

	// Replication refreshes: the merger's push meets succ's higher claim.
	merger.Rep.RefreshOnce()
	succ.Rep.RefreshOnce()

	var owners []transport.Addr
	for _, p := range []*Peer{merger, succ} {
		if rng, ok := p.Store.Range(); ok && rng.Overlaps(merged) {
			owners = append(owners, p.Addr)
		}
	}
	if len(owners) != 1 || owners[0] != succ.Addr {
		t.Fatalf("peers covering the merged range %v: %v, want only %s", merged, owners, succ.Addr)
	}
	if n := merger.Store.StepDowns.Load(); n != 1 {
		t.Fatalf("merger stepped down %d times, want 1", n)
	}
	if n := h.pool.retired.Load(); n != 1 {
		t.Fatalf("%d peers were retired, want the merger", n)
	}
	h.checkServed(ctx, succ, want)
}

// A split whose joined reply is lost: the new peer installed the carved half
// and answered, but the splitter reads the call as failed. It asks again with
// the same message, the new peer answers the repeat without installing it a
// second time, and the split completes with the new peer as the splitter's
// successor.
func TestSplitWhoseJoinedReplyIsLostCompletes(t *testing.T) {
	cfg := fastConfig()
	cfg.Net.Seed = 32
	h := newHandOffCluster(t, cfg)
	lossy := &lostAckNet{Transport: h.Net(), lose: "ring.joined"}
	splitter := h.assemble(lossy, "splitter")
	joiner := h.assemble(h.Net(), "joiner")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Eleven items, over twice the storage factor of five: the splitter's
	// balance check splits the upper five off to the one free peer.
	want := h.boot(ctx, splitter, keys(1000, 11000)...)
	h.pool.lend = joiner.Addr
	splitter.Store.CheckBalance()
	if n := splitter.Store.Splits.Load(); n != 1 {
		t.Fatalf("splits completed: %d, want 1", n)
	}
	if succs := splitter.Ring.Successors(); len(succs) == 0 || succs[0].Addr != joiner.Addr {
		t.Fatalf("splitter's successors %v, want %s first", succs, joiner.Addr)
	}
	if rng, ok := joiner.Store.Range(); !ok || joiner.Store.ItemCount() != 5 {
		t.Fatalf("joiner serves %v (%v) with %d items, want the upper five", rng, ok, joiner.Store.ItemCount())
	}
	if lost, asked := lossy.lost.Load(), lossy.asked.Load(); lost != 1 || asked != 2 {
		t.Fatalf("the splitter sent joined %d times and lost %d replies, want 2 and 1", asked, lost)
	}
	h.settle(splitter, joiner)
	h.checkServed(ctx, splitter, want)
}

// A redistribution whose reply is lost: the successor carved its lowest items
// and answered, but the underflowing peer reads the call as failed. It asks
// again with the same request, naming the same incarnation, and the successor
// answers with the carve it already made: the handler runs twice, the carve
// happens once, and the carved items reach the requester.
func TestRedistributeWhoseReplyIsLostCarvesOnce(t *testing.T) {
	cfg := fastConfig()
	cfg.Net.Seed = 33
	h := newHandOffCluster(t, cfg)
	lossy := &lostAckNet{Transport: h.Net(), lose: "ds.rebalance"}
	low := h.assemble(lossy, "low")
	high := h.assemble(h.Net(), "high")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// low keeps three items, under the storage factor of five, and high ten;
	// thirteen do not fit one peer, so high gives low its lowest three.
	want := h.boot(ctx, low, keys(1000, 13000)...)
	h.splitAt(ctx, low, high, 3000)

	low.Store.CheckBalance()
	if rng, ok := low.Store.Range(); !ok || rng.Hi != 6000 || low.Store.ItemCount() != 6 {
		t.Fatalf("low serves %v (%v) with %d items, want up to 6000 with six", rng, ok, low.Store.ItemCount())
	}
	if rng, ok := high.Store.Range(); !ok || rng.Lo != 6000 || high.Store.ItemCount() != 7 {
		t.Fatalf("high serves %v (%v) with %d items, want from 6000 with seven", rng, ok, high.Store.ItemCount())
	}
	if n := high.Store.Redistributes.Load(); n != 1 {
		t.Fatalf("high carved %d times, want once", n)
	}
	if lost, asked := lossy.lost.Load(), lossy.asked.Load(); lost != 1 || asked != 2 {
		t.Fatalf("low asked %d times and lost %d replies, want 2 and 1", asked, lost)
	}
	h.settle(low, high)
	h.checkServed(ctx, low, want)
}

// A deposition names the incarnation it deposes. high's replica push
// snapshots its claim, and is held on the way while a redistribution moves
// the boundary: high carves its lowest items off to low, both at new epochs.
// The push then reaches low with high's superseded claim, which overlaps
// low's new one at a lower epoch, and low answers Deposed. The verdict is on
// the incarnation the push named, which high no longer is: high keeps its
// current claim and its items.
func TestStalePushDeposesOnlyItsOwnIncarnation(t *testing.T) {
	cfg := fastConfig()
	cfg.Net.Seed = 34
	cfg.Replication.CallTimeout = 10 * time.Second // the push outlives the redistribution it waits on
	h := newHandOffCluster(t, cfg)
	held := &heldPushNet{Transport: h.Net(), held: make(chan struct{}), release: make(chan struct{})}
	low := h.assemble(h.Net(), "low")
	high := h.assemble(held, "high")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Split as splitAt does, but with no refresh: high's first push is the
	// one held.
	want := h.boot(ctx, low, keys(1000, 13000)...)
	top := low.Ring.Self().Val
	low.Ring.SetVal(3000)
	if err := low.Ring.InsertSucc(ctx, ring.Node{Addr: high.Addr, Val: top}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Peer{high, low, high} {
		p.Ring.StabilizeOnce()
	}
	stale, staleEpoch, _ := high.Store.RangeEpoch()

	refreshed := make(chan struct{})
	go func() {
		defer close(refreshed)
		high.Rep.RefreshOnce()
	}()
	<-held.held
	low.Store.CheckBalance()
	if n := high.Store.Redistributes.Load(); n != 1 {
		t.Fatalf("high carved %d times, want once", n)
	}
	current, epoch, _ := high.Store.RangeEpoch()
	if current == stale || epoch <= staleEpoch {
		t.Fatalf("the redistribution left high at %v@%d, want a new claim above %v@%d", current, epoch, stale, staleEpoch)
	}
	close(held.release)
	<-refreshed

	if n := high.Store.StepDowns.Load(); n != 0 {
		t.Fatalf("high stepped down %d times on a verdict against %v@%d", n, stale, staleEpoch)
	}
	if rng, e, ok := high.Store.RangeEpoch(); !ok || rng != current || e != epoch {
		t.Fatalf("high serves %v@%d (%v), want its current claim %v@%d", rng, e, ok, current, epoch)
	}
	h.settle(low, high)
	h.checkServed(ctx, low, want)
}
