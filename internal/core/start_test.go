package core

import (
	"context"
	"maps"
	"sync"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/ring"
	"repro/internal/transport"
)

// sentNet is one peer's view of the network that counts, by method, every
// call and message the peer sends. Like lostAckNet it hides every optional
// transport interface but Deregistrar, so a bulk call is a plain Call.
type sentNet struct {
	transport.Transport
	mu   sync.Mutex
	sent map[string]int
}

func (n *sentNet) record(method string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sent[method]++
}

func (n *sentNet) Call(ctx context.Context, from, to transport.Addr, method string, payload any) (any, error) {
	n.record(method)
	return n.Transport.Call(ctx, from, to, method, payload)
}

func (n *sentNet) Send(from, to transport.Addr, method string, payload any) {
	n.record(method)
	n.Transport.Send(from, to, method, payload)
}

func (n *sentNet) Deregister(addr transport.Addr) { transport.Deregister(n.Transport, addr) }

// counts returns a copy of the per-method send counts.
func (n *sentNet) counts() map[string]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return maps.Clone(n.sent)
}

// A peer's loops start at its join and nowhere else: an assembled, activated
// FREE peer sends nothing of its own, and once a ring member inserts it, its
// stabilization, ping, replica refresh and router refresh all run. The
// storage factor keeps one item on each side, so no balance decision fires.
func TestPeerLoopsStartAtJoin(t *testing.T) {
	cfg := fastConfig()
	cfg.Store.StorageFactor = 1
	c := NewCluster(cfg)
	t.Cleanup(c.Shutdown)
	t.Cleanup(func() {
		if err := c.Net().CodecErr(); err != nil {
			t.Errorf("codec violation: %v", err)
		}
	})
	first, err := c.AddFirstPeer()
	if err != nil {
		t.Fatal(err)
	}
	net := &sentNet{Transport: c.Net(), sent: make(map[string]int)}
	p, err := assemblePeer(net, "joiner", c.cfg, c.Log(), &recyclePool{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Activate(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, k := range []uint64{100, 200} {
		if _, err := datastore.ClientInsert(ctx, c.Net(), first.Addr, first.Addr, mkItem(k), 0); err != nil {
			t.Fatal(err)
		}
	}
	// A few periods of the slowest loop, the router's.
	time.Sleep(3 * cfg.Router.RefreshPeriod)
	if sent := net.counts(); len(sent) != 0 {
		t.Fatalf("the FREE peer sent %v before joining", sent)
	}

	// The first peer hands (150, 0] and item 200 to the joiner.
	top := first.Ring.Self().Val
	first.Ring.SetVal(150)
	if err := first.Ring.InsertSucc(ctx, ring.Node{Addr: p.Addr, Val: top}); err != nil {
		t.Fatal(err)
	}
	want := []string{"ring.stabilize", "ring.ping", "rep.push", "rt.levelAt"}
	waitFor(t, 5*time.Second, "the joined peer's loops to run", func() bool {
		sent := net.counts()
		for _, m := range want {
			if sent[m] == 0 {
				return false
			}
		}
		return true
	})
	for _, q := range []*Peer{first, p} {
		if n := q.Store.Splits.Load() + q.Store.Merges.Load() + q.Store.Redistributes.Load(); n != 0 {
			t.Errorf("%s made %d balance moves; want none", q.Addr, n)
		}
	}
	if got := p.Store.ItemCount(); got != 1 {
		t.Errorf("joiner holds %d items, want 1", got)
	}
}
