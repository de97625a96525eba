package core

import (
	"context"
	"fmt"
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
// the call named lose is delivered — its handler runs — and then reported
// ErrUnreachable, as when the connection dies before the reply crosses it.
type lostAckNet struct {
	transport.Transport
	lose string
	lost atomic.Int64
}

func (n *lostAckNet) Call(ctx context.Context, from, to transport.Addr, method string, payload any) (any, error) {
	resp, err := n.Transport.Call(ctx, from, to, method, payload)
	if err == nil && method == n.lose {
		n.lost.Add(1)
		return nil, fmt.Errorf("%w: reply to %s lost", transport.ErrUnreachable, method)
	}
	return resp, err
}

func (n *lostAckNet) Deregister(addr transport.Addr) { transport.Deregister(n.Transport, addr) }

// recyclePool is a free pool that lends nothing and counts the peers retired
// to it.
type recyclePool struct{ retired atomic.Int64 }

func (*recyclePool) Acquire() (transport.Addr, error) { return "", ErrNoFreePeer }
func (*recyclePool) Release(transport.Addr)           {}
func (p *recyclePool) Retire(transport.Addr)          { p.retired.Add(1) }

// A merge hand-off whose acknowledgment is lost: the successor absorbed the
// range, but the merging peer reads the call as failed and takes its range
// and items back. Two live peers now claim the merged range, the successor at
// the higher epoch. The merging peer's next replication refresh lands on that
// claim, is answered Deposed, and the merging peer steps down: one owner is
// left, the claim and Definition 4 audits are clean, and no acknowledged item
// is lost. The ring, store and replication loops never run; the test drives
// each step.
func TestMergeWhoseAckIsLostEndsWithOneOwner(t *testing.T) {
	cfg := fastConfig()
	cfg.Net.Seed = 31
	c := NewCluster(cfg)
	t.Cleanup(c.Shutdown)
	t.Cleanup(func() {
		if err := c.Net().CodecErr(); err != nil {
			t.Errorf("codec violation: %v", err)
		}
	})
	cfg = c.cfg
	pool := &recyclePool{}
	lossy := &lostAckNet{Transport: c.Net(), lose: "ds.mergeIn"} // the Data Store's merge hand-off
	assemble := func(tr transport.Transport, addr transport.Addr) *Peer {
		p, err := assemblePeer(tr, addr, cfg, c.Log(), pool)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Activate(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Stop)
		// Stopped before the join, these never start; the router's loop runs.
		p.Ring.Stop()
		p.Store.Stop()
		p.Rep.Stop()
		return p
	}
	merger := assemble(lossy, "merger")
	succ := assemble(c.Net(), "succ")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// The merger owns the whole ring and the eight items; it splits the upper
	// half, (4000, 0], off to succ. Each side keeps four items, under the
	// storage factor of five, and eight fit one peer: the merger's next
	// balance check merges it into succ.
	if err := merger.Ring.InitRing(); err != nil {
		t.Fatal(err)
	}
	want := make(map[keyspace.Key]bool)
	for k := uint64(1000); k <= 8000; k += 1000 {
		if _, err := datastore.ClientInsert(ctx, c.Net(), merger.Addr, merger.Addr, mkItem(k), 0); err != nil {
			t.Fatal(err)
		}
		want[keyspace.Key(k)] = true
	}
	top := merger.Ring.Self().Val
	merger.Ring.SetVal(4000)
	if err := merger.Ring.InsertSucc(ctx, ring.Node{Addr: succ.Addr, Val: top}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Peer{succ, merger, succ} {
		p.Ring.StabilizeOnce()
	}
	merger.Rep.RefreshOnce()
	succ.Rep.RefreshOnce()
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
	if n := pool.retired.Load(); n != 1 {
		t.Fatalf("%d peers were retired, want the merger", n)
	}

	items, _, err := succ.RangeQueryStats(ctx, keyspace.ClosedInterval(0, 9000))
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
	if v := c.Log().CheckAllQueries(); len(v) != 0 {
		t.Errorf("Definition 4 violations: %v", v)
	}
	if v := c.Log().CheckEpochAudit(); len(v) != 0 {
		t.Errorf("claim audit violations: %v", v)
	}
	if v := history.CheckLeases(c.Log().Events()); len(v) != 0 {
		t.Errorf("lease audit violations: %v", v)
	}
}

// A hand-off's handler moves state before it replies, and of the three only
// the merge is fenced against losing that reply (above); ring joined and
// rebalance are not (ROADMAP item 1). So no hand-off is declared Idempotent:
// each stays a resumable stream at every size, and the receiver's memo
// answers a commit re-sent after the connection dropped. The replica push
// survives a lost reply on its own, and is declared Idempotent.
func TestHandOffsStayResumableStreams(t *testing.T) {
	for name, want := range map[string]bool{
		"ring.joined":  false,
		"ds.rebalance": false,
		"ds.mergeIn":   false,
		"rep.push":     true,
	} {
		if got := transport.IsIdempotent(name); got != want {
			t.Errorf("%s declared Idempotent: %v, want %v", name, got, want)
		}
	}
}
