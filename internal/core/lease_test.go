package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gossip"
	"repro/internal/keyspace"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// The lease-expiry adoption path, end to end: a wedged owner — alive on the
// ring (pings answered, gossip flowing) but unable to land a replication
// push — stops renewing its range-claim lease, and its ring successor adopts
// the range at a strictly higher epoch within 2×LeaseDuration, without any
// failure verdict from the ring. The adoption happens exactly once, the
// wedged owner is deposed through the gossip advert it can still receive,
// every item stays queryable, and the whole run passes both the Definition 4
// audit and the lease-exclusivity audit.
func TestLeaseExpiryAdoptsWedgedOwnersRange(t *testing.T) {
	const leaseDuration = time.Second

	var armed atomic.Bool
	var victimAddr atomic.Value // transport.Addr
	victimAddr.Store(transport.Addr(""))

	cfg := fastConfig()
	cfg.Store.LeaseDuration = leaseDuration
	cfg.Gossip = gossip.Config{
		Interval:    20 * time.Millisecond,
		Fanout:      2,
		CallTimeout: 40 * time.Millisecond,
		Seed:        7,
	}
	// The wedge: the victim's replication pushes vanish in the network while
	// every other method of its keeps working. No push lands, so no refresh
	// is acknowledged, so the lease is never renewed — the failure mode the
	// ring's detector cannot see.
	cfg.Net.Fault = func(m simnet.Msg) simnet.Verdict {
		if !armed.Load() || m.Method != "rep.push" {
			return simnet.Deliver
		}
		if va, _ := victimAddr.Load().(transport.Addr); va != "" && m.From == va {
			return simnet.Lose
		}
		return simnet.Deliver
	}
	c := bootCluster(t, cfg, 10)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for i := 1; i <= 40; i++ {
		if err := c.InsertItem(ctx, mkItem(uint64(i)*100)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, "splits", func() bool { return len(c.LivePeers()) >= 4 })
	waitFor(t, 20*time.Second, "maintenance quiescence", func() bool {
		before := c.Stats()
		time.Sleep(150 * time.Millisecond)
		return c.Stats() == before
	})

	// Pick a victim whose first ring successor is serving (that successor
	// holds the victim's replicas and adjacency evidence, so it is the
	// adopter) with split headroom, and wait until the victim's current
	// incarnation has advertised itself there.
	var victim, succPeer *Peer
	waitFor(t, 10*time.Second, "a victim with a serving successor", func() bool {
		for _, p := range c.LivePeers() {
			succs := p.Ring.Successors()
			if len(succs) == 0 || p.Store.ItemCount() >= 2*cfg.Store.StorageFactor {
				continue
			}
			for _, q := range c.LivePeers() {
				if q.Addr == succs[0].Addr {
					victim, succPeer = p, q
					return true
				}
			}
		}
		return false
	})
	vrng, vepoch, ok := victim.Store.RangeEpoch()
	if !ok || vepoch == 0 {
		t.Fatalf("victim %s range/epoch = %v/%d", victim.Addr, vrng, vepoch)
	}
	waitFor(t, 10*time.Second, "victim's advert at the successor", func() bool {
		return succPeer.Rep.MaxAdvertisedEpoch(vrng) >= vepoch
	})

	victimAddr.Store(victim.Addr)
	armed.Store(true)
	wedged := time.Now()

	// The acceptance bound: the orphaned range must be adopted within
	// 2×LeaseDuration of the wedge.
	waitFor(t, 2*leaseDuration, "lease-expiry adoption at the successor", func() bool {
		return succPeer.Store.LeaseAdoptions.Load() >= 1
	})
	if took := time.Since(wedged); took > 2*leaseDuration {
		t.Fatalf("adoption took %v, want within %v", took, 2*leaseDuration)
	}
	rng, epoch, ok := succPeer.Store.RangeEpoch()
	if !ok || epoch <= vepoch || !rng.Contains(vrng.Hi) {
		t.Fatalf("adopter range/epoch = %v/%d, want > %d covering %v", rng, epoch, vepoch, vrng)
	}

	// Exactly once: no other peer adopted, and the adopter did so once.
	var adoptions uint64
	for _, p := range c.Peers() {
		adoptions += p.Store.LeaseAdoptions.Load()
	}
	if adoptions != 1 {
		t.Fatalf("adoptions across the cluster = %d, want exactly 1", adoptions)
	}

	// The wedged owner still cannot land a push (the reply-deposition path
	// is closed to it), but it keeps gossiping: the adopter's higher-epoch
	// advert reaches it through the directory and it steps down.
	waitFor(t, 10*time.Second, "wedged owner deposed via gossip", func() bool {
		r, _, has := victim.Store.RangeEpoch()
		return !has || !r.Overlaps(vrng)
	})

	// Heal the wedge; every item must be queryable from the adopted range.
	armed.Store(false)
	waitFor(t, 15*time.Second, "all items queryable after adoption", func() bool {
		items, err := c.RangeQuery(ctx, keyspace.ClosedInterval(0, 41*100))
		return err == nil && len(items) == 40
	})

	if vs := c.Log().CheckAllQueries(); len(vs) != 0 {
		t.Fatalf("Definition 4 violations: %v", vs)
	}
	if vs := c.Log().CheckLeases(); len(vs) != 0 {
		t.Fatalf("lease-exclusivity violations: %v", vs)
	}
}
