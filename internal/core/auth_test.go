package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/history"
	"repro/internal/keyspace"
	"repro/internal/transport"
)

// Config.Identities gives every assembled peer an identity and a keyring
// that its replica pushes sign and verify with. A cluster grown by splits
// must accept every genuine push, and a push an owner signs under some
// other key must be refused by the holders that pinned its genuine key,
// without deposing the owner.
func TestIdentitiesSignAndVerifyReplicaPushes(t *testing.T) {
	cfg := fastConfig()
	cfg.Identities = func(transport.Addr) (*auth.Identity, error) { return auth.NewIdentity() }
	c := bootCluster(t, cfg, 10)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const n = 30
	for i := 1; i <= n; i++ {
		if err := c.InsertItem(ctx, mkItem(uint64(i)*1000)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Every key is held by Factor peers besides its owner: the signed pushes
	// verified at every holder.
	waitFor(t, 10*time.Second, "every key replicated at Factor holders", func() bool {
		if len(c.LivePeers()) < cfg.Replication.Factor+1 {
			return false
		}
		holders := make(map[keyspace.Key]int)
		for _, p := range c.LivePeers() {
			for _, it := range p.Rep.HeldReplicas() {
				holders[it.Key]++
			}
		}
		for i := 1; i <= n; i++ {
			if holders[keyspace.Key(i*1000)] < cfg.Replication.Factor {
				return false
			}
		}
		return true
	})
	for _, p := range c.Peers() {
		if got := p.Rep.SigRejects.Load(); got != 0 {
			t.Fatalf("%s refused %d genuine pushes", p.Addr, got)
		}
	}

	// The owner: a live peer with a non-wrapping range and k successors.
	var owner *Peer
	for _, p := range c.LivePeers() {
		rng, _, has := p.Store.RangeEpoch()
		if has && rng.Lo < rng.Hi && len(p.Ring.Successors()) >= cfg.Replication.Factor {
			owner = p
			break
		}
	}
	if owner == nil {
		t.Fatal("no live peer with a non-wrapping range")
	}
	forger, err := auth.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	// An owner signs once per incarnation, so the forged key takes effect at
	// the owner's next (range, epoch): stop its refresh loop, swap the key,
	// and split its range by loading the bottom of it.
	owner.Rep.Stop()
	owner.Rep.Identity = forger
	rng0, epoch0, _ := owner.Store.RangeEpoch()
	for i := uint64(1); i <= 12; i++ {
		if err := c.InsertItem(ctx, mkItem(uint64(rng0.Lo)+i)); err != nil {
			t.Fatalf("insert into the owner's range: %v", err)
		}
	}
	waitFor(t, 10*time.Second, "the owner's split", func() bool {
		rng, epoch, has := owner.Store.RangeEpoch()
		return has && epoch > epoch0 && rng != rng0 && owner.Store.ItemCount() <= 2*cfg.Store.StorageFactor
	})

	// Holders that pinned the owner's genuine key refuse the push. The
	// split's new peer is among the successors too; it has never seen the
	// owner's key and pins the forger's on first sight.
	rejects := func() (sum uint64) {
		for _, p := range c.Peers() {
			sum += p.Rep.SigRejects.Load()
		}
		return sum
	}
	before := rejects()
	_, epoch1, _ := owner.Store.RangeEpoch()
	owner.Rep.RefreshOnce()
	if after := rejects(); after <= before {
		t.Fatalf("holders' SigRejects %d -> %d after a push signed under a forged key", before, after)
	}
	if got := owner.Store.Epoch(); got != epoch1 {
		t.Fatalf("owner epoch %d -> %d after its pushes were refused", epoch1, got)
	}
	if got := owner.Store.StepDowns.Load(); got != 0 {
		t.Fatalf("owner StepDowns = %d, want 0", got)
	}
	if v := history.CheckClaims(c.Log().Events()); len(v) != 0 {
		t.Fatalf("claim audit: %v", v)
	}
}
