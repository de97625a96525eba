package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/history"
	"repro/internal/keyspace"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// The deterministic regression for the old TestSoakMixedWorkload flake: the
// ring's failure detector false-positives on a live peer (injected via
// a simnet Lose verdict aimed at ring.ping), its successor revives the range
// while the original owner keeps serving — the dual-claim window — and a
// concurrent insert straddles the overlap. With ownership epochs the revived
// claim fences the deposed incarnation: mutations stamped with the deposed
// epoch fail with ErrStaleEpoch, the deposed peer resigns within one
// replication refresh (its own push meets the higher-epoch claim), and the
// whole run's Definition 4 audit and epoch-claim audit come back clean.
func TestEpochFencesFalsePositiveSuspicion(t *testing.T) {
	var armed atomic.Bool
	var victimAddr atomic.Value // transport.Addr
	victimAddr.Store(transport.Addr(""))

	cfg := fastConfig()
	cfg.Replication.Factor = 3
	cfg.Net.Fault = func(m simnet.Msg) simnet.Verdict {
		if !armed.Load() || m.Method != "ring.ping" {
			return simnet.Deliver
		}
		if va, _ := victimAddr.Load().(transport.Addr); va != "" && m.To == va {
			return simnet.Lose
		}
		return simnet.Deliver
	}
	c := bootCluster(t, cfg, 12)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var keys []keyspace.Key
	for i := 1; i <= 40; i++ {
		k := keyspace.Key(uint64(i) * 100)
		if err := c.InsertItem(ctx, datastore.Item{Key: k, Payload: "stable"}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	waitFor(t, 15*time.Second, "splits", func() bool { return len(c.LivePeers()) >= 4 })
	// Let storage balancing settle before staging the scenario, so the only
	// epoch movement on the victim's lineage during the window is the
	// revival itself (keeps the claim audit below deterministic).
	waitFor(t, 20*time.Second, "maintenance quiescence", func() bool {
		before := c.Stats()
		time.Sleep(150 * time.Millisecond)
		return c.Stats() == before
	})

	// Pick a victim whose first ring successor is also serving, and find the
	// successor's peer stack: that successor is who will falsely revive the
	// victim's range. The victim must have headroom below the split
	// threshold so the mid-window insert cannot trigger a split at it.
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
	// Wait until the victim's current incarnation has advertised itself (and
	// its items) to the successor: the revival epoch builds on this advert,
	// and the revived range rebuilds from these replicas.
	waitFor(t, 10*time.Second, "victim's advert at the successor", func() bool {
		return succPeer.Rep.MaxAdvertisedEpoch(vrng) >= vepoch
	})

	// Inject the false positive: every ring.ping aimed at the victim now
	// fails while the victim's datastore keeps serving. Mid-insert, exactly
	// the straddle of the old flake: a key owned by the victim is inserted
	// while the suspicion is live.
	victimAddr.Store(victim.Addr)
	armed.Store(true)
	midKey := vrng.Hi - 1
	if !vrng.Contains(midKey) {
		midKey = vrng.Hi
	}
	insertDone := make(chan error, 1)
	go func() {
		insertDone <- c.InsertItem(ctx, datastore.Item{Key: midKey, Payload: "mid"})
	}()

	// The successor must revive the victim's range at a strictly higher
	// epoch: the dual-claim window is now open (the victim still serves).
	waitFor(t, 15*time.Second, "false-positive revival at the successor", func() bool {
		rng, epoch, ok := succPeer.Store.RangeEpoch()
		return ok && epoch > vepoch && rng.Contains(vrng.Hi)
	})
	if err := <-insertDone; err != nil {
		t.Fatalf("mid-suspicion insert: %v", err)
	}

	// Fencing: a mutation addressed to the deposed incarnation's epoch is
	// rejected with the typed error — on whichever side currently claims the
	// key, the deposed epoch is provably not current.
	_, err := datastore.ClientInsert(ctx, succPeer.tr, succPeer.Addr, succPeer.Addr, datastore.Item{Key: vrng.Hi, Payload: "x"}, vepoch)
	if !errors.Is(err, datastore.ErrStaleEpoch) {
		t.Fatalf("deposed-epoch insert = %v, want ErrStaleEpoch", err)
	}

	// The deposed incarnation resigns on its own: its next replication push
	// meets the higher-epoch claim and answers Deposed. This works while the
	// suspicion is still armed — pushes flow victim→successor.
	waitFor(t, 15*time.Second, "victim steps down", func() bool {
		return victim.Store.StepDowns.Load() >= 1
	})
	armed.Store(false)
	if _, serving := victim.Store.Range(); serving {
		t.Fatal("deposed victim still serves a range")
	}

	// Convergence: re-assert the mid key (it may have died with the deposed
	// incarnation, like any unreplicated write on a crashed peer), then the
	// full range must be intact and every audit clean.
	if err := c.InsertItem(ctx, datastore.Item{Key: midKey, Payload: "mid"}); err != nil {
		t.Fatalf("post-convergence insert: %v", err)
	}
	want := map[keyspace.Key]bool{midKey: true}
	for _, k := range keys {
		want[k] = true
	}
	var items []datastore.Item
	waitFor(t, 15*time.Second, "full query returns every stable key", func() bool {
		var err error
		items, err = c.RangeQuery(ctx, keyspace.ClosedInterval(0, keyspace.MaxKey))
		if err != nil {
			return false
		}
		got := make(map[keyspace.Key]bool, len(items))
		for _, it := range items {
			got[it.Key] = true
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	})

	if st := c.Stats(); st.StepDowns == 0 {
		t.Errorf("cluster stats StepDowns = 0, want >= 1")
	}
	if v := c.Log().CheckAllQueries(); len(v) != 0 {
		for _, viol := range v {
			t.Errorf("Definition 4 violation: %v", viol)
		}
	}
	// The claim history must order every overlapping incarnation: in
	// particular the revived claim strictly superseded the deposed one.
	// (The add-attribution half of the epoch audit is deliberately not
	// asserted here: a mutation that races into the dual-claim window is
	// exactly what it exists to flag, and whether the mid-insert lands
	// before or after the revival claim is timing-dependent.)
	if v := history.CheckClaims(c.Log().Events()); len(v) != 0 {
		for _, viol := range v {
			t.Errorf("claim audit: %v", viol)
		}
	}
	if err := c.CheckRing(); err != nil {
		t.Errorf("ring consistency after deposition: %v", err)
	}
}

// Mutations addressed to a deposed epoch fail with the typed ErrStaleEpoch
// across the real TCP transport too: the sentinel is registered as a wire
// error, so errors.Is recognizes the rejection after the text-only hop.
func TestStaleEpochTypedOverTCP(t *testing.T) {
	cfg := tcpConfig()
	boot := startStandalone(t, cfg)
	if err := boot.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	p := boot.CurrentPeer()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	if err := p.InsertItem(ctx, mkItem(1000)); err != nil {
		t.Fatal(err)
	}
	epoch := p.Store.Epoch()
	if epoch == 0 {
		t.Fatal("bootstrap peer has epoch 0")
	}

	_, err := datastore.ClientInsert(ctx, p.tr, p.Addr, p.Addr, mkItem(2000), epoch+3)
	if !errors.Is(err, datastore.ErrStaleEpoch) {
		t.Fatalf("stale insert over TCP = %v, want ErrStaleEpoch", err)
	}
	var remote *tcp.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("stale insert error %T did not cross the wire as a RemoteError", err)
	}
	if _, _, err := datastore.ClientDelete(ctx, p.tr, p.Addr, p.Addr, 1000, epoch+3); !errors.Is(err, datastore.ErrStaleEpoch) {
		t.Fatalf("stale delete over TCP = %v, want ErrStaleEpoch", err)
	}
	if _, err := datastore.ClientInsert(ctx, p.tr, p.Addr, p.Addr, mkItem(2000), epoch); err != nil {
		t.Fatalf("current-epoch insert over TCP: %v", err)
	}
}

// A cached route whose epoch went stale costs exactly one probe and a
// re-resolve — never a wrong answer: the fenced segment scan answers
// StaleEpoch, the poisoned entry is invalidated, and the query completes
// correctly against the freshly learned incarnation.
func TestStaleEpochHintCostsOneProbe(t *testing.T) {
	c := bootCluster(t, fastConfig(), 8)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := 1; i <= 30; i++ {
		if err := c.InsertItem(ctx, mkItem(uint64(i)*100)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, "splits", func() bool { return len(c.LivePeers()) >= 3 })

	// Pick a query origin and a target serving a range the query starts in.
	live := c.LivePeers()
	var origin, target *Peer
	for _, p := range live {
		if rng, _ := p.Store.Range(); !rng.IsFull() && rng.Contains(rng.Hi) && p != live[0] {
			origin, target = live[0], p
			break
		}
	}
	if origin == nil || origin == target {
		t.Skip("layout did not produce a distinct origin/target pair")
	}
	rng, epoch, _ := target.Store.RangeEpoch()
	iv := keyspace.ClosedInterval(rng.Hi, rng.Hi) // point query inside the target's range

	// Poison the origin's route cache: right owner, wrong (future) epoch —
	// the shape a route goes stale in after a hand-off or revival.
	origin.Router.Learn(rng, target.Addr, epoch+10, nil)

	items, stats, err := origin.RangeQueryStats(ctx, iv)
	if err != nil {
		t.Fatalf("query with poisoned epoch: %v", err)
	}
	if stats.StaleEpochHints < 1 {
		t.Errorf("StaleEpochHints = %d, want >= 1 (the poisoned entry must cost a probe)", stats.StaleEpochHints)
	}
	wantItems := 0
	if iv.Contains(rng.Hi) {
		for i := 1; i <= 30; i++ {
			if keyspace.Key(uint64(i)*100) == rng.Hi {
				wantItems = 1
			}
		}
	}
	if len(items) != wantItems {
		t.Errorf("poisoned-route query returned %d items, want %d", len(items), wantItems)
	}

	// The poisoned entry was invalidated and replaced by the real epoch: a
	// follow-up query pays no stale-epoch probe.
	_, stats, err = origin.RangeQueryStats(ctx, iv)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StaleEpochHints != 0 {
		t.Errorf("follow-up StaleEpochHints = %d, want 0 (cache healed)", stats.StaleEpochHints)
	}
	if ent, ok := origin.Router.CachedEntry(rng.Hi); ok && ent.Addr == target.Addr && ent.Epoch != epoch {
		t.Errorf("healed cache entry epoch = %d, want %d", ent.Epoch, epoch)
	}
	if v := c.Log().CheckAllQueries(); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
}
