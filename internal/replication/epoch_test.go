package replication

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/ring"
)

// A replication push advertises the origin's ownership epoch, and the
// receiver remembers the latest advert per origin: the revival epoch source.
func TestPushRecordsAdvertisedEpochs(t *testing.T) {
	h := newRepHarness(t)
	mgrs, stores, rings := h.bootRing(2, Config{Factor: 1, DisableAutoRefresh: true})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	waitRep(t, 5*time.Second, "successor", func() bool { return len(rings[0].Successors()) >= 1 })
	if err := insertAt(ctx, h, stores[0], datastore.Item{Key: 50}); err != nil {
		t.Fatal(err)
	}
	mgrs[0].RefreshOnce()

	rng, epoch, ok := stores[0].RangeEpoch()
	if !ok || epoch == 0 {
		t.Fatalf("origin range/epoch = %v/%d", rng, epoch)
	}
	if got := mgrs[1].MaxAdvertisedEpoch(rng); got != epoch {
		t.Fatalf("MaxAdvertisedEpoch = %d, want the origin's advertised %d", got, epoch)
	}
	if got := mgrs[1].MaxAdvertisedEpoch(keyspace.NewRange(rng.Hi+1, rng.Hi+2)); got != 0 {
		t.Fatalf("MaxAdvertisedEpoch outside the advert = %d, want 0", got)
	}
}

// The deposition channel: a push from an incarnation whose range a receiver
// now claims at a strictly higher epoch is answered Deposed, and the pusher
// steps down — its range drops and it departs. This is the runtime half of
// the dual-claim fix: the loser of a false-positive revival resigns within
// one replication refresh. The verdict rides on whatever shape the refresh
// sends: a full push, or — once the successor is up to date — a heartbeat.
func TestDeposedPushTriggersStepDown(t *testing.T) {
	eachPushShape(t, testDeposedPushTriggersStepDown)
}

// eachPushShape runs a deposition scenario twice: with the conflict met by
// the origin's first (full) push, and by the heartbeat that follows an
// acknowledged one. warm performs that acknowledged push; the scenario calls
// it before staging its conflict and gets back the shape counter to check.
func eachPushShape(t *testing.T, scenario func(t *testing.T, warm func(m *Manager) *atomic.Uint64)) {
	t.Run("full", func(t *testing.T) {
		scenario(t, func(m *Manager) *atomic.Uint64 { return &m.FullPushes })
	})
	t.Run("heartbeat", func(t *testing.T) {
		scenario(t, func(m *Manager) *atomic.Uint64 {
			m.RefreshOnce()
			return &m.HeartbeatPushes
		})
	})
}

func testDeposedPushTriggersStepDown(t *testing.T, warm func(m *Manager) *atomic.Uint64) {
	h := newRepHarness(t)
	mgrs, stores, rings := h.bootRing(2, Config{Factor: 1, DisableAutoRefresh: true})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	waitRep(t, 5*time.Second, "successor", func() bool { return len(rings[0].Successors()) >= 1 })
	if err := insertAt(ctx, h, stores[0], datastore.Item{Key: 50}); err != nil {
		t.Fatal(err)
	}
	shape := warm(mgrs[0])

	// Simulate the successor having revived peer 0's range at a higher
	// epoch (what a false-positive failure verdict produces).
	rng0, epoch0, _ := stores[0].RangeEpoch()
	rng1, _ := stores[1].Range()
	stores[1].SetRangeForTesting(keyspace.NewRange(rng0.Lo, rng1.Hi))
	stores[1].SetEpochForTesting(epoch0 + 1)

	mgrs[0].RefreshOnce() // push meets the higher-epoch claim → Deposed → StepDown

	if got := shape.Load(); got != 1 {
		t.Fatalf("the deposing reply did not answer the expected push shape (count %d, want 1)", got)
	}
	if _, ok := stores[0].Range(); ok {
		t.Fatal("deposed pusher still serves its range")
	}
	if got := stores[0].StepDowns.Load(); got != 1 {
		t.Fatalf("StepDowns = %d, want 1", got)
	}
	if rings[0].State() != ring.StateFree {
		t.Fatalf("deposed peer ring state = %s, want FREE", rings[0].State())
	}
}

// Replica reads refuse to serve for a deposed primary's chain: once a holder
// has seen a strictly higher epoch asserted over the interval, a fallback
// read stamped with the old primary's epoch fails with ErrStaleEpoch instead
// of resurrecting the superseded incarnation's view.
func TestReplicaReadRefusesDeposedChain(t *testing.T) {
	h := newRepHarness(t)
	mgrs, stores, rings := h.bootRing(3, Config{Factor: 2, DisableAutoRefresh: true})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	waitRep(t, 5*time.Second, "successors", func() bool { return len(rings[0].Successors()) >= 2 })
	if err := insertAt(ctx, h, stores[0], datastore.Item{Key: 50}); err != nil {
		t.Fatal(err)
	}
	mgrs[0].RefreshOnce()

	_, epoch0, _ := stores[0].RangeEpoch()
	holder := rings[0].Successors()[0].Addr
	iv := keyspace.ClosedInterval(40, 60)

	// At the primary's current epoch the holder serves.
	items, err := ClientReplicaItems(ctx, h.net, stores[0].Addr(), holder, iv, epoch0)
	if err != nil || len(items) != 1 {
		t.Fatalf("replica read at current epoch = (%v, %v), want the one item", items, err)
	}

	// A higher-epoch incarnation advertises over the same range (the revived
	// successor's refresh); the old chain is now deposed.
	newOwner := rings[0].Successors()[1]
	rng0, _ := stores[0].Range()
	resp, err := h.net.Call(ctx, newOwner.Addr, holder, methodPush.Name(), pushMsg{
		From:  newOwner,
		Range: rng0,
		Epoch: epoch0 + 1,
		Full:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pr, ok := resp.(pushResp); !ok || pr.Deposed {
		t.Fatalf("advert push response = %v", resp)
	}

	if _, err := ClientReplicaItems(ctx, h.net, stores[0].Addr(), holder, iv, epoch0); !errors.Is(err, datastore.ErrStaleEpoch) {
		t.Fatalf("replica read for deposed chain = %v, want ErrStaleEpoch", err)
	}
	// Unfenced reads (no epoch information) still serve.
	if _, err := ClientReplicaItems(ctx, h.net, stores[0].Addr(), holder, iv, 0); err != nil {
		t.Fatalf("unfenced replica read: %v", err)
	}
	holderMgr := h.mgrs[holder]
	if got := holderMgr.StaleChainRefusals.Load(); got != 1 {
		t.Fatalf("StaleChainRefusals = %d, want 1", got)
	}
}

// An epoch collision — two live incarnations claiming overlapping ranges at
// the SAME epoch (a revival whose advert-derived epoch failed to clear a
// bump the suspect never pushed) — must converge instead of coexisting: the
// receiver of the push re-claims strictly above the conflict and deposes the
// pusher, whose StepDown guard then accepts the strictly-higher epoch.
func TestTiedEpochPushResolvesByReclaim(t *testing.T) {
	eachPushShape(t, testTiedEpochPushResolvesByReclaim)
}

func testTiedEpochPushResolvesByReclaim(t *testing.T, warm func(m *Manager) *atomic.Uint64) {
	h := newRepHarness(t)
	mgrs, stores, rings := h.bootRing(2, Config{Factor: 1, DisableAutoRefresh: true})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	waitRep(t, 5*time.Second, "successor", func() bool { return len(rings[0].Successors()) >= 1 })
	if err := insertAt(ctx, h, stores[0], datastore.Item{Key: 50}); err != nil {
		t.Fatal(err)
	}
	shape := warm(mgrs[0])

	// Stage the collision: the successor claims a superset of peer 0's range
	// at peer 0's EXACT epoch (what a revival produces when the suspect's
	// latest bump never reached the revivor's advert table).
	rng0, epoch0, _ := stores[0].RangeEpoch()
	rng1, _ := stores[1].Range()
	stores[1].SetRangeForTesting(keyspace.NewRange(rng0.Lo, rng1.Hi))
	stores[1].SetEpochForTesting(epoch0)

	mgrs[0].RefreshOnce() // tied push → successor re-claims above → Deposed → StepDown

	if got := shape.Load(); got != 1 {
		t.Fatalf("the tie was not met by the expected push shape (count %d, want 1)", got)
	}
	if got := stores[1].Epoch(); got <= epoch0 {
		t.Fatalf("successor epoch = %d after tie, want > %d (re-claimed above the conflict)", got, epoch0)
	}
	if _, ok := stores[0].Range(); ok {
		t.Fatal("tied pusher still serves: the collision never converged")
	}
	if got := stores[0].StepDowns.Load(); got != 1 {
		t.Fatalf("StepDowns = %d, want 1", got)
	}
}

// A third-party replica holder (one whose own range does not overlap the
// push) still refuses a deposed incarnation's push once a higher-epoch
// advert covers the range: installing it would clobber the winner's fresher
// replicas and resurrect superseded state.
func TestThirdPartyHolderRefusesDeposedPush(t *testing.T) {
	h := newRepHarness(t)
	mgrs, stores, rings := h.bootRing(3, Config{Factor: 2, DisableAutoRefresh: true})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	waitRep(t, 5*time.Second, "successors", func() bool { return len(rings[0].Successors()) >= 2 })
	if err := insertAt(ctx, h, stores[0], datastore.Item{Key: 50}); err != nil {
		t.Fatal(err)
	}
	mgrs[0].RefreshOnce()

	rng0, epoch0, _ := stores[0].RangeEpoch()
	holder := rings[0].Successors()[0].Addr
	winner := rings[0].Successors()[1]

	// The winner's higher-epoch advert reaches the holder with its
	// post-revival item set (key 50 deleted).
	resp, err := h.net.Call(ctx, winner.Addr, holder, methodPush.Name(), pushMsg{
		From: winner, Range: rng0, Epoch: epoch0 + 1, Full: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pr := resp.(pushResp); pr.Deposed {
		t.Fatalf("winner's advert refused: %+v", pr)
	}
	if got := h.mgrs[holder].ReplicaCount(); got != 0 {
		t.Fatalf("holder still holds %d replicas after the winner's reconciling push", got)
	}

	// The deposed incarnation's own push (same range, old epoch) must now be
	// refused — not installed — even though the holder's own range does not
	// overlap it.
	resp, err = h.net.Call(ctx, stores[0].Addr(), holder, methodPush.Name(), pushMsg{
		From: rings[0].Self(), Range: rng0, Epoch: epoch0, Full: true,
		Items: []datastore.Item{{Key: 50, Payload: "stale"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := resp.(pushResp)
	if !pr.Deposed || pr.Epoch != epoch0+1 {
		t.Fatalf("deposed push answer = %+v, want Deposed at epoch %d", pr, epoch0+1)
	}
	if got := h.mgrs[holder].ReplicaCount(); got != 0 {
		t.Fatalf("deposed push was installed: holder has %d replicas", got)
	}
}

// The symmetric deposition channel: a push receiver whose own overlapping
// claim is strictly LOWER than a live pusher's yields itself rather than
// deposing the provably-ahead owner — the epochs CAN order this conflict,
// and the lower incarnation is the one that must go.
func TestLowerClaimReceiverYieldsToHigherPush(t *testing.T) {
	h := newRepHarness(t)
	mgrs, stores, rings := h.bootRing(2, Config{Factor: 1, DisableAutoRefresh: true})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	waitRep(t, 5*time.Second, "successor", func() bool { return len(rings[0].Successors()) >= 1 })
	if err := insertAt(ctx, h, stores[0], datastore.Item{Key: 50}); err != nil {
		t.Fatal(err)
	}

	// Stage the conflict: the successor claims a superset of the pusher's
	// range at a strictly LOWER epoch (a stale claimant vs the live,
	// provably-ahead owner).
	rng0, epoch0, _ := stores[0].RangeEpoch()
	stores[0].SetEpochForTesting(epoch0 + 5)
	rng1, _ := stores[1].Range()
	stores[1].SetRangeForTesting(keyspace.NewRange(rng0.Lo, rng1.Hi))
	stores[1].SetEpochForTesting(epoch0 + 1)

	mgrs[0].RefreshOnce() // higher-epoch push reaches the stale claimant

	waitRep(t, 5*time.Second, "stale receiver steps down", func() bool {
		return stores[1].StepDowns.Load() == 1
	})
	if _, ok := stores[0].Range(); !ok {
		t.Fatal("the higher-epoch pusher lost its range")
	}
	if got := stores[0].StepDowns.Load(); got != 0 {
		t.Fatalf("pusher StepDowns = %d, want 0", got)
	}
}
