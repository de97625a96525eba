package replication

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/datastore"
	"repro/internal/history"
	"repro/internal/keyspace"
)

// wireAuth gives every manager in the harness a real identity and a keyring
// pre-pinned with every peer's genuine public key (what a converged TOFU
// cluster looks like).
func wireAuth(t *testing.T, h *repHarness) {
	t.Helper()
	kr := auth.NewKeyring()
	for addr, m := range h.mgrs {
		id, err := auth.NewIdentity()
		if err != nil {
			t.Fatal(err)
		}
		kr.Pin(string(addr), id.Public())
		m.Identity, m.Keyring = id, kr
	}
}

// A forged higher-epoch push advert — correctly signed, but with a key other
// than the one pinned for its claimed owner — cannot depose the real owner:
// the receiver refuses it before any epoch bookkeeping, counts the refusal,
// and the claim and lease audits stay clean.
func TestForgedPushAdvertCannotDepose(t *testing.T) {
	h := newRepHarness(t)
	mgrs, stores, rings := h.bootRing(3, Config{Factor: 2})
	wireAuth(t, h)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	waitRep(t, 5*time.Second, "successors", func() bool { return len(rings[0].Successors()) >= 2 })
	if err := insertAt(ctx, h, stores[0], datastore.Item{Key: 50}); err != nil {
		t.Fatal(err)
	}
	mgrs[0].RefreshOnce() // genuine signed push: must still pass verification

	rng0, epoch0, _ := stores[0].RangeEpoch()
	holder := rings[0].Successors()[0].Addr
	holderMgr := h.mgrs[holder]
	iv := keyspace.ClosedInterval(40, 60)
	if items, err := ClientReplicaItems(ctx, h.net, stores[0].Addr(), holder, iv, epoch0); err != nil || len(items) != 1 {
		t.Fatalf("signed refresh did not install replicas: (%v, %v)", items, err)
	}

	// The forgery: an advert claiming the victim's range at a higher epoch in
	// an established member's name — the deposition attack the signature
	// exists to stop. It is validly signed, just not by the key pinned for
	// the claimed owner.
	claimant := rings[0].Successors()[1] // the peer whose name the forger abuses
	forger, err := auth.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	forged := pushMsg{
		From:  claimant,
		Range: rng0,
		Epoch: epoch0 + 1,
		Sig:   forger.SignAdvert(string(claimant.Addr), rng0.Lo, rng0.Hi, epoch0+1),
	}
	if _, err := h.net.Call(ctx, claimant.Addr, holder, methodPush.Name(), forged); err == nil {
		t.Fatal("forged higher-epoch push was accepted")
	} else if !errors.Is(err, auth.ErrBadSignature) {
		t.Fatalf("forged push: err = %v, want ErrBadSignature", err)
	}

	// An unsigned higher-epoch push is refused the same way on an
	// authenticated cluster.
	unsigned := pushMsg{From: claimant, Range: rng0, Epoch: epoch0 + 2}
	if _, err := h.net.Call(ctx, claimant.Addr, holder, methodPush.Name(), unsigned); !errors.Is(err, auth.ErrBadSignature) {
		t.Fatalf("unsigned push: err = %v, want ErrBadSignature", err)
	}

	if got := holderMgr.SigRejects.Load(); got != 2 {
		t.Fatalf("holder SigRejects = %d, want 2", got)
	}

	// The real owner was not deposed: its chain still serves replica reads at
	// its current epoch, and its store still owns the range.
	if _, err := ClientReplicaItems(ctx, h.net, stores[0].Addr(), holder, iv, epoch0); err != nil {
		t.Fatalf("replica read at the real owner's epoch after the forgery: %v", err)
	}
	if got := stores[0].Epoch(); got != epoch0 {
		t.Fatalf("owner epoch = %d after forgery, want %d (undeposed)", got, epoch0)
	}
	if got := stores[0].StepDowns.Load(); got != 0 {
		t.Fatalf("owner StepDowns = %d, want 0", got)
	}

	// Neither refusal perturbs the claim or lease audits.
	if v := history.CheckClaims(h.log.Events()); len(v) != 0 {
		t.Fatalf("claim audit after forgery: %v", v)
	}
	if v := h.log.CheckLeases(); len(v) != 0 {
		t.Fatalf("lease audit after forgery: %v", v)
	}

	// The genuine owner's next signed refresh still verifies: the rejects did
	// not poison the keyring.
	mgrs[0].RefreshOnce()
	if got := holderMgr.SigRejects.Load(); got != 2 {
		t.Fatalf("holder SigRejects = %d after a genuine refresh, want still 2", got)
	}
}

// The smaller shapes are ownership assertions too: a forged or unsigned delta
// or heartbeat in the real owner's name is refused before any bookkeeping —
// no replica installed, no lease evidence stamped, the recorded version
// untouched — exactly like a forged full push.
func TestForgedDeltaAndHeartbeatAreRefused(t *testing.T) {
	h := newRepHarness(t)
	mgrs, stores, rings := h.bootRing(2, Config{Factor: 1})
	wireAuth(t, h)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	waitRep(t, 5*time.Second, "successor", func() bool { return len(rings[0].Successors()) >= 1 })
	if err := insertAt(ctx, h, stores[0], datastore.Item{Key: 50}); err != nil {
		t.Fatal(err)
	}
	mgrs[0].RefreshOnce()
	mgrs[0].RefreshOnce() // a genuine signed heartbeat verifies
	if got := mgrs[0].HeartbeatPushes.Load(); got != 1 {
		t.Fatalf("HeartbeatPushes = %d, want 1", got)
	}
	holder := mgrs[1]
	if got := holder.SigRejects.Load(); got != 0 {
		t.Fatalf("genuine pushes rejected: SigRejects = %d", got)
	}

	owner := rings[0].Self()
	rng, epoch, _ := stores[0].RangeEpoch()
	holder.mu.Lock()
	held := holder.adverts[owner.Addr]
	holder.mu.Unlock()
	count, digest := 1, newReplica(datastore.Item{Key: 50}).sum
	forger, err := auth.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	forgedSig := forger.SignAdvert(string(owner.Addr), rng.Lo, rng.Hi, epoch)
	pushes := map[string]pushMsg{
		"forged heartbeat": {From: owner, Range: rng, Epoch: epoch, Sig: forgedSig,
			Base: held.Version, Version: held.Version, Count: count, Digest: digest},
		"unsigned heartbeat": {From: owner, Range: rng, Epoch: epoch,
			Base: held.Version, Version: held.Version, Count: count, Digest: digest},
		"forged delta": {From: owner, Range: rng, Epoch: epoch, Sig: forgedSig,
			Base: held.Version, Version: held.Version + 1, Items: []datastore.Item{{Key: 60, Payload: "forged"}}, Count: 2},
		"unsigned delta": {From: owner, Range: rng, Epoch: epoch,
			Base: held.Version, Version: held.Version + 1, Deletes: []keyspace.Key{50}},
	}
	for name, msg := range pushes {
		if _, err := h.net.Call(ctx, owner.Addr, holder.ring.Self().Addr, methodPush.Name(), msg); !errors.Is(err, auth.ErrBadSignature) {
			t.Fatalf("%s: err = %v, want ErrBadSignature", name, err)
		}
	}
	if got := holder.SigRejects.Load(); got != uint64(len(pushes)) {
		t.Fatalf("SigRejects = %d, want %d", got, len(pushes))
	}
	holder.mu.Lock()
	after := holder.adverts[owner.Addr]
	holder.mu.Unlock()
	if after != held {
		t.Fatalf("refused pushes changed the holder's record of the owner: %+v -> %+v", held, after)
	}
	if reps := holder.HeldReplicas(); len(reps) != 1 || reps[0].Key != 50 {
		t.Fatalf("refused pushes changed the replica store: %+v", reps)
	}
}
