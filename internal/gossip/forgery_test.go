package gossip

import (
	"sync"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/keyspace"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// A forged range advert — a higher epoch claimed in another owner's name,
// signed by a key other than the one pinned for that owner — must not enter
// the directory, must not reach ObserveAdvert (no step-down), and must not
// gossip onward. Genuine adverts keep flowing around the rejects.
func TestForgedGossipAdvertRejected(t *testing.T) {
	_, agents := testCluster(t, 2, simnet.Config{DeadCallDelay: time.Millisecond, Seed: 11})
	owner, verifier := agents[0], agents[1]
	ownerAddr := owner.self

	ownerID, err := auth.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	forger, err := auth.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}

	rng := keyspace.NewRange(100, 200)
	owner.SelfAdvert = func() (keyspace.Range, uint64, bool) { return rng, 5, true }
	owner.Identity = ownerID

	verifier.Keyring = auth.NewKeyring()
	verifier.Keyring.Pin(string(ownerAddr), ownerID.Public())
	var mu sync.Mutex
	var observed []uint64
	verifier.ObserveAdvert = func(o transport.Addr, r keyspace.Range, epoch uint64) {
		mu.Lock()
		defer mu.Unlock()
		observed = append(observed, epoch)
	}

	// The genuine signed advert gossips in.
	runRounds(agents, 4)
	if got := verifier.Snapshot().Ranges[ownerAddr]; got.Epoch != 5 {
		t.Fatalf("genuine advert not installed: epoch = %d, want 5", got.Epoch)
	}

	// A forged higher-epoch advert in the owner's name arrives in an
	// exchange; so does an unsigned one. Neither may improve the directory.
	forgedDir := newDirectory()
	forgedDir.Ranges[ownerAddr] = RangeAd{
		Range: rng, Epoch: 9,
		Sig: forger.SignAdvert(string(ownerAddr), rng.Lo, rng.Hi, 9),
	}
	verifier.merge(forgedDir)
	unsignedDir := newDirectory()
	unsignedDir.Ranges[ownerAddr] = RangeAd{Range: rng, Epoch: 10}
	verifier.merge(unsignedDir)

	if got := verifier.Snapshot().Ranges[ownerAddr]; got.Epoch != 5 {
		t.Fatalf("directory epoch = %d after forgeries, want still 5", got.Epoch)
	}
	if got := verifier.SigRejects(); got != 2 {
		t.Fatalf("SigRejects = %d, want 2", got)
	}
	mu.Lock()
	for _, epoch := range observed {
		if epoch > 5 {
			t.Fatalf("ObserveAdvert fired for forged epoch %d: a step-down could follow", epoch)
		}
	}
	mu.Unlock()

	// A genuinely signed higher epoch still improves the directory: the
	// rejects did not wedge the owner's entry.
	genuineDir := newDirectory()
	genuineDir.Ranges[ownerAddr] = RangeAd{
		Range: rng, Epoch: 6,
		Sig: ownerID.SignAdvert(string(ownerAddr), rng.Lo, rng.Hi, 6),
	}
	verifier.merge(genuineDir)
	if got := verifier.Snapshot().Ranges[ownerAddr]; got.Epoch != 6 {
		t.Fatalf("directory epoch = %d after genuine bump, want 6", got.Epoch)
	}
}
