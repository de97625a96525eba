package gossip

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/keyspace"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// testCluster assembles n agents over one simulated network, each seeded
// with the previous agent as its only known member (a line topology: gossip
// must discover the rest).
func testCluster(t *testing.T, n int, netCfg simnet.Config) (*simnet.Network, []*Agent) {
	t.Helper()
	net := simnet.New(netCfg)
	t.Cleanup(func() { _ = net.Close() })
	// Send failures are silent (as on a real network), so a codec rejection
	// of a one-way message would otherwise go unnoticed.
	t.Cleanup(func() {
		if err := net.CodecErr(); err != nil {
			t.Errorf("codec violation: %v", err)
		}
	})
	agents := make([]*Agent, n)
	for i := 0; i < n; i++ {
		addr := transport.Addr(fmt.Sprintf("g%d", i+1))
		mux := transport.NewMux()
		agents[i] = New(net, mux, addr, Config{Fanout: 2, CallTimeout: 200 * time.Millisecond, Seed: int64(i + 1)})
		if err := net.Register(addr, mux.Dispatch); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			agents[i].AddMember(transport.Addr(fmt.Sprintf("g%d", i)))
		}
	}
	return net, agents
}

func runRounds(agents []*Agent, rounds int) {
	ctx := context.Background()
	for r := 0; r < rounds; r++ {
		for _, a := range agents {
			a.RunRound(ctx)
		}
	}
}

// Directory convergence after a partition heals: two halves of the cluster
// diverge under a severed cut (free entries and membership spread
// only within each half), then agree within a bounded number of rounds once
// the cut is removed — including healing the suspicions the halves formed
// of each other.
func TestDirectoryConvergesAfterPartitionHeals(t *testing.T) {
	var cut atomic.Bool
	side := func(a transport.Addr) int {
		// g1..g3 on side 0, g4..g6 on side 1.
		if a == "g1" || a == "g2" || a == "g3" {
			return 0
		}
		return 1
	}
	cfg := simnet.Config{
		MinLatency:    50 * time.Microsecond,
		MaxLatency:    200 * time.Microsecond,
		DeadCallDelay: time.Millisecond,
		Seed:          7,
		Fault: func(m simnet.Msg) simnet.Verdict {
			if cut.Load() && side(m.From) != side(m.To) {
				return simnet.Sever
			}
			return simnet.Deliver
		},
	}
	_, agents := testCluster(t, 6, cfg)

	// Let the line topology converge once so both future halves are
	// internally connected, then cut the cluster in half.
	runRounds(agents, 8)
	cut.Store(true)

	// Each side learns a new free peer while partitioned; neither fact can
	// cross the cut.
	agents[0].MarkFree("g2")
	agents[3].MarkFree("g5")
	runRounds(agents, 8)
	if snap := agents[0].Snapshot(); snap.Free["g5"].Version != 0 {
		t.Fatal("free entry for g5 crossed the partition")
	}
	if snap := agents[3].Snapshot(); snap.Free["g2"].Version != 0 {
		t.Fatal("free entry for g2 crossed the partition")
	}

	// Heal and gossip. Every agent must reach the same directory: all six
	// members, both free entries, and no standing suspicion of anyone.
	cut.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		runRounds(agents, suspectProbePeriod)
		agreed := true
		for _, a := range agents {
			snap := a.Snapshot()
			if len(snap.Members) != 6 ||
				snap.Free["g2"].Version == 0 || snap.Free["g2"].Taken ||
				snap.Free["g5"].Version == 0 || snap.Free["g5"].Taken {
				agreed = false
				break
			}
			for addr, s := range snap.Suspects {
				if s.Suspected {
					t.Logf("agent still suspects %s", addr)
					agreed = false
				}
			}
		}
		if agreed {
			break
		}
		if time.Now().After(deadline) {
			for i, a := range agents {
				t.Logf("agent %d: %+v", i+1, a.Snapshot())
			}
			t.Fatal("directories did not converge after the partition healed")
		}
	}
}

// The versioned free-entry merge: a taken mark out-gossips a stale free
// observation, and TakeFree never hands out itself or a peer the directory
// knows is taken, suspected, or serving a range. FreeCount agrees with it.
func TestTakeFreeRespectsDirectoryState(t *testing.T) {
	net := simnet.New(simnet.Config{DeadCallDelay: time.Millisecond, Seed: 3})
	defer net.Close()
	mux := transport.NewMux()
	a := New(net, mux, "self", Config{})
	if err := net.Register("self", mux.Dispatch); err != nil {
		t.Fatal(err)
	}

	a.MarkFree("free-1")
	a.MarkFree("taken-1")
	a.MarkTaken("taken-1")
	a.MarkFree("owner-1")
	a.merge(Directory{
		Ranges:  map[transport.Addr]RangeAd{"owner-1": {Range: keyspace.Range{Lo: 0, Hi: 10}, Epoch: 1}},
		Members: map[transport.Addr]bool{"owner-1": true},
	})
	a.MarkFree("sus-1")
	a.setSuspected("sus-1", true)
	a.MarkFree("self")

	// FreeCount counts exactly what TakeFree would lend.
	if n := a.FreeCount(); n != 1 {
		t.Fatalf("FreeCount = %d before the take, want 1 (free-1 only)", n)
	}
	addr, ok := a.TakeFree()
	if !ok || addr != "free-1" {
		t.Fatalf("TakeFree = %v %v, want free-1", addr, ok)
	}
	if _, ok := a.TakeFree(); ok {
		t.Fatal("TakeFree handed out itself or a taken, suspected or range-owning peer")
	}
	if n := a.FreeCount(); n != 0 {
		t.Fatalf("FreeCount = %d after the take, want 0", n)
	}
	// The take is visible (and versioned) in the directory.
	if e := a.Snapshot().Free["free-1"]; !e.Taken {
		t.Fatalf("taken mark not recorded: %+v", e)
	}
}

// A remote range advert entering the directory fires ObserveAdvert exactly
// once per improvement, never for this peer's own advert.
func TestObserveAdvertFiresOnImprovement(t *testing.T) {
	net := simnet.New(simnet.Config{DeadCallDelay: time.Millisecond, Seed: 3})
	defer net.Close()
	mux := transport.NewMux()
	a := New(net, mux, "self", Config{})
	var calls []string
	a.ObserveAdvert = func(owner transport.Addr, rng keyspace.Range, epoch uint64) {
		calls = append(calls, fmt.Sprintf("%s@%d", owner, epoch))
	}

	in := Directory{Ranges: map[transport.Addr]RangeAd{
		"other": {Range: keyspace.Range{Lo: 0, Hi: 10}, Epoch: 2},
		"self":  {Range: keyspace.Range{Lo: 10, Hi: 20}, Epoch: 9},
	}}
	a.merge(in)
	a.merge(in) // same epoch again: no improvement, no hook
	a.merge(Directory{Ranges: map[transport.Addr]RangeAd{
		"other": {Range: keyspace.Range{Lo: 0, Hi: 10}, Epoch: 3},
	}})
	want := []string{"other@2", "other@3"}
	if len(calls) != len(want) || calls[0] != want[0] || calls[1] != want[1] {
		t.Fatalf("ObserveAdvert calls = %v, want %v", calls, want)
	}
}

// Start is idempotent: a second call must not launch a second round loop.
// The k-th tick of one ticker is never early, so one loop cannot have
// initiated k rounds before k intervals have passed; two would by half that.
func TestSecondStartDoesNotDoubleTheRounds(t *testing.T) {
	const interval = 5 * time.Millisecond
	const want = 6
	net := simnet.New(simnet.Config{})
	t.Cleanup(func() { _ = net.Close() })
	a := New(net, transport.NewMux(), "g1", Config{Interval: interval})
	start := time.Now()
	a.Start()
	a.Start()
	defer a.Stop()
	for a.Rounds() < want {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("only %d rounds ran", a.Rounds())
		}
		time.Sleep(interval / 5)
	}
	if got, floor := time.Since(start), (want-1)*interval; got < floor {
		t.Fatalf("%d rounds in %v, want at least %v: a second Start launched a second loop", want, got, floor)
	}
}
