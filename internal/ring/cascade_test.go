package ring

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/transport"
)

// quietRingConfig has stabilization and ping periods far beyond any test's
// deadline: only kicks, stabNow and rounds a test calls by hand run.
func quietRingConfig(noProactive bool) Config {
	cfg := fastRingConfig()
	cfg.StabPeriod = time.Hour
	cfg.PingPeriod = time.Hour
	cfg.NoProactive = noProactive
	return cfg
}

// buildByHand is buildRing for a cluster whose periodic rounds never fire:
// while each insert waits for its ack, every joined peer stabilizes by hand,
// and then every peer stabilizes, last to first, until each list is its
// successor's shifted by one and the ring is consistent.
func (tc *testCluster) buildByHand(n int) []*Peer {
	tc.t.Helper()
	peers := make([]*Peer, n)
	for i := range peers {
		peers[i] = tc.addPeer(fmt.Sprintf("p%d", i), uint64(i+1)*100, Callbacks{})
	}
	if err := peers[0].InitRing(); err != nil {
		tc.t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 1; i < n; i++ {
		tc.insertByHand(ctx, peers[i-1], peers[i], peers[:i]...)
	}
	tc.stabilizeBackwards(peers, 2*n)
	if err := CheckConsistency(peers); err != nil {
		tc.t.Fatalf("ring inconsistent after build: %v", err)
	}
	return peers
}

// insertByHand has inserter insert n while every peer of drive stabilizes by
// hand, once a millisecond, until the insert returns.
func (tc *testCluster) insertByHand(ctx context.Context, inserter, n *Peer, drive ...*Peer) {
	tc.t.Helper()
	done := make(chan error, 1)
	go func() { done <- inserter.InsertSucc(ctx, n.Self()) }()
	for {
		select {
		case err := <-done:
			if err != nil {
				tc.t.Fatalf("insert %s: %v", n.addr, err)
			}
			return
		default:
			for _, p := range drive {
				p.StabilizeOnce()
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// stabilizeBackwards runs passes rounds at every peer of peers (in ring
// order), last to first, so each pass carries news all the way back; then
// it lets the stabNow messages those rounds sent land.
func (tc *testCluster) stabilizeBackwards(peers []*Peer, passes int) {
	for range passes {
		for i := len(peers) - 1; i >= 0; i-- {
			peers[i].StabilizeOnce()
		}
	}
	time.Sleep(50 * time.Millisecond)
}

// entryFor returns the state p's successor list attributes to addr, and
// whether the list holds addr at all.
func entryFor(p *Peer, addr transport.Addr) (EntryState, bool) {
	for _, e := range p.SuccessorList() {
		if e.Node.Addr == addr {
			return e.State, true
		}
	}
	return 0, false
}

// A JOINING peer's flip to JOINED reaches every predecessor within the
// horizon with no periodic round: the inserter tells its predecessor once
// the joined message lands, and each predecessor whose list changed tells its
// own. The NoProactive twin's predecessors keep the JOINING entry until they
// stabilize by hand.
func TestJoinedFlipCascadesToEveryPredecessorInTheHorizon(t *testing.T) {
	for _, noProactive := range []bool{false, true} {
		t.Run(fmt.Sprintf("NoProactive=%v", noProactive), func(t *testing.T) {
			cfg := quietRingConfig(noProactive)
			d := cfg.SuccListLen
			tc := newTestCluster(t, cfg)
			peers := tc.buildByHand(d + 2)
			// x joins after the last peer; its d predecessors are the
			// inserter and the d-1 peers before it, nearest first.
			inserter := peers[d+1]
			horizon := []*Peer{inserter}
			for k := 1; k < d; k++ {
				horizon = append(horizon, peers[d+1-k])
			}
			x := tc.addPeer("x", uint64(d+2)*100+50, Callbacks{})
			joinedAt := func(p *Peer) bool {
				st, ok := entryFor(p, x.addr)
				return ok && st == EntryJoined
			}

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- inserter.InsertSucc(ctx, x.Self()) }()
			if noProactive {
				// Carry the JOINING entry to the farthest predecessor by
				// hand, farthest first so one pass moves it one hop. That
				// predecessor's first round with x in its list sends the ack;
				// no round runs after it.
				far := horizon[d-1]
				for {
					far.StabilizeOnce()
					if _, seen := entryFor(far, x.addr); seen {
						break
					}
					for k := d - 2; k >= 1; k-- {
						horizon[k].StabilizeOnce()
					}
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}

			if !noProactive {
				waitUntil(t, 2*time.Second, "every predecessor in the horizon to list x as JOINED", func() bool {
					for _, p := range horizon {
						if !joinedAt(p) {
							return false
						}
					}
					return true
				})
				return
			}
			time.Sleep(200 * time.Millisecond)
			for _, p := range horizon[1:] {
				if st, ok := entryFor(p, x.addr); !ok || st != EntryJoining {
					t.Fatalf("%s lists x as %v (present %v) with no round run, want JOINING", p.addr, st, ok)
				}
			}
			for _, p := range horizon[1:] {
				p.StabilizeOnce()
			}
			for _, p := range horizon {
				if !joinedAt(p) {
					t.Errorf("%s does not list x as JOINED after stabilizing by hand", p.addr)
				}
			}
		})
	}
}

// A dead successor's removal reaches every predecessor within the horizon
// with no periodic round: the peer whose ping finds it gone tells its
// predecessor, and each predecessor whose list changed tells its own. Its own
// kicked round reaches the dead peer's successor, which takes it as its
// predecessor. A round that changes no list tells no one.
func TestRemovalCascadesToEveryPredecessorInTheHorizon(t *testing.T) {
	cfg := quietRingConfig(false)
	d := cfg.SuccListLen
	tc := newTestCluster(t, cfg)
	peers := tc.buildByHand(d + 2)
	victim := peers[d+1]
	horizon := peers[1 : d+1]
	tc.net.Kill(victim.addr)
	victim.Stop()

	peers[d].PingOnce()
	waitUntil(t, 2*time.Second, "every predecessor in the horizon to drop the dead peer", func() bool {
		for _, p := range horizon {
			if _, ok := entryFor(p, victim.addr); ok {
				return false
			}
		}
		return true
	})
	waitUntil(t, 2*time.Second, "the dead peer's successor to take its predecessor", func() bool {
		return peers[0].Pred().Addr == peers[d].addr
	})

	survivors := peers[:d+1]
	tc.stabilizeBackwards(survivors, 2)
	if err := CheckConsistency(survivors); err != nil {
		t.Fatalf("ring inconsistent after the removal: %v", err)
	}
	stabNows := func() uint64 { return tc.net.Stats().ByMethod[methodStabNow.Name()] }
	before := make([][]Entry, len(survivors))
	for i, p := range survivors {
		before[i] = p.SuccessorList()
	}
	sent := stabNows()
	tc.stabilizeBackwards(survivors, 1)
	for i, p := range survivors {
		if after := p.SuccessorList(); !sameEntries(before[i], after) {
			t.Fatalf("%s's list changed in a settled ring: %v → %v", p.addr, before[i], after)
		}
	}
	if got := stabNows() - sent; got != 0 {
		t.Errorf("rounds that changed no list sent %d stabNow messages, want 0", got)
	}
}

// One failure must not strand a peer. An inserter that dies once its joiner
// holds its range (deliverJoined), before its predecessor's next round,
// leaves that predecessor listing the joiner as JOINING behind a dead
// successor. The ping that finds the inserter gone must ask the joiner, keep
// it as the finished join it is and stabilize with it, so the joiner takes
// the predecessor with predFailed (and revives the dead inserter's range),
// and Definition 5 holds. Before the insert the ring has two peers (the
// predecessor's list would be left empty) or three (it would skip the
// joiner).
func TestInserterDeathAfterTheFlipStrandsNoPeer(t *testing.T) {
	for _, base := range []int{2, 3} {
		t.Run(fmt.Sprintf("%d peers before the insert", base), func(t *testing.T) {
			tc := newTestCluster(t, quietRingConfig(true))
			tc.manual = true
			peers := tc.buildByHand(base)
			pred, inserter := peers[0], peers[1]
			failedTo := make(chan Node, 4)
			x := tc.addPeer("x", 250, Callbacks{
				// The inserter dies as x installs its range: the joined
				// reply still reaches it, but nothing it sends after does.
				OnJoined: func(Node, Node, any) { tc.net.Kill(inserter.addr) },
				OnPredChanged: func(newPred, _ Node, predFailed bool) {
					if predFailed {
						failedTo <- newPred
					}
				},
			})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- inserter.InsertSucc(ctx, x.Self()) }()
			waitUntil(t, 2*time.Second, "the inserter to list x", func() bool {
				_, ok := entryFor(inserter, x.addr)
				return ok
			})
			// The predecessor's one round learns x as JOINING and acks it.
			pred.StabilizeOnce()
			if err := <-done; err != nil {
				t.Fatalf("insert x: %v", err)
			}
			if st, ok := entryFor(pred, x.addr); !ok || st != EntryJoining {
				t.Fatalf("predecessor lists x as %v (present %v), want JOINING", st, ok)
			}

			pred.PingOnce()
			pred.StabilizeOnce()
			select {
			case n := <-failedTo:
				if n.Addr != pred.addr {
					t.Fatalf("x took %s as its predecessor with predFailed, want %s", n.Addr, pred.addr)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("x never took a predecessor with predFailed; the predecessor lists %v", pred.SuccessorList())
			}
			survivors := append([]*Peer{pred, x}, peers[2:]...)
			tc.stabilizeBackwards(survivors, 2*len(survivors))
			if err := CheckConsistency(survivors); err != nil {
				t.Fatalf("ring inconsistent after the inserter's death: %v", err)
			}
		})
	}
}
