package datastore

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/keyspace"
	"repro/internal/ring"
)

// The change feed against a snapshot: a view that applies every TakeChanges
// in order must equal the item set clipped to the range, whatever moved the
// item set or the claim in between — client mutations, carves, merges,
// revivals, step-downs and bare range or epoch changes. Seeded, driven
// directly on a lone store, no sleeps.
func TestChangeFeedMatchesSnapshot(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkFeedAgainstSnapshot(t, rand.New(rand.NewSource(seed)), 400)
		})
	}
}

func checkFeedAgainstSnapshot(t *testing.T, rnd *rand.Rand, steps int) {
	h, st := loneStore(t, newRecBackend(), 0)
	st.SetDeps(&fakeRep{}, nil)
	joinAs100to200(t, st)
	self := h.rings[st.Addr()]
	// key picks mostly inside the range, so that mutations land and deletes
	// find something, and sometimes anywhere.
	key := func() keyspace.Key {
		if rng, _, has := st.RangeEpoch(); has && rnd.Intn(4) > 0 {
			return rng.Lo + 1 + keyspace.Key(rnd.Int63n(int64(min(rng.Size(), 40))))
		}
		return keyspace.Key(rnd.Intn(400))
	}
	payload := func() string { return fmt.Sprintf("p%d", rnd.Intn(3)) }
	var (
		view  map[keyspace.Key]string // nil before the first take and after one with no range
		last  keyspace.Range          // what the previous take reported
		lastE uint64
		takes int
	)
	take := func(step int, op string) {
		t.Helper()
		ch, ok := st.TakeChanges()
		rng, epoch, has := st.RangeEpoch()
		if ok != has {
			t.Fatalf("step %d (%s): take ok=%v, serving=%v", step, op, ok, has)
		}
		if !ok {
			view = nil
			return
		}
		takes++
		if ch.Range != rng || ch.Epoch != epoch {
			t.Fatalf("step %d (%s): take reported %v@%d, store is at %v@%d", step, op, ch.Range, ch.Epoch, rng, epoch)
		}
		if moved := view == nil || ch.Range != last || ch.Epoch != lastE; ch.Full != moved {
			t.Fatalf("step %d (%s): take full=%v, but (range, epoch) moved=%v", step, op, ch.Full, moved)
		}
		last, lastE = ch.Range, ch.Epoch
		if ch.Full {
			view = make(map[keyspace.Key]string)
		}
		for _, it := range ch.Items {
			view[it.Key] = it.Payload
		}
		for _, k := range ch.Gone {
			delete(view, k)
		}
		want := make(map[keyspace.Key]string)
		for _, it := range st.LocalItems() {
			if rng.Contains(it.Key) {
				want[it.Key] = it.Payload
			}
		}
		if len(view) != len(want) {
			t.Fatalf("step %d (%s): feed view holds %d items, the clipped set %d", step, op, len(view), len(want))
		}
		for k, p := range want {
			if vp, ok := view[k]; !ok || vp != p {
				t.Fatalf("step %d (%s): key %d: feed view %q (held %v), store %q", step, op, k, vp, ok, p)
			}
		}
	}

	for step := 0; step < steps; step++ {
		rng, epoch, has := st.RangeEpoch()
		// Every range stays inside (0, 1000): no operation below wraps it
		// around the ring.
		roomBelow := has && rng.Lo > 30
		var op string
		switch n := rnd.Intn(20); {
		case !has:
			// A step-down or merge-away left a free peer: join again, above
			// whatever epoch came before.
			op = "rejoin"
			lo := keyspace.Key(rnd.Intn(200))
			hi := lo + keyspace.Key(1+rnd.Intn(200))
			var items []Item
			for k := lo + 1; k <= hi; k += keyspace.Key(1 + rnd.Intn(20)) {
				items = append(items, Item{Key: k, Payload: payload()})
			}
			self.SetVal(hi)
			st.OnJoined(ring.Node{Addr: st.Addr(), Val: hi}, ring.Node{Addr: "pred", Val: lo},
				joinData{Range: keyspace.NewRange(lo, hi), Epoch: epoch + uint64(step) + 1, Items: items})
		case n < 8:
			op = "insert"
			_, _ = st.handleInsert("c", insertReq{Item: Item{Key: key(), Payload: payload()}})
		case n < 12:
			op = "delete"
			k := key()
			if held := st.LocalItems(); len(held) > 0 && rnd.Intn(4) > 0 {
				k = held[rnd.Intn(len(held))].Key
			}
			_, _ = st.handleDelete("c", deleteReq{Key: k})
		case n == 12:
			op = "carve"
			if span := rng.Size() - 1; span > 0 {
				self.SetVal(rng.Lo + keyspace.Key(1+rnd.Int63n(int64(span))))
				st.PrepareJoinData(ring.Node{Addr: "new"})
			}
		case n == 13 && roomBelow:
			op = "merge-in"
			lo := rng.Lo - keyspace.Key(1+rnd.Intn(30))
			var items []Item
			for k := lo + 1; k <= rng.Lo; k += keyspace.Key(1 + rnd.Intn(5)) {
				items = append(items, Item{Key: k, Payload: payload()})
			}
			_, _ = st.handleMergeIn("pred", mergeInReq{From: ring.Node{Addr: "pred", Val: rng.Lo},
				Range: keyspace.NewRange(lo, rng.Lo), Epoch: epoch + 1, Items: items})
		case n == 14 && roomBelow:
			op = "revival"
			var held []Item
			for i := 0; i < 10; i++ {
				held = append(held, Item{Key: key(), Payload: payload()})
			}
			st.rep.(*fakeRep).revive = held
			st.OnPredChanged(ring.Node{Addr: "newpred", Val: rng.Lo - keyspace.Key(1+rnd.Intn(30))},
				ring.Node{Addr: "pred", Val: rng.Lo}, true)
		case n == 15:
			op = "step-down"
			st.StepDown(rng, epoch)
		case n == 16:
			// A bare range change leaves items outside the range: the feed
			// must clip them away, and report them gone when they change.
			op = "set-range"
			lo := max(rng.Lo+keyspace.Key(rnd.Intn(41)), 20) - 20
			st.SetRangeForTesting(keyspace.NewRange(min(lo, rng.Hi-1), rng.Hi))
		case n == 17:
			op = "set-epoch"
			st.SetEpochForTesting(epoch + 1)
		case n == 18:
			// A key outside the range changes with the range standing still
			// (what a set-range leaves behind): the feed must not report it
			// present.
			op = "touch-outside"
			k := rng.Hi + keyspace.Key(1+rnd.Intn(20))
			st.mu.Lock()
			_ = st.applyLocked(itemChange{items: []Item{{Key: k, Payload: payload()}}, del: rnd.Intn(2) == 0, wal: walSkip})
			st.mu.Unlock()
		default:
			op = "take"
		}
		if op == "take" || rnd.Intn(3) == 0 {
			take(step, op)
		}
	}
	take(steps, "final")
	if takes < steps/10 {
		t.Fatalf("only %d takes found a range in %d steps", takes, steps)
	}
}
