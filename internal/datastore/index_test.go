package datastore

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/keyspace"
	"repro/internal/ring"
)

// The key-ordered index against the map it is kept beside: whatever changed
// the item set — puts and deletes of one key or many (repeats included), a
// carve, a step-down — the index must hold exactly the map's items in key
// order; itemsInLocked must equal filtering the map by the interval and
// sorting, for intervals open or closed at either end, empty ones included;
// and sortedItemsLocked must equal sorting the map clockwise from the range
// start, for ranges that wrap too. Seeded, driven directly on a lone store,
// no sleeps.
func TestItemsInMatchesFilterAndSort(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkIndexAgainstMap(t, rand.New(rand.NewSource(seed)), 300)
		})
	}
}

func checkIndexAgainstMap(t *testing.T, rnd *rand.Rand, steps int) {
	h, st := loneStore(t, newRecBackend(), 0)
	st.SetDeps(&fakeRep{}, nil)
	joinAs100to200(t, st)
	self := h.rings[st.Addr()]
	// key favours the ends of the key space, where an off-by-one in a bound
	// or a wrap shows.
	key := func() keyspace.Key {
		switch rnd.Intn(4) {
		case 0:
			return keyspace.Key(rnd.Intn(4))
		case 1:
			return keyspace.MaxKey - keyspace.Key(rnd.Intn(4))
		}
		return keyspace.Key(rnd.Intn(300))
	}
	batch := func() []Item {
		items := make([]Item, 1+rnd.Intn(3)*rnd.Intn(6))
		for i := range items {
			items[i] = Item{Key: key(), Payload: fmt.Sprintf("p%d", rnd.Intn(100))}
		}
		return items
	}
	mapItems := func() []Item {
		var out []Item
		for _, it := range st.items {
			out = append(out, it)
		}
		return out
	}

	for step := 0; step < steps; step++ {
		var op string
		switch n := rnd.Intn(12); {
		case n < 5:
			op = "put"
			st.mu.Lock()
			_ = st.applyLocked(itemChange{items: batch(), wal: walSkip})
			st.mu.Unlock()
		case n < 9:
			op = "delete"
			items := batch()
			st.mu.Lock()
			if len(st.index) > 0 && rnd.Intn(3) > 0 {
				items = append(items, st.index[rnd.Intn(len(st.index))])
			}
			_ = st.applyLocked(itemChange{items: items, del: true, wal: walSkip})
			st.mu.Unlock()
		case n == 9:
			op = "carve"
			if rng, _, has := st.RangeEpoch(); has && !rng.IsFull() && rng.Lo < rng.Hi && rng.Size() > 1 {
				self.SetVal(rng.Lo + keyspace.Key(1+rnd.Int63n(int64(rng.Size()-1))))
				st.PrepareJoinData(ring.Node{Addr: "new"})
			}
		case n == 10:
			op = "step-down"
			if rng, epoch, has := st.RangeEpoch(); has {
				st.StepDown(rng, epoch)
			}
		default:
			op = "rejoin"
			if _, epoch, has := st.RangeEpoch(); !has {
				lo := keyspace.Key(rnd.Intn(200))
				hi := lo + keyspace.Key(1+rnd.Intn(100))
				self.SetVal(hi)
				st.OnJoined(ring.Node{Addr: st.Addr(), Val: hi}, ring.Node{Addr: "pred", Val: lo},
					joinData{Range: keyspace.NewRange(lo, hi), Epoch: epoch + uint64(step) + 1, Items: batch()})
			}
		}

		st.mu.Lock()
		want := mapItems()
		slices.SortFunc(want, func(a, b Item) int { return cmp.Compare(a.Key, b.Key) })
		if !equalItems(st.index, want) {
			st.mu.Unlock()
			t.Fatalf("step %d (%s): index holds %v, the map %v", step, op, st.index, want)
		}
		for i := 0; i < 20; i++ {
			lb, ub := key(), key()
			if rnd.Intn(4) > 0 && lb > ub {
				lb, ub = ub, lb
			}
			iv := keyspace.Interval{Lb: lb, Ub: ub, LbOpen: rnd.Intn(2) == 0, UbOpen: rnd.Intn(2) == 0}
			var filtered []Item
			for _, it := range want {
				if iv.Contains(it.Key) {
					filtered = append(filtered, it)
				}
			}
			if got := st.itemsInLocked(iv); !equalItems(got, filtered) || cap(got) != len(got) {
				st.mu.Unlock()
				t.Fatalf("step %d (%s): itemsInLocked(%v) = %v, filter-and-sort %v", step, op, iv, got, filtered)
			}
		}
		saved := st.rng
		for i := 0; i < 5; i++ {
			lo := key()
			st.rng = keyspace.NewRange(lo, lo-keyspace.Key(1+rnd.Intn(10))) // wraps unless lo is small
			clockwise := mapItems()
			slices.SortFunc(clockwise, func(a, b Item) int {
				return cmp.Compare(keyspace.Dist(lo, a.Key), keyspace.Dist(lo, b.Key))
			})
			if got := st.sortedItemsLocked(); !equalItems(got, clockwise) {
				st.rng = saved
				st.mu.Unlock()
				t.Fatalf("step %d (%s): sortedItemsLocked from %d = %v, the clockwise sort %v", step, op, lo, got, clockwise)
			}
		}
		st.rng = saved
		st.mu.Unlock()
	}
}

// equalItems compares item slices, a nil one equal to an empty one.
func equalItems(a, b []Item) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
