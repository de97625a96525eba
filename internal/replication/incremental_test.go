package replication

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/ring"
	"repro/internal/transport"
)

// Both ends of the push protocol keep O(change) state that a full walk could
// recompute. These tests recompute it after every step and require equality:
// the holder's per-origin summaries against summaryLocked's walk, and the
// origin's incremental set against advance, the full-snapshot diff it
// replaced. Seeded, driven directly, no sleeps.

// advance is the origin's reference step: move o to the item set items (the
// Data Store's, inside the range) by diffing it against o.set, and return the
// delta. It is what refresh did before the change feed, kept as the oracle
// originState.apply must match.
func (o *originState) advance(items []datastore.Item) (base uint64, puts []datastore.Item, dels []keyspace.Key) {
	base = o.version
	live := make(map[keyspace.Key]struct{}, len(items))
	for _, it := range items {
		live[it.Key] = struct{}{}
		if prev, ok := o.set[it.Key]; ok {
			if prev.Payload == it.Payload {
				continue
			}
			o.digest -= prev.sum
		}
		r := newReplica(it)
		o.set[it.Key] = r
		o.digest += r.sum
		puts = append(puts, it)
	}
	for k, r := range o.set {
		if _, ok := live[k]; !ok {
			delete(o.set, k)
			o.digest -= r.sum
			dels = append(dels, k)
		}
	}
	if len(puts)+len(dels) > 0 {
		o.version++
	}
	return base, puts, dels
}

func sortedItems(items []datastore.Item) []datastore.Item {
	out := slices.Clone(items)
	slices.SortFunc(out, func(a, b datastore.Item) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

func sortedKeys(keys []keyspace.Key) []keyspace.Key {
	out := slices.Clone(keys)
	slices.Sort(out)
	return out
}

// The origin applies the change feed — the keys touched since the last take,
// present or gone, some touched without changing — and must end every step
// exactly where advance over the full snapshot ends: same set, digest and
// version, same puts and deletes.
func TestOriginApplyMatchesAdvance(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		fresh := func(version uint64) originState {
			return originState{version: version, set: make(map[keyspace.Key]replica)}
		}
		inc, ref := fresh(1), fresh(1)
		store := map[keyspace.Key]string{} // the Data Store's item set
		for step := 0; step < 300; step++ {
			var ch datastore.Changes
			if rnd.Intn(25) == 0 {
				// A new incarnation: both sides restart from the empty set
				// and the take is the whole set.
				inc, ref = fresh(inc.version+1), fresh(ref.version+1)
				ch.Full = true
				for k, p := range store {
					ch.Items = append(ch.Items, datastore.Item{Key: k, Payload: p})
				}
			} else {
				dirty := map[keyspace.Key]struct{}{}
				for i := rnd.Intn(6); i > 0; i-- {
					k := keyspace.Key(rnd.Intn(60))
					dirty[k] = struct{}{}
					switch rnd.Intn(4) {
					case 0:
						delete(store, k)
					case 1:
						// touched, unchanged: a re-insert of the same payload,
						// or a delete of an absent key
					default:
						store[k] = fmt.Sprintf("p%d", rnd.Intn(3))
					}
				}
				for k := range dirty {
					if p, ok := store[k]; ok {
						ch.Items = append(ch.Items, datastore.Item{Key: k, Payload: p})
					} else {
						ch.Gone = append(ch.Gone, k)
					}
				}
			}
			snapshot := make([]datastore.Item, 0, len(store))
			for k, p := range store {
				snapshot = append(snapshot, datastore.Item{Key: k, Payload: p})
			}
			base, puts, dels := inc.apply(ch.Items, ch.Gone)
			rbase, rputs, rdels := ref.advance(snapshot)
			where := fmt.Sprintf("seed %d step %d", seed, step)
			if base != rbase || inc.version != ref.version || inc.digest != ref.digest || len(inc.set) != len(ref.set) {
				t.Fatalf("%s: incremental base %d version %d digest %x |set| %d; advance %d %d %x %d",
					where, base, inc.version, inc.digest, len(inc.set), rbase, ref.version, ref.digest, len(ref.set))
			}
			for k, r := range ref.set {
				if got, ok := inc.set[k]; !ok || got != r {
					t.Fatalf("%s: key %d: incremental %+v (held %v), advance %+v", where, k, got, ok, r)
				}
			}
			if got, want := sortedItems(puts), sortedItems(rputs); !slices.Equal(got, want) {
				t.Fatalf("%s: puts %v, advance %v", where, got, want)
			}
			if got, want := sortedKeys(dels), sortedKeys(rdels); !slices.Equal(got, want) {
				t.Fatalf("%s: dels %v, advance %v", where, got, want)
			}
			if got, want := sortedItems(inc.items()), sortedItems(snapshot); !slices.Equal(got, want) {
				t.Fatalf("%s: full push items %v, store %v", where, got, want)
			}
		}
	}
}

// The holder's per-origin (count, digest) is moved by every replica put,
// replaced or deleted, and walked afresh only for a new origin or range.
// Random full, delta, heartbeat and epoch-0 pushes from four origins whose
// ranges move and overlap (so higher epochs prune adverts) must leave every
// cached summary equal to the walk over its range after every push.
func TestHolderSummaryMatchesWalk(t *testing.T) {
	h := newRepHarness(t)
	holder, _, _ := h.addPeer(Config{Factor: 2, DisableAutoRefresh: true})
	for seed := int64(1); seed <= 8; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		type origin struct {
			node    ring.Node
			rng     keyspace.Range
			epoch   uint64
			version uint64
		}
		origins := make([]*origin, 4)
		for i := range origins {
			lo := keyspace.Key(100 * i)
			origins[i] = &origin{node: ring.Node{Addr: transport.Addr(fmt.Sprintf("o%d-%d", seed, i))},
				rng: keyspace.NewRange(lo, lo+100), epoch: uint64(1 + rnd.Intn(3))}
		}
		kinds := map[string]int{}
		for step := 0; step < 400; step++ {
			o := origins[rnd.Intn(len(origins))]
			switch rnd.Intn(12) {
			case 0: // a new range, overlapping a neighbour's now and then
				lo := keyspace.Key(rnd.Intn(380))
				o.rng, o.epoch = keyspace.NewRange(lo, lo+keyspace.Key(1+rnd.Intn(120))), o.epoch+1
			case 1:
				o.epoch++
			case 2: // a straggler from an older incarnation
				if o.epoch > 1 {
					o.epoch--
				}
			}
			key := func() keyspace.Key { return o.rng.Lo + 1 + keyspace.Key(rnd.Intn(int(o.rng.Size()))) }
			item := func(k keyspace.Key) datastore.Item {
				return datastore.Item{Key: k, Payload: fmt.Sprintf("p%d", rnd.Intn(3))}
			}
			msg := pushMsg{From: o.node, Range: o.rng, Epoch: o.epoch, Version: o.version + 1}
			switch kind := rnd.Intn(4); kind {
			case 0:
				kinds["full"]++
				msg.Full = true
				for i := rnd.Intn(12); i > 0; i-- {
					msg.Items = append(msg.Items, item(key()))
				}
			case 1:
				kinds["delta"]++
				holder.mu.Lock()
				msg.Base = holder.adverts[o.node.Addr].Version
				holder.mu.Unlock()
				for i := rnd.Intn(4); i > 0; i-- {
					msg.Items = append(msg.Items, item(key()))
				}
				for i := rnd.Intn(3); i > 0; i-- {
					msg.Deletes = append(msg.Deletes, key())
				}
			case 2:
				kinds["heartbeat"]++
				msg.Version = o.version
				holder.mu.Lock()
				msg.Base = holder.adverts[o.node.Addr].Version
				holder.mu.Unlock()
			case 3:
				kinds["epoch-0"]++
				msg = pushMsg{From: o.node}
				for i := rnd.Intn(6); i > 0; i-- {
					msg.Items = append(msg.Items, item(keyspace.Key(rnd.Intn(500))))
				}
			}
			// What the holder will hold inside the range if the push applies,
			// so most pushes pass the check and record a version, and deltas
			// then find their base.
			msg.Count, msg.Digest = expectedSummary(holder, msg)
			if rnd.Intn(8) == 0 {
				msg.Digest++
			}
			if _, err := holder.handlePush(o.node.Addr, msg); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if msg.Epoch != 0 {
				o.version = msg.Version
			}
			holder.mu.Lock()
			if msg.Epoch != 0 && !msg.Full && msg.Base != 0 && holder.adverts[o.node.Addr].Version == msg.Version {
				kinds["delta applied"]++
			}
			for from, sum := range holder.sums {
				a, ok := holder.adverts[from]
				if !ok || a.Range != sum.rng {
					t.Fatalf("seed %d step %d: summary for %s over %v, advert %v (held %v)", seed, step, from, sum.rng, a.Range, ok)
				}
				if walk := holder.summaryLocked(sum.rng); *walk != *sum {
					t.Fatalf("seed %d step %d: cached summary for %s is %+v, the walk %+v", seed, step, from, *sum, *walk)
				}
			}
			for from := range holder.adverts {
				if holder.sums[from] == nil {
					t.Fatalf("seed %d step %d: advert from %s has no summary", seed, step, from)
				}
			}
			holder.mu.Unlock()
		}
		for _, kind := range []string{"full", "delta", "heartbeat", "epoch-0", "delta applied"} {
			if kinds[kind] == 0 {
				t.Fatalf("seed %d sent no %s push", seed, kind)
			}
		}
	}
	if holder.ReplicaCount() == 0 {
		t.Fatal("the holder ended with no replicas: the pushes applied nothing")
	}
}

// expectedSummary is the count and digest of what holder holds inside
// msg.Range once msg is applied as a full set or a delta.
func expectedSummary(holder *Manager, msg pushMsg) (int, uint64) {
	holder.mu.Lock()
	defer holder.mu.Unlock()
	held := map[keyspace.Key]replica{}
	if !msg.Full {
		for k, r := range holder.replicas {
			if msg.Range.Contains(k) {
				held[k] = r
			}
		}
		for _, k := range msg.Deletes {
			delete(held, k)
		}
	}
	for _, it := range msg.Items {
		held[it.Key] = newReplica(it)
	}
	count, digest := 0, uint64(0)
	for k, r := range held {
		if msg.Range.Contains(k) {
			count++
			digest += r.sum
		}
	}
	return count, digest
}
