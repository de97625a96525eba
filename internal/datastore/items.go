package datastore

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/history"
	"repro/internal/keyspace"
	"repro/internal/storage"
	"repro/internal/transport"
)

// --- The item-set seam --------------------------------------------------------

// walMode says what a change writes ahead and what a refused append means.
type walMode uint8

const (
	// walRefuse is a client mutation: its record must be in the log before
	// the requester sees an acknowledgment (up to the backend's sync-interval
	// batching), so a refused append refuses the change.
	walRefuse walMode = iota
	// walDegrade is a hand-off install: membership protocols cannot abort
	// halfway through, so an append error degrades durability, not serving.
	walDegrade
	// walSkip writes nothing because the log already says it: items leaving
	// with a carve or a release are pruned by that claim or release record's
	// replay (see storage.RecClaim), and a recovery installs exactly what the
	// backend just replayed.
	walSkip
)

// journalFunc emits the history event of one changed item. A nil journalFunc
// emits nothing: the other end of the hand-off journals the move.
type journalFunc func(l *history.Log, self string, key keyspace.Key)

func added(l *history.Log, self string, key keyspace.Key)   { l.Added(self, key) }
func removed(l *history.Log, self string, key keyspace.Key) { l.Removed(self, key) }
func movedFrom(peer transport.Addr) journalFunc {
	return func(l *history.Log, self string, key keyspace.Key) { l.Moved(string(peer), self, key) }
}
func movedTo(peer transport.Addr) journalFunc {
	return func(l *history.Log, self string, key keyspace.Key) { l.Moved(self, string(peer), key) }
}

// itemChange is one change to the item set: items installed (upserts) or,
// with del, removed (only their keys are read).
type itemChange struct {
	items   []Item
	del     bool
	wal     walMode
	journal journalFunc
}

// applyLocked is the only place the item set changes: client mutations, both
// sides of every hand-off, revival, recovery and step-down differ only in
// which items, which history event and what an append error means. Callers
// hold s.mu — the lock scan piece snapshots are taken under — and have
// installed the incarnation the change belongs to: records are stamped with
// s.epoch, and replay drops a put whose epoch is not the live one, so a
// hand-off appends its claim (and lease) before its items.
//
// The change's records reach the backend as ONE batch — one write, one fsync,
// however many items — then the map and its key-ordered index move, then the
// history log, all in this critical section, so WAL order = journal order =
// the order scans observe. Journaling after the unlock could sequence a
// mutation after a query that already saw its effect, and the Definition 4
// checker would flag a phantom violation. An empty change touches nothing, the backend included. Every
// key it touches is marked for the change feed (TakeChanges).
func (s *Store) applyLocked(c itemChange) error {
	if len(c.items) == 0 {
		return nil
	}
	if c.wal != walSkip {
		kind := storage.RecPut
		if c.del {
			kind = storage.RecDelete
		}
		recs := make([]storage.Record, len(c.items))
		for i, it := range c.items {
			recs[i] = storage.Record{Kind: kind, Epoch: s.epoch, Key: it.Key, Payload: it.Payload}
		}
		if err := s.backend.AppendBatch(recs); err != nil && c.wal == walRefuse {
			return err
		}
	}
	self := string(s.ring.Self().Addr)
	var (
		fresh []keyspace.Key // keys the change added to s.items, not yet in s.index
		gone  int            // keys it deleted from s.items, still in s.index
		last  keyspace.Key   // the last of those
	)
	for _, it := range c.items {
		if s.fed {
			if s.dirty == nil {
				s.dirty = make(map[keyspace.Key]struct{})
			}
			s.dirty[it.Key] = struct{}{}
		}
		_, held := s.items[it.Key]
		switch {
		case c.del && held:
			delete(s.items, it.Key)
			gone, last = gone+1, it.Key
		case c.del:
		case !held:
			s.items[it.Key] = it
			fresh = append(fresh, it.Key)
		default:
			s.items[it.Key] = it
			// A key added earlier in this change is not in the index yet;
			// the merge below reads its final value from the map.
			if i, found := s.indexOf(it.Key); found {
				s.index[i] = it
			}
		}
		if c.journal != nil {
			c.journal(s.log, self, it.Key)
		}
	}
	s.indexDeleted(gone, last)
	s.indexAdded(fresh)
	return nil
}

// indexOf finds key in s.index: its position, or where it would go.
func (s *Store) indexOf(key keyspace.Key) (int, bool) {
	return slices.BinarySearchFunc(s.index, key, func(it Item, k keyspace.Key) int { return cmp.Compare(it.Key, k) })
}

// indexDeleted drops from s.index the n keys applyLocked just deleted from
// s.items, the last of which is last: one by binary search, more in one pass.
func (s *Store) indexDeleted(n int, last keyspace.Key) {
	switch n {
	case 0:
	case 1:
		i, _ := s.indexOf(last)
		s.index = slices.Delete(s.index, i, i+1)
	default:
		s.index = slices.DeleteFunc(s.index, func(it Item) bool {
			_, held := s.items[it.Key]
			return !held
		})
	}
}

// indexAdded merges into s.index the keys applyLocked just added to s.items,
// with their items: one by binary search, more by sorting them and merging.
func (s *Store) indexAdded(fresh []keyspace.Key) {
	switch len(fresh) {
	case 0:
		return
	case 1:
		i, _ := s.indexOf(fresh[0])
		s.index = slices.Insert(s.index, i, s.items[fresh[0]])
		return
	}
	slices.Sort(fresh)
	merged := make([]Item, 0, len(s.index)+len(fresh))
	old := s.index
	for len(old) > 0 && len(fresh) > 0 {
		if old[0].Key < fresh[0] {
			merged, old = append(merged, old[0]), old[1:]
		} else {
			merged, fresh = append(merged, s.items[fresh[0]]), fresh[1:]
		}
	}
	merged = append(merged, old...)
	for _, k := range fresh {
		merged = append(merged, s.items[k])
	}
	s.index = merged
}

// replicate asks the Replication Manager to refresh the replicas soon.
// Called after s.mu is released, like itemsChanged.
func (s *Store) replicate() {
	if s.rep != nil {
		s.rep.ItemsChanged()
	}
}

// itemsChanged tells the layers that follow the item set that it moved:
// replicas should be refreshed soon and the balance loop should look again.
// The steps of a balance operation itself — a carve, a join or redistribute
// install — only replicate: the loop that runs them paces the next operation
// by CheckPeriod, and a peer that is mid-join must not start a split of its
// own before its ring layer has finished joining.
func (s *Store) itemsChanged() {
	s.replicate()
	s.maint.Kick()
}

// Changes is what the item set did since the previous TakeChanges: either the
// whole set (Full) or the keys that changed, split into the items now present
// and the keys now gone. Items holds only keys inside Range; a changed key
// outside it is reported in Gone, since a view clipped to Range lacks it.
type Changes struct {
	Range keyspace.Range
	Epoch uint64
	// Full: Items is the whole item set inside Range and Gone is empty. A take
	// is full when it is the first, when the previous one found no range, or
	// when (Range, Epoch) moved since the previous one.
	Full  bool
	Items []Item
	Gone  []keyspace.Key
}

// TakeChanges returns, under one s.mu, the range, the epoch and what changed
// in the item set since the previous take, and starts the next interval. It
// has one consumer, the Replication Manager's refresh: a view that applies
// every take in order equals the item set clipped to the range. ok is false
// when the peer serves no range; the next take is then full.
func (s *Store) TakeChanges() (ch Changes, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	moved := !s.fed || s.fedRng != s.rng || s.fedEpoch != s.epoch
	s.fed, s.fedRng, s.fedEpoch = s.hasRange, s.rng, s.epoch
	if !s.hasRange || moved {
		// A full take needs none of the dirty keys, and after a hand-off they
		// may be a whole range's worth: let the map go.
		s.dirty = nil
	}
	if !s.hasRange {
		return Changes{}, false
	}
	ch = Changes{Range: s.rng, Epoch: s.epoch, Full: moved}
	if moved {
		ch.Items = make([]Item, 0, len(s.items))
		for k, it := range s.items {
			if s.rng.Contains(k) {
				ch.Items = append(ch.Items, it)
			}
		}
		return ch, true
	}
	for k := range s.dirty {
		if it, held := s.items[k]; held && s.rng.Contains(k) {
			ch.Items = append(ch.Items, it)
		} else {
			ch.Gone = append(ch.Gone, k)
		}
	}
	clear(s.dirty)
	return ch, true
}

// LocalItems returns a sorted snapshot of the peer's items (getLocalItems).
func (s *Store) LocalItems() []Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sortedItemsLocked()
}

// ItemCount returns the number of locally stored items.
func (s *Store) ItemCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// sortedItemsLocked returns items sorted clockwise from the range start: the
// index rotated to begin at the first key at or above rng.Lo.
func (s *Store) sortedItemsLocked() []Item {
	i, _ := s.indexOf(s.rng.Lo)
	out := make([]Item, 0, len(s.index))
	return append(append(out, s.index[i:]...), s.index[:i]...)
}

// itemsInLocked returns the items whose keys satisfy iv, in key order, in a
// slice of their exact number (nil when there are none). Callers hold s.mu.
func (s *Store) itemsInLocked(iv keyspace.Interval) []Item {
	if !iv.Valid() {
		return nil
	}
	lo, _ := s.indexOf(iv.First())
	hi, found := s.indexOf(iv.Last())
	if found {
		hi++
	}
	if lo >= hi {
		return nil
	}
	out := make([]Item, hi-lo)
	copy(out, s.index[lo:hi])
	return out
}

// --- insertItem / deleteItem, the owner side -----------------------------------

// Mutation requests carry the ownership epoch the requester believes current
// (from the owner-lookup cache); 0 means unfenced — the requester has no
// epoch information and relies on the owns-check alone. A non-zero epoch
// other than the serving peer's current one is rejected with ErrStaleEpoch:
// either the requester's route is stale (lower epoch — refetch), or the
// serving peer itself has been deposed by a higher incarnation the requester
// already knows about (higher epoch — this peer must not accept writes for a
// range it provably no longer owns).
type insertReq struct {
	Item  Item
	Epoch uint64
}
type deleteReq struct {
	Key   keyspace.Key
	Epoch uint64
}

// Mutation replies carry the serving peer's ownership metadata so the sender
// can prime its route cache from every write, not just from lookups and
// scans.
type insertResp struct{ OwnerMeta }
type deleteResp struct {
	Found bool
	OwnerMeta
}

// checkEpochLocked applies the fencing rule. Callers hold s.mu.
func (s *Store) checkEpochLocked(reqEpoch uint64) error {
	if reqEpoch != 0 && reqEpoch != s.epoch {
		s.StaleEpochRejects.Add(1)
		return fmt.Errorf("%w: request epoch %d, serving epoch %d", ErrStaleEpoch, reqEpoch, s.epoch)
	}
	return nil
}

// mutate is the owner side of a client mutation on key: validate ownership
// and the request's epoch under the range read lock — it keeps the boundary
// stable while we decide; concurrent scans are fine (shared mode) — apply
// the change decide returns (called under s.mu; empty when there is nothing
// to do), and report this peer's ownership facts for the reply. changed is
// false when nothing was applied.
func (s *Store) mutate(key keyspace.Key, reqEpoch uint64, decide func() itemChange) (changed bool, meta OwnerMeta, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.CallTimeout)
	defer cancel()
	if err := s.rangeLock.RLock(ctx); err != nil {
		return false, OwnerMeta{}, ErrLockBusy
	}
	defer s.rangeLock.RUnlock()
	s.mu.Lock()
	if !s.hasRange || !s.rng.Contains(key) {
		s.mu.Unlock()
		return false, OwnerMeta{}, ErrNotOwner
	}
	if err := s.checkEpochLocked(reqEpoch); err != nil {
		s.mu.Unlock()
		return false, OwnerMeta{}, err
	}
	c := decide()
	if err := s.applyLocked(c); err != nil {
		s.mu.Unlock()
		return false, OwnerMeta{}, err
	}
	meta = OwnerMeta{Range: s.rng, Epoch: s.epoch}
	s.mu.Unlock()
	meta.Chain = s.ring.Successors()
	changed = len(c.items) > 0
	if changed {
		s.itemsChanged()
	}
	return changed, meta, nil
}

// handleInsert stores an item this peer owns (the owner side of insertItem).
func (s *Store) handleInsert(_ transport.Addr, req insertReq) (insertResp, error) {
	_, meta, err := s.mutate(req.Item.Key, req.Epoch, func() itemChange {
		return itemChange{items: []Item{req.Item}, journal: added}
	})
	return insertResp{OwnerMeta: meta}, err
}

// handleDelete removes an item this peer owns; deleting a key it does not
// hold changes (and writes) nothing.
func (s *Store) handleDelete(_ transport.Addr, req deleteReq) (deleteResp, error) {
	found, meta, err := s.mutate(req.Key, req.Epoch, func() itemChange {
		if _, held := s.items[req.Key]; !held {
			return itemChange{}
		}
		return itemChange{items: []Item{{Key: req.Key}}, del: true, journal: removed}
	})
	return deleteResp{Found: found, OwnerMeta: meta}, err
}
