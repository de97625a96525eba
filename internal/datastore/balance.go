package datastore

import (
	"context"
	"fmt"
	"time"

	"repro/internal/keyspace"
	"repro/internal/ring"
)

// joinData is the payload carried by the ring's INSERT/INSERTED events
// during a split: the carved-off range and items for the new peer, plus the
// ownership epoch the new peer claims it at (strictly above the splitter's
// pre-split epoch, so the hand-off fences the old incarnation). Ok
// distinguishes a real hand-off from a failed carve (a zero Range would
// otherwise read as the full ring).
type joinData struct {
	Ok    bool
	Range keyspace.Range
	Epoch uint64
	Items []Item
}

// CheckBalance runs one balancing decision; exported so tests and the bench
// harness can drive maintenance deterministically.
func (s *Store) CheckBalance() {
	if s.ring.State() != ring.StateJoined {
		return
	}
	s.mu.Lock()
	if !s.hasRange {
		s.mu.Unlock()
		return
	}
	n := len(s.items)
	full := s.rng.IsFull()
	s.mu.Unlock()

	sf := s.cfg.StorageFactor
	switch {
	case n > 2*sf:
		_ = s.split() // no free peer or ring busy: try again on the next wakeup
	case n < sf && !full:
		_ = s.underflow()
	}
}

// split carves the upper half of this peer's range off to a free peer: the
// splitting peer lowers its own ring value to the split point and inserts
// the free peer — carrying the old value and the upper half of the items —
// as its immediate successor via the PEPPER insertSucc protocol
// (Sections 2.3 and 4.3.1).
func (s *Store) split() error {
	if !s.maintMu.TryLock() {
		return ErrMaintBusy
	}
	defer s.maintMu.Unlock()
	if s.pool == nil {
		return fmt.Errorf("datastore: no free pool configured")
	}

	s.mu.Lock()
	if !s.hasRange || len(s.items) < 2 {
		s.mu.Unlock()
		return nil
	}
	sorted := s.sortedItemsLocked()
	oldHi := s.rng.Hi
	s.mu.Unlock()

	// Split point: the key of the median item; this peer keeps the lower
	// half (lo, m], the new peer takes (m, oldHi]. If the median item sits
	// exactly on the boundary (keys are unique, so at most one does), step
	// one item down.
	mid := (len(sorted) - 1) / 2
	m := sorted[mid].Key
	if m == oldHi {
		if mid == 0 {
			return nil
		}
		m = sorted[mid-1].Key
	}

	addr, err := s.pool.Acquire()
	if err != nil {
		return fmt.Errorf("datastore: no free peer available: %w", err)
	}
	newNode := ring.Node{Addr: addr, Val: oldHi}

	// Lower our own ring value to the split point, then run the insert; the
	// actual data hand-off happens in PrepareJoinData once the PEPPER ack
	// arrives, so we keep serving the full range until then.
	s.ring.SetVal(m)
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.MaintenanceTimeout)
	defer cancel()
	start := time.Now()
	if err := s.ring.InsertSucc(ctx, newNode); err != nil {
		s.ring.SetVal(oldHi)
		s.pool.Release(newNode.Addr)
		return fmt.Errorf("datastore: split insert failed: %w", err)
	}
	if s.cfg.InsertSuccRecorder != nil {
		s.cfg.InsertSuccRecorder.Observe(time.Since(start))
	}
	s.Splits.Add(1)
	return nil
}

// PrepareJoinData is the ring INSERT event (Algorithm 10): carve the upper
// half of the range and items for the joining peer, under the range write
// lock so no scan is in flight across the moving boundary.
func (s *Store) PrepareJoinData(joining ring.Node) any {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.MaintenanceTimeout)
	defer cancel()
	if err := s.rangeLock.Lock(ctx); err != nil {
		// Hand over an empty payload; the joining peer will abort scans and
		// the balance loop will rebalance later. This should effectively not
		// happen: scans release locks quickly.
		return joinData{}
	}
	defer s.rangeLock.Unlock()

	self := s.ring.Self() // value already lowered to the split point m
	s.mu.Lock()
	if !s.hasRange {
		s.mu.Unlock()
		return joinData{}
	}
	low, high, ok := s.rng.SplitAt(self.Val)
	if !ok {
		s.mu.Unlock()
		return joinData{}
	}
	// Both halves are new ownership incarnations at epoch+1: each strictly
	// supersedes the pre-split claim over the keys it keeps, so requests
	// fenced with the old epoch fail fast instead of racing the boundary.
	newEpoch := s.epoch + 1
	var moved []Item
	for k, it := range s.items {
		if high.Contains(k) {
			moved = append(moved, it)
		}
	}
	// Nothing is written per item: the shrunken claim's replay prunes them.
	_ = s.applyLocked(itemChange{items: moved, del: true, wal: walSkip, journal: movedTo(joining.Addr)})
	s.claimLocked(low, newEpoch)
	s.mu.Unlock()

	s.replicate()
	return joinData{Ok: true, Range: high, Epoch: newEpoch, Items: moved}
}

// OnJoined is the ring INSERTED event at the joining peer: install the
// received range and items and begin serving. A nil payload means this peer
// was adopted as an orphan after its inserter failed; it reconstructs its
// state from the predecessor value and pulls replicas from its successors.
func (s *Store) OnJoined(self ring.Node, pred ring.Node, data any) {
	if jd, ok := data.(joinData); ok && jd.Ok {
		// Claim first, then the items under the claimed epoch (the order
		// replay needs), so a crash right after the join recovers them. The
		// splitter journaled the moves as it carved.
		s.mu.Lock()
		s.claimLocked(jd.Range, jd.Epoch)
		_ = s.applyLocked(itemChange{items: jd.Items, wal: walDegrade})
		s.mu.Unlock()
		s.replicate()
		s.Start()
		return
	}
	if data == nil && pred.Addr != "" && pred.Addr != self.Addr {
		// Orphan adoption: we own (pred.val, self.val] but hold nothing.
		s.adoptOrphanRange(keyspace.NewRange(pred.Val, self.Val))
		s.Start()
		return
	}
	// First peer of the ring.
	if pred.Addr == self.Addr {
		s.InitFirstPeer()
		s.Start()
	}
}
