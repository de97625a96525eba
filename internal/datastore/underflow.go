package datastore

import (
	"context"
	"fmt"
	"time"

	"repro/internal/keyspace"
	"repro/internal/ring"
	"repro/internal/transport"
)

// Underflow: redistribute with the successor, or merge into it (Section 2.3).

type rebalanceReq struct {
	From      ring.Node // the underflowing peer (our predecessor)
	FromCount int
}

type rebalanceResp struct {
	Redistribute bool
	Items        []Item       // for redistribute: the successor's lowest items
	NewBoundary  keyspace.Key // the underflowing peer's new upper bound / value
	Epoch        uint64       // for redistribute: the successor's post-shrink epoch
	Merge        bool         // the underflowing peer should merge into us
}

type mergeInReq struct {
	From  ring.Node
	Range keyspace.Range
	Epoch uint64 // the merging peer's ownership epoch at hand-off
	Items []Item
}

// underflow handles len(items) < sf: ask the successor to redistribute; if
// the combined load would still underflow one of us, merge into it instead
// (Section 2.3).
func (s *Store) underflow() error {
	if !s.maintMu.TryLock() {
		return ErrMaintBusy
	}
	defer s.maintMu.Unlock()

	succ, ok := s.ring.FirstStabilizedSuccessor()
	if !ok || succ.Addr == s.Addr() {
		return ErrNoSucc
	}
	self := s.ring.Self()
	s.mu.Lock()
	count := len(s.items)
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.MaintenanceTimeout)
	defer cancel()
	// Bulk call: a redistribution answer carries half the successor's items,
	// which may not fit one transport frame.
	rb, err := methodRebalance.CallBulk(ctx, s.net, self.Addr, succ.Addr, rebalanceReq{From: self, FromCount: count})
	if err != nil {
		return err
	}
	switch {
	case rb.Redistribute:
		return s.applyRedistribute(ctx, rb)
	case rb.Merge:
		return s.mergeIntoSuccessor(ctx, succ)
	default:
		return nil // successor declined (busy); retry later
	}
}

// handleRebalance runs at the successor of an underflowing peer and decides
// between redistribution (we can spare items) and merge (combined load fits
// in one peer). For a redistribution it carves its lowest items under the
// range write lock and shrinks its range upward before replying, so there is
// never a moment where both peers claim the boundary region.
func (s *Store) handleRebalance(from transport.Addr, req rebalanceReq) (rebalanceResp, error) {
	if !s.maintMu.TryLock() {
		return rebalanceResp{}, nil // busy: caller retries later
	}
	defer s.maintMu.Unlock()
	if s.ring.State() != ring.StateJoined {
		return rebalanceResp{}, nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.CallTimeout*4)
	defer cancel()

	s.mu.Lock()
	mine := len(s.items)
	prLo := s.rng.Lo
	s.mu.Unlock()
	total := mine + req.FromCount
	sf := s.cfg.StorageFactor

	// Sanity: the requester must be our direct predecessor (its value is our
	// range's lower bound). A stale requester gets declined.
	if req.From.Val != prLo {
		return rebalanceResp{}, nil
	}

	if total <= 2*sf {
		// Combined load fits in one peer: the predecessor merges into us.
		return rebalanceResp{Merge: true}, nil
	}

	// Redistribute: give the predecessor our lowest items so both end up
	// with at least sf.
	give := total/2 - req.FromCount
	if give <= 0 {
		return rebalanceResp{}, nil
	}
	if err := s.rangeLock.Lock(ctx); err != nil {
		return rebalanceResp{}, nil
	}
	defer s.rangeLock.Unlock()

	s.mu.Lock()
	if !s.hasRange || s.rng.Lo != req.From.Val {
		s.mu.Unlock()
		return rebalanceResp{}, nil
	}
	sorted := s.sortedItemsLocked()
	if give >= len(sorted) {
		give = len(sorted) - 1
	}
	if give <= 0 {
		s.mu.Unlock()
		return rebalanceResp{}, nil
	}
	moved := sorted[:give]
	boundary := moved[len(moved)-1].Key
	// The shrunken range is a new incarnation; the predecessor claims the
	// carved region above our new epoch (applyRedistribute), so the moved
	// keys' epoch history stays strictly increasing.
	newEpoch := s.epoch + 1
	_ = s.applyLocked(itemChange{items: moved, del: true, wal: walSkip, journal: movedTo(from)})
	s.claimLocked(keyspace.NewRange(boundary, s.rng.Hi), newEpoch)
	s.mu.Unlock()

	s.replicate()
	s.Redistributes.Add(1)
	return rebalanceResp{Redistribute: true, Items: moved, NewBoundary: boundary, Epoch: newEpoch}, nil
}

// applyRedistribute extends this peer's range and value up to the new
// boundary and adopts the received items.
func (s *Store) applyRedistribute(ctx context.Context, rb rebalanceResp) error {
	if err := s.rangeLock.Lock(ctx); err != nil {
		return ErrLockBusy
	}
	defer s.rangeLock.Unlock()
	s.mu.Lock()
	if !s.hasRange {
		s.mu.Unlock()
		return ErrNoRange
	}
	// Claim the extended range strictly above both our own epoch and the
	// successor's post-shrink one: the carved keys' history stays monotonic.
	s.claimLocked(keyspace.NewRange(s.rng.Lo, rb.NewBoundary), max(s.epoch, rb.Epoch)+1)
	_ = s.applyLocked(itemChange{items: rb.Items, wal: walDegrade}) // the successor journaled the moves
	s.mu.Unlock()
	s.ring.SetVal(rb.NewBoundary)
	s.replicate()
	return nil
}

// mergeIntoSuccessor executes the merge side of an underflow: replicate one
// additional hop (Section 5.2), leave the ring gracefully (Section 5.1),
// transfer the Data Store state to the successor, and depart to the free
// pool. The ordering follows Figure 17/18's corrected flow.
func (s *Store) mergeIntoSuccessor(ctx context.Context, succ ring.Node) error {
	mergeStart := time.Now()
	// 1. Replicate to one additional hop so the departure does not lower
	//    the replica count of anything we hold.
	if s.rep != nil {
		if err := s.rep.BeforeLeave(ctx); err != nil {
			return fmt.Errorf("datastore: pre-leave replication failed: %w", err)
		}
	}
	// 2. PEPPER leave: wait until every predecessor pointing at us has
	//    lengthened its successor list.
	leaveStart := time.Now()
	if err := s.ring.Leave(ctx); err != nil {
		return fmt.Errorf("datastore: leave failed: %w", err)
	}
	if s.cfg.LeaveRecorder != nil {
		s.cfg.LeaveRecorder.Observe(time.Since(leaveStart))
	}
	// 3. Hand the Data Store state to the successor under our write lock
	//    (scans in flight drain first; later scans abort here and retry).
	if err := s.rangeLock.Lock(ctx); err != nil {
		return ErrLockBusy
	}
	s.mu.Lock()
	rng := s.rng
	epoch := s.epoch
	// Nothing is written or journaled for the hand-out: the WAL keeps the
	// claim and its items until the release below, and the receiver journals
	// the moves.
	items := s.sortedItemsLocked()
	_ = s.applyLocked(itemChange{items: items, del: true, wal: walSkip})
	s.hasRange = false
	self := s.ring.Self()
	if s.cfg.LeaseDuration > 0 {
		// Announce the lease transfer BEFORE the successor's absorbing claim
		// can land: in journal order its extended grant would otherwise
		// overlap our still-live lease (our release below is journaled only
		// after the hand-off commits — a failed transfer restores our state,
		// so the lease must not be voided in advance). The pending handoff
		// justifies exactly that one overlapping grant for the audit.
		s.log.LeaseHandoff(string(self.Addr), string(succ.Addr), rng, epoch)
	}
	s.mu.Unlock()
	s.rangeLock.Unlock()

	// The receiver journals the item moves as it applies them: if we die
	// mid-call, the journal then matches wherever the items physically are.
	// The hand-off is a bulk call: an arbitrarily large range streams across
	// in chunks and the successor applies it atomically at commit, so a
	// transfer interrupted mid-stream leaves the successor unchanged and the
	// items safely back here via the error path below.
	_, err := methodMergeIn.CallBulk(ctx, s.net, self.Addr, succ.Addr, mergeInReq{From: self, Range: rng, Epoch: epoch, Items: items})
	if err != nil {
		// The successor is gone; put the state back and let the ring heal.
		s.mu.Lock()
		s.hasRange = true
		s.rng = rng
		_ = s.applyLocked(itemChange{items: items, wal: walSkip})
		s.mu.Unlock()
		return fmt.Errorf("datastore: merge transfer failed: %w", err)
	}
	// The hand-off committed: release ownership durably. This deliberately
	// happens only now — a failed transfer restores the in-memory state
	// above, which must keep matching the WAL's claim. A crash between the
	// commit and this release recovers a stale claim that the successor's
	// higher-epoch one then deposes through the normal fencing path.
	s.mu.Lock()
	s.releaseLocked()
	s.mu.Unlock()
	// 4. Depart; the peer returns to the free pool. Shut down our own loops
	//    asynchronously — this code may be running on the maintenance loop
	//    itself, so it must not wait for it.
	if s.cfg.MergeRecorder != nil {
		s.cfg.MergeRecorder.Observe(time.Since(mergeStart))
	}
	s.Merges.Add(1)
	s.ring.Depart()
	s.loops.Signal()
	if s.pool != nil {
		s.pool.Release(self.Addr)
	}
	return nil
}

// handleMergeIn absorbs a merging predecessor's range and items.
func (s *Store) handleMergeIn(_ transport.Addr, req mergeInReq) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.CallTimeout*4)
	defer cancel()
	if err := s.rangeLock.Lock(ctx); err != nil {
		return false, ErrLockBusy
	}
	defer s.rangeLock.Unlock()
	s.mu.Lock()
	if !s.hasRange || s.rng.Lo != req.Range.Hi {
		s.mu.Unlock()
		return false, ErrWrongState
	}
	// Claim the absorbed range strictly above both incarnations it unifies.
	s.claimLocked(s.rng.ExtendDown(req.Range.Lo), max(s.epoch, req.Epoch)+1)
	_ = s.applyLocked(itemChange{items: req.Items, wal: walDegrade, journal: movedFrom(req.From.Addr)})
	s.mu.Unlock()
	s.itemsChanged()
	return true, nil
}
