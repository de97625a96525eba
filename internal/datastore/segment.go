package datastore

import (
	"context"
	"fmt"

	"repro/internal/keyspace"
	"repro/internal/ring"
	"repro/internal/transport"
)

// The pipelined segment scan, the read path's serving side.

// segmentReq asks the peer owning Cursor for its contiguous piece of the
// query interval: one origin-driven step of the pipelined scan. Unlike the
// hand-over-hand scanMsg, the origin drives every step itself and keeps
// several segments in flight; correctness still rests on the same rule as
// Algorithm 5 — the target validates that it owns the continuation point
// under its range read lock, so a stale route hint is rejected here instead
// of producing a wrong piece.
type segmentReq struct {
	Iv     keyspace.Interval
	Cursor keyspace.Key
	// Epoch is the ownership epoch the origin believes current for the
	// cursor's owner (from its route cache); 0 = unfenced. A mismatch is
	// answered with StaleEpoch instead of a wrong-incarnation piece.
	Epoch uint64
}

// SegmentResult is one served piece plus the metadata the origin needs to
// keep its pipeline full: the serving peer's responsibility range (for the
// owner-lookup cache) and its successor chain — the owners of the following
// segments, which double as the replica candidates for this peer's items
// (replicas live on a range's ring successors).
type SegmentResult struct {
	NotOwner   bool              // cursor not in this peer's range; nothing served
	StaleEpoch bool              // request epoch does not match the serving epoch; nothing served
	Piece      keyspace.Interval // the contiguous sub-interval served, starting at the cursor
	Items      []Item            // this peer's items in Piece, sorted by key
	Done       bool              // Piece reaches the interval's end
	Range      keyspace.Range    // the serving peer's responsibility range
	Epoch      uint64            // ownership epoch of Range at serve time
	Chain      []ring.Node       // the serving peer's ring successors
}

// handleScanSegment serves one piece of a pipelined scan. The piece is
// assembled atomically under the range read lock — ownership of the cursor
// is validated and the items snapshotted before any boundary can move — so
// every piece is internally consistent and the origin's cover check
// (Definition 6) composes them into a correct result.
func (s *Store) handleScanSegment(_ transport.Addr, req segmentReq) (SegmentResult, error) {
	if !req.Iv.Valid() || !req.Iv.Contains(req.Cursor) {
		return SegmentResult{}, fmt.Errorf("datastore: bad segment cursor %d for %v", req.Cursor, req.Iv)
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.CallTimeout)
	defer cancel()
	if err := s.rangeLock.RLock(ctx); err != nil {
		s.ScanAborts.Add(1)
		return SegmentResult{}, ErrLockBusy
	}
	s.mu.Lock()
	if !s.hasRange || !s.rng.Contains(req.Cursor) {
		s.mu.Unlock()
		s.rangeLock.RUnlock()
		s.ScanAborts.Add(1)
		return SegmentResult{NotOwner: true}, nil
	}
	if req.Epoch != 0 && req.Epoch != s.epoch {
		epoch := s.epoch
		s.mu.Unlock()
		s.rangeLock.RUnlock()
		s.StaleEpochRejects.Add(1)
		return SegmentResult{StaleEpoch: true, Epoch: epoch}, nil
	}
	rng := s.rng
	epoch := s.epoch
	pieceEnd, done := rng.ContiguousEnd(req.Cursor, req.Iv.Last())
	piece := keyspace.Interval{Lb: req.Cursor, Ub: pieceEnd}
	pieceItems := s.itemsInLocked(piece)
	s.mu.Unlock()
	s.rangeLock.RUnlock()
	return SegmentResult{
		Piece: piece,
		Items: pieceItems,
		Done:  done,
		Range: rng,
		Epoch: epoch,
		Chain: s.ring.Successors(),
	}, nil
}

// SegmentPending is the future of one in-flight segment scan.
type SegmentPending = transport.PendingOf[SegmentResult]
