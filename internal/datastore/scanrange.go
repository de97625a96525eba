package datastore

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/keyspace"
	"repro/internal/transport"
)

// scanRange: the hand-over-hand scan in this file is the paper's protocol
// verbatim (Section 4.3.2, Algorithms 3–5) and the reference implementation
// its correctness theorems are stated against; the datastore test suite
// exercises it directly. The production query path (package scan) uses the
// pipelined segment scan in segment.go, which trades the continuous lock
// chain for per-segment validation plus an origin-side cover check — see the
// "Read path" section of ARCHITECTURE.md for the argument.

// Handler is a scan handler invoked at each peer the scan visits, with the
// items of this peer falling in the visited sub-interval (sorted by key),
// the sub-interval itself, and the scan parameter. The returned value
// replaces the parameter for downstream peers (Algorithm 4 line 3).
type Handler func(items []Item, piece keyspace.Interval, param any) any

// RegisterHandler installs a scan handler under id.
func (s *Store) RegisterHandler(id string, h Handler) {
	s.handlersMu.Lock()
	defer s.handlersMu.Unlock()
	s.handlers[id] = h
}

// OnScanAbort installs the listener invoked at the scan origin when a scan
// aborts; param is the opaque parameter the scan was started with.
func (s *Store) OnScanAbort(fn func(param any)) {
	s.handlersMu.Lock()
	defer s.handlersMu.Unlock()
	s.onAbort = fn
}

func (s *Store) handler(id string) Handler {
	s.handlersMu.Lock()
	defer s.handlersMu.Unlock()
	return s.handlers[id]
}

// scanMsg drives one scan along the ring.
type scanMsg struct {
	ID        uint64
	Origin    transport.Addr
	Iv        keyspace.Interval
	Cursor    keyspace.Key // first key not yet covered
	HandlerID string
	Param     any
	Hops      int
}

type abortMsg struct {
	ID     uint64
	Param  any
	Reason string
}

// StartScan initiates a scanRange at the remote peer that owns the interval's
// lower bound (located by the caller). It returns once the first peer has
// accepted the scan; progress flows peer to peer, results flow through the
// registered handler, and aborts arrive at the OnScanAbort listener.
func (s *Store) StartScan(ctx context.Context, firstPeer transport.Addr, iv keyspace.Interval, handlerID string, param any) error {
	if !iv.Valid() {
		return fmt.Errorf("datastore: empty scan interval %v", iv)
	}
	msg := scanMsg{
		ID:        s.scanSeq.Add(1),
		Origin:    s.Addr(),
		Iv:        iv,
		Cursor:    iv.First(),
		HandlerID: handlerID,
		Param:     param,
	}
	_, err := methodScan.Call(ctx, s.net, s.Addr(), firstPeer, msg)
	return err
}

// handleScan is processScan (Algorithm 5): acquire the range read lock,
// validate the continuation point, then run the handler and forwarding
// asynchronously so the predecessor can release its own lock.
func (s *Store) handleScan(_ transport.Addr, msg scanMsg) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.CallTimeout)
	defer cancel()
	if err := s.rangeLock.RLock(ctx); err != nil {
		s.ScanAborts.Add(1)
		return false, ErrLockBusy
	}
	s.mu.Lock()
	owns := s.hasRange && s.rng.Contains(msg.Cursor)
	s.mu.Unlock()
	if !owns {
		s.rangeLock.RUnlock()
		s.ScanAborts.Add(1)
		return false, ErrNotOwner
	}
	// Lock is held; continue asynchronously (the predecessor may now release
	// its own lock) and release inside.
	go s.runScanStep(msg)
	return true, nil
}

// runScanStep executes the handler for this peer's piece of the scan and
// forwards the scan to the successor if the interval extends past our range.
// The caller has acquired the range read lock; runScanStep releases it.
func (s *Store) runScanStep(msg scanMsg) {
	defer s.rangeLock.RUnlock()

	s.mu.Lock()
	rng := s.rng
	// The piece served here is the contiguous segment we own starting at the
	// cursor: up to the interval's end, or up to rng.Hi when the cursor sits
	// in a segment bounded by it. A wrapped range (lo > hi) owns two linear
	// segments — (lo, MaxKey] and [0, hi] — and only the one holding the
	// cursor may be served now; the scan revisits this peer for the other
	// segment if the interval reaches it.
	pieceEnd, finished := rng.ContiguousEnd(msg.Cursor, msg.Iv.Last())
	piece := keyspace.Interval{Lb: msg.Cursor, Ub: pieceEnd}
	pieceItems := s.itemsInLocked(piece)
	s.mu.Unlock()

	newParam := msg.Param
	if h := s.handler(msg.HandlerID); h != nil {
		newParam = h(pieceItems, piece, msg.Param)
	}
	if finished {
		return
	}

	// Forward to the successor (Algorithm 4 lines 4–8) while still holding
	// our lock: the forward call returns only after the successor holds its
	// own lock, guaranteeing no range change slips between us.
	next := msg
	next.Cursor = pieceEnd + 1
	next.Param = newParam
	next.Hops++
	if err := s.forwardScan(next); err != nil {
		s.ScanAborts.Add(1)
		methodScanAbort.Send(s.net, s.Addr(), msg.Origin, abortMsg{ID: msg.ID, Param: msg.Param, Reason: err.Error()})
	}
}

// forwardScan delivers the scan to our first stabilized successor, retrying
// briefly while stabilization catches up after a membership change.
func (s *Store) forwardScan(msg scanMsg) error {
	deadline := time.Now().Add(4 * s.cfg.CallTimeout)
	var lastErr error = ErrNoSucc
	for time.Now().Before(deadline) {
		succ, ok := s.ring.FirstStabilizedSuccessor()
		if !ok {
			time.Sleep(s.cfg.CallTimeout / 8)
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*s.cfg.CallTimeout)
		_, err := methodScan.Call(ctx, s.net, s.Addr(), succ.Addr, msg)
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
		if errors.Is(err, transport.ErrUnreachable) {
			// Successor failed or departed; wait for the ring to heal.
			time.Sleep(s.cfg.CallTimeout / 8)
			continue
		}
		return err
	}
	return lastErr
}

// handleScanAbort runs at the scan origin.
func (s *Store) handleScanAbort(_ transport.Addr, msg abortMsg) (bool, error) {
	s.handlersMu.Lock()
	fn := s.onAbort
	s.handlersMu.Unlock()
	if fn != nil {
		fn(msg.Param)
	}
	return true, nil
}
