package datastore

import (
	"context"
	"time"

	"repro/internal/keyspace"
	"repro/internal/ring"
)

// checkPredLease is the lease-expiry adoption check, run on every
// maintenance wakeup when leases are enabled: if this peer's ring
// predecessor — whose range is adjacent below ours — has not renewed its
// lease within LeaseDuration (its replication pushes carry the renewals; see
// Replicator.AdvertInfo), its range is orphaned and this peer adopts it at a
// strictly higher epoch, exactly as failure revival would. Unlike the
// suspicion-driven revival in OnPredChanged, this path needs no failure
// verdict from the ring: a wedged-but-alive owner that keeps answering pings
// but cannot land a replication push stops renewing, and the lease bounds
// how long its stale claim can linger.
//
// Exactly-once: the adjacency guard (the advert's Hi must equal our Lo)
// breaks as soon as the adoption extends our range down, so a second pass —
// or a concurrent racer serialized behind maintMu/rangeLock — finds no
// adjacent lapsed advert and does nothing. A predecessor that never pushed
// to us has no advert and cannot be adopted from here; its own successor is
// us, so in a stabilized ring the advert exists after one refresh.
func (s *Store) checkPredLease() {
	if s.cfg.LeaseDuration <= 0 || s.rep == nil || s.ring.State() != ring.StateJoined {
		return
	}
	pred := s.ring.Pred()
	self := s.ring.Self()
	if pred.Addr == "" || pred.Addr == self.Addr {
		return
	}
	s.mu.Lock()
	hasRange, lo := s.hasRange, s.rng.Lo
	s.mu.Unlock()
	if !hasRange {
		return
	}
	adv, advEpoch, renewedAt, ok := s.rep.AdvertInfo(pred.Addr)
	if !ok || adv.Hi != lo {
		return // no evidence, or not (any longer) adjacent below us
	}
	if renewedAt.IsZero() || time.Since(renewedAt) <= s.cfg.LeaseDuration {
		return // lease still current
	}
	if !s.maintMu.TryLock() {
		return // mid-split/merge; retry on the next wakeup
	}
	defer s.maintMu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.MaintenanceTimeout)
	defer cancel()
	if err := s.rangeLock.Lock(ctx); err != nil {
		return
	}
	// Held until the revived items are in, as by every hand-off: a scan or
	// a mutation served between the claim and the revival would find the
	// adopted region empty (and a delete acknowledged there be undone by it).
	defer s.rangeLock.Unlock()
	// The adopted incarnation must fence both the lapsed holder's last
	// advertised epoch and anything else ever advertised over the region.
	fence := max(advEpoch, s.rep.MaxAdvertisedEpoch(adv))
	s.mu.Lock()
	// Re-validate adjacency under the lock: a racing hand-off may have moved
	// our boundary since the check above.
	if !s.hasRange || adv.Hi != s.rng.Lo {
		s.mu.Unlock()
		return
	}
	// Journal the expiry BEFORE the overlapping claim lands, so the lease
	// audit sees the holder's lease voided first.
	s.log.LeaseExpired(string(pred.Addr), string(self.Addr), adv, advEpoch)
	s.claimLocked(s.rng.ExtendDown(adv.Lo), max(s.epoch, fence)+1)
	s.mu.Unlock()
	s.LeaseAdoptions.Add(1)

	// Revive the adopted region from held replicas (we are the lapsed
	// owner's first successor, so we hold its pushes' replicas).
	items := s.rep.Revive(adv)
	s.adoptRevived(adv, items)
}

// OnPredChanged is raised by the ring when stabilization accepts a new
// predecessor. When the previous predecessor failed, this peer absorbs the
// failed peer's range — growing downward to the new predecessor's value —
// and revives the lost items from its local replica store (the failure
// recovery of Section 2.3's Replication Manager, Figure 9's correct flow).
func (s *Store) OnPredChanged(newPred, prev ring.Node, predFailed bool) {
	if !predFailed {
		return
	}
	s.mu.Lock()
	// Only a genuine downward growth triggers revival: the new predecessor's
	// value must lie strictly behind our current lower bound. Equal values
	// (a split handover racing a spurious failure verdict) and values inside
	// our range (stale contacts) change nothing — and the (lo, lo) range in
	// particular would read as the full ring.
	if !s.hasRange || newPred.Val == s.rng.Lo || !keyspace.Between(s.rng.Lo, newPred.Val, s.rng.Hi) {
		s.mu.Unlock()
		return
	}
	revive := keyspace.NewRange(newPred.Val, s.rng.Lo)
	s.mu.Unlock()

	// Hold the range write lock from the claim until the revived items are
	// in, as every hand-off does: a scan or a mutation served in between
	// would find the revived region empty, and a delete acknowledged there
	// would be undone by the revival. The failed peer's range must be revived
	// even if the lock cannot be had in time, so then it goes ahead without.
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.MaintenanceTimeout)
	defer cancel()
	if s.rangeLock.Lock(ctx) == nil {
		defer s.rangeLock.Unlock()
	}

	// Fence the incarnation we replace: the revived claim's epoch must
	// strictly exceed both our own and anything the failed predecessor ever
	// advertised for the revived region (its replication pushes carried its
	// epoch). If the failure verdict was a false positive — the predecessor
	// is alive and still serving — this is what deposes it: its next push
	// meets a higher-epoch claim and it steps down instead of splitting the
	// range's history in two (the dual-claim window).
	var adv uint64
	if s.rep != nil {
		adv = s.rep.MaxAdvertisedEpoch(revive)
	}

	s.mu.Lock()
	// Re-validate under the lock: a racing hand-off may have moved the
	// boundary while we consulted the replica store.
	if !s.hasRange || newPred.Val == s.rng.Lo || !keyspace.Between(s.rng.Lo, newPred.Val, s.rng.Hi) {
		s.mu.Unlock()
		return
	}
	revive = keyspace.NewRange(newPred.Val, s.rng.Lo)
	if s.cfg.LeaseDuration > 0 && prev.Addr != "" {
		// With leases on, a suspicion-driven revival is an adoption of the
		// failed predecessor's lease: journal the expiry before the
		// overlapping claim so the lease audit sees its lease voided first.
		// (A false-positive suspicion makes this an early expiry — the epoch
		// fence, not the lease, is what deposes the live suspect, and the
		// journal records the adoption that actually happened.)
		s.log.LeaseExpired(string(prev.Addr), string(s.ring.Self().Addr), revive, adv)
	}
	s.claimLocked(s.rng.ExtendDown(newPred.Val), max(s.epoch, adv)+1)
	s.mu.Unlock()

	if s.rep != nil {
		items := s.rep.Revive(revive)
		s.adoptRevived(revive, items)
	}
}

// adoptRevived installs the revived items (at most one per key: Revive reads
// a keyed store) that fall into r, are still owned by this peer and are not
// already held — a replica lags its origin, so a held item is never
// overwritten by a revived one — as one change journaled as additions. The
// claim that covers them was made by the caller.
func (s *Store) adoptRevived(r keyspace.Range, items []Item) {
	s.mu.Lock()
	var fresh []Item
	for _, it := range items {
		_, held := s.items[it.Key]
		if s.hasRange && s.rng.Contains(it.Key) && r.Contains(it.Key) && !held {
			fresh = append(fresh, it)
		}
	}
	_ = s.applyLocked(itemChange{items: fresh, wal: walDegrade, journal: added})
	s.mu.Unlock()
	if len(fresh) > 0 {
		s.itemsChanged()
	}
}
