package datastore

import (
	"context"
	"time"

	"repro/internal/keyspace"
	"repro/internal/storage"
)

// Claims, epochs and leases: how this peer comes to own a range, keeps the
// claim alive and gives it up. The hand-offs that move a range between peers
// (balance.go, underflow.go, revive.go) claim through claimLocked too.

// Range returns the peer's current responsibility range.
func (s *Store) Range() (keyspace.Range, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng, s.hasRange
}

// RangeEpoch returns the peer's responsibility range together with its
// ownership epoch, read atomically: the pair is what routing layers cache
// and what fenced requests are validated against.
func (s *Store) RangeEpoch() (keyspace.Range, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng, s.epoch, s.hasRange
}

// Epoch returns the current ownership epoch (0 before the peer ever claimed
// a range, or after it stepped down).
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// claimLocked installs a new ownership incarnation — range plus bumped
// epoch — and journals the transition. Callers hold s.mu and must have
// computed epoch according to the fencing rule (strictly above every claim
// the new one overlaps).
func (s *Store) claimLocked(rng keyspace.Range, epoch uint64) {
	s.hasRange = true
	s.rng = rng
	s.epoch = epoch
	// Write-ahead before the history journal so the WAL order matches the
	// journal order. A claim's replay prunes items outside the claimed range
	// (that is how hand-offs move items away durably; see storage.RecClaim).
	// An append error here degrades durability, not serving: membership
	// protocols cannot abort halfway through a claim.
	_ = s.backend.Append(storage.Record{Kind: storage.RecClaim, Epoch: epoch, Lo: rng.Lo, Hi: rng.Hi})
	s.log.Claimed(string(s.ring.Self().Addr), rng, epoch)
	if s.cfg.LeaseDuration > 0 {
		// Every leased claim starts with a fresh lease: grant time = claim
		// time. The RecLease append re-stamps the clock durably (the claim's
		// replay reset it) and the grant event pairs with the Claimed one in
		// the journal for the CheckLeases audit.
		now := time.Now().UnixNano()
		s.leaseRenewedAt = now
		_ = s.backend.Append(storage.Record{Kind: storage.RecLease, Epoch: epoch, Key: keyspace.Key(now)})
		s.log.LeaseGranted(string(s.ring.Self().Addr), rng, epoch)
	}
}

// releaseLocked drops ownership durably: the write-ahead release clears the
// incarnation (and its items) on replay, so a restart after a step-down or
// merge-away recovers a free peer, not a resurrected claim. Callers hold
// s.mu and update the in-memory fields themselves — but must call this
// BEFORE zeroing s.rng/s.epoch, so the lease release is journaled against
// the incarnation actually being given up.
func (s *Store) releaseLocked() {
	_ = s.backend.Append(storage.Record{Kind: storage.RecRelease})
	if s.cfg.LeaseDuration > 0 {
		s.leaseRenewedAt = 0
		s.log.LeaseReleased(string(s.ring.Self().Addr), s.rng, s.epoch)
	}
}

// ReclaimAbove re-claims this peer's current range at an epoch strictly
// above the given conflicting one, returning the resulting epoch (0 when the
// peer serves no range). It resolves an epoch collision the normal bump
// rule cannot order: a failure revival derives its fencing epoch from
// best-effort replication adverts, so a suspect whose latest bump never
// reached the revivor can survive at an epoch equal to (or above) the
// revived claim — two live incarnations the comparison alone cannot rank.
// The observer of the conflict (the revivor answering the suspect's push)
// re-claims above the conflicting epoch, restoring a strict order so the
// other side's StepDown guard accepts the deposition.
func (s *Store) ReclaimAbove(conflict uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasRange {
		return 0
	}
	if s.epoch > conflict {
		return s.epoch // already strictly ahead (a concurrent bump won)
	}
	s.claimLocked(s.rng, conflict+1)
	return s.epoch
}

// --- Leases -----------------------------------------------------------------

// RenewLease advances the current claim's lease clock to now and records the
// renewal durably (a RecLease WAL record), but not in the history log. The
// replication manager calls it from RefreshOnce after at least one successor
// acknowledged the refresh without deposing this peer — the renewal is
// evidence the owner is still observably serving, not a self-certification.
// No-op when leases are disabled or no range is held.
func (s *Store) RenewLease() {
	if s.cfg.LeaseDuration <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasRange {
		return
	}
	now := time.Now().UnixNano()
	s.leaseRenewedAt = now
	_ = s.backend.Append(storage.Record{Kind: storage.RecLease, Epoch: s.epoch, Key: keyspace.Key(now)})
}

// RestoreLeaseClock installs the lease-renewal time a durable backend
// recovered (unix nanoseconds; see storage.State.LeaseRenewedAt). Called
// once after Recover, before the peer starts serving. The persisted value is
// used as-is — never the restart time — so a claim whose lease lapsed while
// the process was down comes back already expired and the peer's neighbors
// remain free to adopt: the conservative resumption a crash demands. A zero
// value (no renewal ever journaled) leaves the lease locally expired until
// the first successful refresh renews it.
func (s *Store) RestoreLeaseClock(renewedAt int64) {
	if s.cfg.LeaseDuration <= 0 || renewedAt == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasRange {
		return
	}
	s.leaseRenewedAt = renewedAt
	// Re-stamp into the new run's WAL (the recovery claim's replay zeroed
	// the shadow state's clock).
	_ = s.backend.Append(storage.Record{Kind: storage.RecLease, Epoch: s.epoch, Key: keyspace.Key(renewedAt)})
}

// LeaseInfo reports the lease state for operators (the ops probe): whether
// leases are enabled, the age of the current claim's lease (time since last
// renewal; 0 when no claim is held), and whether that lease is expired from
// this peer's own local view — the owner-side symptom of a wedged peer,
// visible before any neighbor acts on it.
func (s *Store) LeaseInfo() (enabled bool, age time.Duration, expired bool) {
	if s.cfg.LeaseDuration <= 0 {
		return false, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasRange {
		return true, 0, false
	}
	if s.leaseRenewedAt == 0 {
		// Claimed but never durably renewed (a conservative recovery):
		// locally treated as expired until the first successful refresh.
		return true, 0, true
	}
	age = time.Duration(time.Now().UnixNano() - s.leaseRenewedAt)
	return true, age, age > s.cfg.LeaseDuration
}

// ObserveRemoteClaim feeds an ownership assertion learned out-of-band (the
// gossip directory) into the fencing machinery: a strictly higher-epoch
// claim overlapping this peer's range deposes it, exactly as a Deposed push
// reply would. This is how a wedged owner — whose own pushes no longer land
// anywhere, so the push-reply deposition path is closed to it — still
// converges after its range was adopted: the adoption's higher epoch reaches
// it through gossip and it steps down instead of serving a dead incarnation
// forever.
func (s *Store) ObserveRemoteClaim(rng keyspace.Range, epoch uint64) {
	s.mu.Lock()
	conflict := s.hasRange && s.rng.Overlaps(rng) && epoch > s.epoch
	mine, myEpoch := s.rng, s.epoch
	s.mu.Unlock()
	if conflict {
		go s.StepDown(mine, myEpoch)
	}
}

// SetRangeForTesting overrides the peer's responsibility range. Only tests
// (including other packages' tests that need a hand-crafted layout) may use
// this; production range changes go through splits, merges, redistributions
// and failure revival. The epoch is left untouched (0 unless the test also
// calls SetEpochForTesting), so hand-built layouts serve unfenced.
func (s *Store) SetRangeForTesting(r keyspace.Range) {
	s.mu.Lock()
	s.hasRange = true
	s.rng = r
	s.mu.Unlock()
}

// SetEpochForTesting overrides the ownership epoch; tests use it to stage
// fencing scenarios without running the full membership protocols.
func (s *Store) SetEpochForTesting(epoch uint64) {
	s.mu.Lock()
	s.epoch = epoch
	s.mu.Unlock()
}

// InitFirstPeer assigns this peer the full key space at epoch 1; it must be
// the ring's first member (initFirstPeer in the appendix Data Store API).
// The ring's joined callback calls it; it claims only if the peer holds no
// range yet, so a recovered claim installed before the peer re-enters the
// ring stands (a duplicate claim at the same epoch would read as a fencing
// failure in the journal's epoch audit).
func (s *Store) InitFirstPeer() {
	self := s.ring.Self()
	s.mu.Lock()
	if !s.hasRange {
		s.claimLocked(keyspace.FullRange(self.Val), 1)
	}
	s.mu.Unlock()
}

// Recover re-enters the incarnation a durable backend recovered: the last
// claimed (range, epoch) and the items that survived in its WAL+snapshot.
// Unlike every other claim site the epoch is NOT bumped — a restart is the
// same incarnation resuming with provable identity, not a new one — and the
// claim plus every recovered item is journaled (as a recovery) in this
// process's fresh history log, so the Definition 4 and epoch audits treat
// the restart as a legal continuation rather than a phantom. Nothing is
// appended to the backend: the backend just replayed this state, so its log
// already holds the claim and every item, and a second claim record would
// reset the persisted lease renewal on the next replay. If a successor
// revived the range while this peer was down, its higher-epoch claim wins
// the first push conflict and this peer steps down through the normal
// fencing path. No-op if the peer already serves a range.
func (s *Store) Recover(rng keyspace.Range, epoch uint64, items []Item) {
	self := string(s.ring.Self().Addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hasRange {
		return
	}
	s.hasRange = true
	s.rng = rng
	s.epoch = epoch
	s.log.RecoveredClaim(self, rng, epoch)
	owned := make([]Item, 0, len(items))
	for _, it := range items {
		if rng.Contains(it.Key) {
			owned = append(owned, it)
		}
	}
	_ = s.applyLocked(itemChange{items: owned, wal: walSkip, journal: added})
}

// --- Deposition --------------------------------------------------------------

// StepDown resigns the incarnation (rng, epoch) of this peer's range
// ownership: a peer holding a claim over it at a strictly higher epoch has
// been observed (a replication push answered "deposed", a push or a gossiped
// advert from the higher claim), which proves the ring's failure detector
// declared us dead and a successor revived our range while we were still
// serving — the dual-claim window. The epoch orders the two incarnations,
// and the lower one must yield: we drain in-flight scans under the range
// write lock, drop the range and items (journaled as removals — exactly the
// effect a real fail-stop would have had; anything we held is already
// replicated up to the usual replication lag, and our unreplicated window
// mutations die with us, as they would in a genuine crash), and depart to the
// free pool under a spent identity, the same recycling path a merged-away
// peer takes. The process re-enters as a fresh free peer.
//
// Every caller judges a snapshot of the claim and steps down later, so the
// verdict names the incarnation it judged: one that has moved on since — a
// redistribution or a split gave it a new range and epoch — was never
// contested, and stays.
func (s *Store) StepDown(rng keyspace.Range, epoch uint64) {
	if !s.maintMu.TryLock() {
		return // mid-split/merge; the next deposed push reply retries
	}
	defer s.maintMu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.MaintenanceTimeout)
	defer cancel()
	if err := s.rangeLock.Lock(ctx); err != nil {
		return
	}
	s.mu.Lock()
	if !s.hasRange || s.rng != rng || s.epoch != epoch {
		// Raced a legitimate hand-off: the deposed incarnation is gone.
		s.mu.Unlock()
		s.rangeLock.Unlock()
		return
	}
	_ = s.applyLocked(itemChange{items: s.sortedItemsLocked(), del: true, wal: walSkip, journal: removed})
	s.hasRange = false
	// Release durably: a restart from this identity's data directory must
	// come back as a free peer, not resurrect the deposed incarnation. The
	// release precedes the epoch zeroing so the lease release it journals
	// names the incarnation being resigned.
	s.releaseLocked()
	s.epoch = 0
	s.mu.Unlock()
	s.rangeLock.Unlock()
	s.StepDowns.Add(1)

	// Identity spent: depart without any leave protocol — the suspicion that
	// deposed us already excised this peer from every successor list, so
	// there is no predecessor left to acknowledge a graceful leave.
	addr := s.Addr()
	s.ring.Depart()
	s.loops.Signal()
	if s.pool != nil {
		s.pool.Retire(addr)
	}
}
