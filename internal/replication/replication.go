// Package replication implements the Replication Manager of the indexing
// framework in its CFS form (Section 2.3): every peer pushes its Data Store
// items to its k ring successors, so that when a peer fails its successor
// can revive the lost items from the replicas it holds. The paper's
// availability contribution (Section 5.2) is the replicate-to-additional-hop
// rule: before a peer departs in a merge, it pushes both its own items and
// the replicas it holds one extra hop, so its departure never lowers any
// item's replica count (the Figure 17 loss scenario versus the Figure 18
// fix). The naive baseline skips that step.
//
// Replica freshness is maintained by one versioned push protocol. The origin
// numbers the states of its item set for the current (range, epoch): every
// refresh applies what changed in the Data Store since the last one, bumps
// the version when something did, and sends each successor the smallest
// sufficient shape of the same message — a delta (Base -> Version) when the
// successor acknowledged Base, a heartbeat (nothing but the advert) when it
// already acknowledged Version, and the full set when the successor is new,
// the (range, epoch) changed, the previous push went unanswered, or the
// successor asked for it (NeedFull). Every push carries the count and an
// order-independent digest of the origin's set at Version; the receiver
// applies a delta only onto the matching base, re-checks count and digest
// over what it then holds inside the range, and answers NeedFull on any
// mismatch. A holder that missed a delta, restarted, or had a stale key
// merged into it is repaired by the next push.
//
// Steady-state cost is proportional to the change, not to the range, in
// bytes and in CPU at both ends. The origin reads the Data Store's change
// feed (the keys its item-set seam touched since the last take), not the
// item set, and keeps its digest by adding and subtracting terms. The holder
// keeps each origin's count and digest over the replicas inside its advert's
// range, moved by every replica it puts or deletes. What is left of O(range)
// runs once per incarnation change: the origin's first take after its
// (range, epoch) moves is the whole set, and the holder walks its replicas
// when an origin is first seen or its advertised range moves.
//
// The invariant the protocol maintains (and the tests assert): if holder h
// records version v for origin o at (range, epoch), then h's replicas inside
// range equal o's item set at v. What bounds divergence is the version check
// and digest on every push plus a heartbeat every RefreshPeriod, so a replica
// still lags its origin by at most one refresh plus a push in flight.
//
// On the receiving side only records that change a held replica are
// journaled, as one storage batch per push: a push onto an up-to-date holder
// writes nothing.
package replication

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/transport"
)

// The Replication Manager's RPCs.
var (
	methodPush = transport.NewMethod[pushMsg, pushResp]("rep.push")
	methodPull = transport.NewMethod[pullReq, pullResp]("rep.pull")
	methodScan = transport.NewMethod[replicaScanReq, []datastore.Item]("rep.scan")
)

// Config controls replication behaviour.
type Config struct {
	// Factor is k, the number of successors holding a copy of each item
	// (paper default 6, Section 6.1).
	Factor int
	// RefreshPeriod is the replica refresh interval.
	RefreshPeriod time.Duration
	// CallTimeout bounds individual pushes.
	CallTimeout time.Duration
	// Naive disables replicate-to-additional-hop on departure (the baseline
	// of Section 6.2 that loses items in the Figure 17 scenario).
	Naive bool
	// DisableAutoRefresh turns the periodic loop off for deterministic tests.
	DisableAutoRefresh bool
}

func (c Config) withDefaults() Config {
	if c.Factor <= 0 {
		c.Factor = 6
	}
	if c.RefreshPeriod <= 0 {
		c.RefreshPeriod = 40 * time.Millisecond
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 50 * time.Millisecond
	}
	return c
}

// advert is the ownership assertion carried by a replication push: the
// origin last claimed Range at Epoch. The replica manager remembers the
// latest advert per origin; they are what lets a successor revive a failed
// predecessor's range at a provably higher epoch, and what lets a replica
// holder refuse to serve for a deposed primary. RenewedAt is the local
// receive time of the latest push from the origin — the receiver-side lease
// evidence: an origin whose advert has not refreshed within the lease
// duration has stopped proving it still serves, and its successor may treat
// the range as orphaned (datastore.Config.LeaseDuration).
//
// Version is the holder's half of the push protocol: the origin's set version
// this peer's replicas inside Range are known to equal (see the package
// invariant); 0 when no version is recorded — nothing was installed yet, the
// (range, epoch) moved, or the last count+digest check failed.
type advert struct {
	Range     keyspace.Range
	Epoch     uint64
	RenewedAt time.Time
	Version   uint64
}

// replica is one item of a versioned set plus its digest term, computed once
// when the item enters the set so that summing a set is a walk, not a rehash.
type replica struct {
	datastore.Item
	sum uint64
}

func newReplica(it datastore.Item) replica { return replica{Item: it, sum: itemSum(it)} }

// itemSum is one item's term in a set digest: FNV-1a over key and payload,
// finished with a mixer so that terms combine well under addition. The digest
// of a set is the wrapping sum of its terms — order-independent, and
// maintainable in O(change) as items enter and leave.
func itemSum(it datastore.Item) uint64 {
	h := uint64(14695981039346656037)
	for k, i := uint64(it.Key), 0; i < 8; i, k = i+1, k>>8 {
		h = (h ^ (k & 0xff)) * 1099511628211
	}
	for i := 0; i < len(it.Payload); i++ {
		h = (h ^ uint64(it.Payload[i])) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// originState is the origin's half of the push protocol: the item set it last
// pushed for its (range, epoch), that set's version, and which version each
// current successor is known to hold. The Data Store's change feed says when
// (range, epoch) moved (a full take), and the state then starts over.
type originState struct {
	sig     auth.AdvertSig           // advert signature for the (range, epoch)
	version uint64                   // never reused, not even across (range, epoch) changes
	set     map[keyspace.Key]replica // the item set at version
	digest  uint64                   // sum of set's terms
	// acked maps a successor to the version it last acknowledged. A successor
	// is absent when it is new or its last push went unanswered: its state is
	// unknown and the next push to it is full.
	acked map[transport.Addr]uint64
}

// apply moves the state by one change of the Data Store's item set inside
// the range (datastore.Changes): items now present and keys now gone. It returns
// the delta from the previous version: the items to upsert (new keys and
// changed payloads) and the keys to delete (members that are gone). base ==
// o.version afterwards means nothing changed.
func (o *originState) apply(items []datastore.Item, gone []keyspace.Key) (base uint64, puts []datastore.Item, dels []keyspace.Key) {
	base = o.version
	for _, it := range items {
		prev, ok := o.set[it.Key]
		if ok && prev.Payload == it.Payload {
			continue
		}
		if ok {
			o.digest -= prev.sum
		}
		r := newReplica(it)
		o.set[it.Key] = r
		o.digest += r.sum
		puts = append(puts, it)
	}
	for _, k := range gone {
		if r, ok := o.set[k]; ok {
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

// items returns the set at o.version, the Items of a full push.
func (o *originState) items() []datastore.Item {
	out := make([]datastore.Item, 0, len(o.set))
	for _, r := range o.set {
		out = append(out, r.Item)
	}
	return out
}

// Manager is one peer's Replication Manager. It implements
// datastore.Replicator.
type Manager struct {
	// SignAdvert, when set, signs this peer's ownership advert before each
	// push carries it: the signature covers (self address, range, epoch), so a
	// receiver can prove the advert came from the addressed owner and not from
	// a forger asserting a higher epoch in its name. Set before Start.
	SignAdvert func(rng keyspace.Range, epoch uint64) auth.AdvertSig
	// VerifyAdvert, when set, is consulted for every epoch-carrying push
	// before any epoch bookkeeping: a push whose advert signature does not
	// verify under the key pinned for its origin is refused outright — it
	// neither deposes anyone nor installs replicas. Set before Start.
	VerifyAdvert func(owner transport.Addr, rng keyspace.Range, epoch uint64, sig auth.AdvertSig) error
	// OnSigReject, when set, is invoked for every refused push advert
	// (journaling hook; core wires it to history.Log.SigRejected).
	OnSigReject func(owner transport.Addr, rng keyspace.Range, epoch uint64)

	cfg     Config
	net     transport.Transport
	ring    *ring.Peer
	ds      *datastore.Store
	backend storage.Backend // write-ahead engine; never nil (Memory default)

	mu       sync.Mutex
	replicas map[keyspace.Key]replica
	adverts  map[transport.Addr]advert // latest epoch advert (and held version) per origin
	// sums holds, per origin with an advert, the count and digest of the
	// replicas held inside the advert's range: applyLocked keeps them current,
	// so the per-push check costs nothing, and a walk over every replica runs
	// only when an origin is first seen or its advert's range moves. Kept
	// apart from adverts because handlePush writes a copied advert back.
	sums map[transport.Addr]*heldSum

	// pushMu serializes this peer's own pushes (refresh loop, manual
	// RefreshOnce, BeforeLeave) and guards origin. It is never taken by a
	// handler, so holding it across the push round trips cannot deadlock two
	// peers pushing to each other.
	pushMu sync.Mutex
	origin originState

	// ReplicaServes counts replica-read requests answered by this peer (the
	// read path's availability fallback).
	ReplicaServes atomic.Uint64
	// StaleChainRefusals counts replica reads refused because the believed
	// primary's epoch was superseded by a later advert (fencing on the
	// availability fallback).
	StaleChainRefusals atomic.Uint64
	// SigRejects counts pushes refused because their advert signature failed
	// verification (forged or unsigned ownership assertions).
	SigRejects atomic.Uint64
	// DeltaPushes, HeartbeatPushes and FullPushes count the pushes this peer
	// sent, by shape; NeedFulls counts the replies that asked for the full set
	// (a holder that missed a delta, restarted, or failed the digest check).
	DeltaPushes     atomic.Uint64
	HeartbeatPushes atomic.Uint64
	FullPushes      atomic.Uint64
	NeedFulls       atomic.Uint64
	// ReplicaRecords counts the replica records this peer journaled: only
	// pushes that change a held replica add to it.
	ReplicaRecords atomic.Uint64

	loops     transport.Runner
	refresher *transport.Task // the periodic refresh; kicked by ItemsChanged
}

// New constructs a Manager and registers its RPC handlers on the peer's mux.
func New(net transport.Transport, mux *transport.Mux, rp *ring.Peer, ds *datastore.Store, cfg Config) *Manager {
	m := &Manager{
		cfg:      cfg.withDefaults(),
		net:      net,
		ring:     rp,
		ds:       ds,
		backend:  storage.NewMemory(),
		replicas: make(map[keyspace.Key]replica),
		adverts:  make(map[transport.Addr]advert),
		sums:     make(map[transport.Addr]*heldSum),
	}
	m.refresher = transport.NewTask(m.cfg.RefreshPeriod, m.RefreshOnce)
	methodPush.Handle(mux, m.handlePush)
	methodPull.Handle(mux, m.handlePull)
	methodScan.Handle(mux, m.handleReplicaScan)
	return m
}

// SetBackend replaces the storage engine (default: a fresh storage.Memory).
// The core assembly path points it at the same backend as the Data Store, so
// a peer's held replicas survive a restart alongside its own items. Must be
// called before the peer starts serving.
func (m *Manager) SetBackend(b storage.Backend) {
	if b != nil {
		m.backend = b
	}
}

// RestoreReplicas installs replicas recovered from durable storage. They are
// not journaled again: the backend that recovered them already holds them.
// No version is restored with them, so each origin's first push after the
// restart is answered NeedFull and the full set that follows is diffed
// against what was recovered. Called once during recovery, before the manager
// starts serving.
func (m *Manager) RestoreReplicas(items []datastore.Item) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, it := range items {
		m.putLocked(it)
	}
}

// Start launches the periodic refresh loop (idempotent; no-op after Stop).
func (m *Manager) Start() {
	if m.cfg.DisableAutoRefresh {
		return
	}
	m.loops.Start(m.refresher)
}

// Stop halts background work.
func (m *Manager) Stop() { m.loops.Stop() }

// ItemsChanged implements datastore.Replicator: schedule a refresh soon.
func (m *Manager) ItemsChanged() { m.refresher.Kick() }

// ReplicaCount returns how many replicas this peer currently holds.
func (m *Manager) ReplicaCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.replicas)
}

// HeldReplicas returns a snapshot of the replicas this peer holds.
func (m *Manager) HeldReplicas() []datastore.Item {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]datastore.Item, 0, len(m.replicas))
	for _, r := range m.replicas {
		out = append(out, r.Item)
	}
	return out
}

// pushMsg is the one replication message, in three shapes told apart by
// Full, Base and Version. Full: Items is the origin's complete set at
// Version and the receiver reconciles its replicas inside Range against it.
// Delta (Base != Version): Items are upserted and Deletes removed, but only
// onto a holder that records exactly Base for this (Range, Epoch). Heartbeat
// (Base == Version, nothing to apply): the advert alone, which renews the
// lease on both sides and lets the holder re-check what it has.
//
// Epoch is the origin's ownership epoch for Range — its incarnation's fencing
// token; 0 marks a push that asserts no ownership (the raw held-replica merge
// of BeforeLeave): its Items are installed without any epoch or version
// bookkeeping and nothing is reconciled away.
type pushMsg struct {
	From  ring.Node
	Range keyspace.Range
	Epoch uint64
	// Sig signs the ownership advert (From.Addr, Range, Epoch) with the
	// origin's identity key. Empty on epoch-0 pushes (they assert nothing) and
	// on clusters running without identities.
	Sig auth.AdvertSig

	Full    bool
	Base    uint64
	Version uint64
	Items   []datastore.Item
	Deletes []keyspace.Key
	// Count and Digest summarise the origin's set at Version; the receiver
	// compares them with what it holds inside Range after applying the push.
	Count  int
	Digest uint64
}

// pushResp acknowledges a push. Deposed tells the pusher its ownership
// incarnation has been superseded: the receiving peer's own range claim
// covers the pushed range at the strictly higher Epoch. The pusher must stop
// serving (datastore.StepDown) — this reply is how a live peer that the
// failure detector wrongly declared dead learns its range was revived out
// from under it. NeedFull tells the pusher the advert was recorded but the
// holder cannot vouch for Version — it does not hold the delta's Base, or its
// replicas fail the count+digest check — and must be sent the full set.
type pushResp struct {
	Deposed  bool
	Epoch    uint64
	NeedFull bool
}

// handlePush answers the epoch question — a push from a deposed incarnation
// is refused (and reported as such) instead of being recorded as if the
// origin still owned the range — and then applies whichever shape arrived.
// Signature verification, both deposition checks, advert pruning and the
// lease-renewal stamp run identically for all three shapes.
func (m *Manager) handlePush(_ transport.Addr, msg pushMsg) (pushResp, error) {
	if msg.Epoch == 0 {
		m.mu.Lock()
		m.applyLocked(msg.Items, nil)
		m.mu.Unlock()
		return pushResp{}, nil
	}
	// Signature check first: an epoch-carrying push is an ownership
	// assertion, and on clusters with identities it must prove the
	// assertion is the origin's own. A push signed under the wrong key (or
	// not at all) is refused before it can depose anyone, install
	// replicas, or even record an advert — a forged higher-epoch push is
	// inert.
	if m.VerifyAdvert != nil {
		if err := m.VerifyAdvert(msg.From.Addr, msg.Range, msg.Epoch, msg.Sig); err != nil {
			m.SigRejects.Add(1)
			if m.OnSigReject != nil {
				m.OnSigReject(msg.From.Addr, msg.Range, msg.Epoch)
			}
			return pushResp{}, fmt.Errorf("replication: push advert from %s for %v at epoch %d refused: %w",
				msg.From.Addr, msg.Range, msg.Epoch, err)
		}
	}
	// Deposition check against our own primary claim: overlapping claims
	// by two live peers are a dual-ownership anomaly, and the epochs
	// decide who yields. Strictly higher than the pusher: its
	// incarnation was superseded (we revived its range after a failure
	// verdict) — refuse and tell it. Tied: a collision the comparison
	// cannot order (a revival whose advert-derived epoch failed to
	// clear a bump the suspect never managed to push); re-claim
	// strictly above the conflict so exactly one incarnation survives.
	// Strictly lower: the pusher is the provably-ahead owner and WE are
	// the stale claimant — step down (asynchronously; StepDown drains
	// scans and departs, which must not block the push handler) rather
	// than depose a legitimate higher incarnation.
	if rng, epoch, ok := m.ds.RangeEpoch(); ok && rng.Overlaps(msg.Range) && msg.From.Addr != m.ring.Self().Addr {
		switch {
		case epoch > msg.Epoch:
			return pushResp{Deposed: true, Epoch: epoch}, nil
		case epoch == msg.Epoch:
			if reclaimed := m.ds.ReclaimAbove(msg.Epoch); reclaimed > msg.Epoch {
				return pushResp{Deposed: true, Epoch: reclaimed}, nil
			}
		default:
			go m.ds.StepDown(msg.Epoch)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Deposition check against third-party adverts: if a DIFFERENT
	// origin has advertised an overlapping range at a strictly higher
	// epoch, this pusher is deposed even though we are a mere replica
	// holder — installing its push would clobber the winner's fresher
	// replicas and resurrect the superseded incarnation's view.
	for from, a := range m.adverts {
		if from != msg.From.Addr && a.Range.Overlaps(msg.Range) && a.Epoch > msg.Epoch {
			return pushResp{Deposed: true, Epoch: a.Epoch}, nil
		}
	}
	// Adverts from superseded incarnations of the same region are pruned so
	// the table tracks the freshest view of each range's ownership.
	for from, a := range m.adverts {
		if from != msg.From.Addr && a.Range.Overlaps(msg.Range) && a.Epoch < msg.Epoch {
			delete(m.adverts, from)
			delete(m.sums, from)
		}
	}
	// Record the origin's advert. The receive time doubles as the origin's
	// lease renewal evidence (same-epoch re-pushes refresh it; see
	// AdvertInfo). The held version belongs to one (range, epoch): it does not
	// carry over to a new one, and a straggler from an incarnation the origin
	// itself has since superseded is reconciled as before but never versioned.
	a := m.adverts[msg.From.Addr]
	current := msg.Epoch >= a.Epoch
	if current {
		if a.Range != msg.Range || a.Epoch != msg.Epoch {
			a.Version = 0
		}
		if sum := m.sums[msg.From.Addr]; sum == nil || sum.rng != msg.Range {
			m.sums[msg.From.Addr] = m.summaryLocked(msg.Range)
		}
		a.Range, a.Epoch, a.RenewedAt = msg.Range, msg.Epoch, time.Now()
		m.adverts[msg.From.Addr] = a
	}
	switch {
	case msg.Full:
		keep := make(map[keyspace.Key]struct{}, len(msg.Items))
		for _, it := range msg.Items {
			keep[it.Key] = struct{}{}
		}
		var gone []keyspace.Key
		for k := range m.replicas {
			if _, ok := keep[k]; !ok && msg.Range.Contains(k) {
				gone = append(gone, k)
			}
		}
		m.applyLocked(msg.Items, gone)
	case current && a.Version != 0 && a.Version == msg.Base:
		m.applyLocked(msg.Items, msg.Deletes)
	default:
		// Not the base this delta applies onto (a missed delta, a restarted
		// holder, a new (range, epoch)): nothing was touched, so whatever
		// version is recorded stays true.
		return pushResp{NeedFull: true}, nil
	}
	// What is now held inside the range must be the origin's set at Version;
	// only then is the version recorded. A mismatch — a key merged in behind
	// the origin's back, a straggler applied out of order — forgets the
	// version and asks for the full set, which reconciles the range.
	a.Version = 0
	if current {
		if sum := m.sums[msg.From.Addr]; sum.count == msg.Count && sum.digest == msg.Digest {
			a.Version = msg.Version
		}
	}
	m.adverts[msg.From.Addr] = a
	return pushResp{NeedFull: current && a.Version == 0}, nil
}

// applyLocked upserts puts into the replica store and removes dels from it,
// journaling only the records that change a held replica, as one batch: one
// write and one fsync per push, none for a push that changes nothing. The
// batch is appended while holding m.mu so the WAL order matches the replica
// store's; an append error degrades durability only. Callers hold m.mu.
func (m *Manager) applyLocked(puts []datastore.Item, dels []keyspace.Key) {
	var recs []storage.Record
	for _, k := range dels {
		if cur, ok := m.replicas[k]; ok {
			delete(m.replicas, k)
			m.countLocked(k, -1, -cur.sum)
			recs = append(recs, storage.Record{Kind: storage.RecReplicaDelete, Key: k})
		}
	}
	for _, it := range puts {
		if m.putLocked(it) {
			recs = append(recs, storage.Record{Kind: storage.RecReplicaPut, Key: it.Key, Payload: it.Payload})
		}
	}
	if len(recs) > 0 {
		_ = m.backend.AppendBatch(recs)
		m.ReplicaRecords.Add(uint64(len(recs)))
	}
}

// putLocked upserts one replica, reporting whether that changed what is held.
// Callers hold m.mu.
func (m *Manager) putLocked(it datastore.Item) bool {
	cur, ok := m.replicas[it.Key]
	if ok && cur.Payload == it.Payload {
		return false
	}
	r := newReplica(it)
	m.replicas[it.Key] = r
	if ok {
		m.countLocked(it.Key, 0, r.sum-cur.sum)
	} else {
		m.countLocked(it.Key, 1, r.sum)
	}
	return true
}

// heldSum is the count and digest of the replicas held inside rng.
type heldSum struct {
	rng    keyspace.Range
	count  int
	digest uint64
}

// countLocked moves every summary whose range holds key by one replica change:
// dn replicas and dsum of digest (both wrap like the digest itself). Callers
// hold m.mu.
func (m *Manager) countLocked(key keyspace.Key, dn int, dsum uint64) {
	for _, sum := range m.sums {
		if sum.rng.Contains(key) {
			sum.count += dn
			sum.digest += dsum
		}
	}
}

// summaryLocked walks every held replica for the count and digest of those
// inside rng: the holder's side of the per-push check, computed in full only
// when an origin or its range is new (see Manager.sums). Callers hold m.mu.
func (m *Manager) summaryLocked(rng keyspace.Range) *heldSum {
	sum := &heldSum{rng: rng}
	for k, r := range m.replicas {
		if rng.Contains(k) {
			sum.count++
			sum.digest += r.sum
		}
	}
	return sum
}

// signAdvert signs this peer's ownership advert when an identity is wired,
// and returns the empty (absent) signature otherwise.
func (m *Manager) signAdvert(rng keyspace.Range, epoch uint64) auth.AdvertSig {
	if m.SignAdvert == nil {
		return auth.AdvertSig{}
	}
	return m.SignAdvert(rng, epoch)
}

// AdvertInfo implements datastore.Replicator: the latest ownership advert
// this peer received from the origin at addr, plus the local time it
// arrived. The maintenance loop of the origin's successor reads it to decide
// lease expiry: an adjacent predecessor whose advert is older than the lease
// duration has stopped renewing and its range may be adopted.
func (m *Manager) AdvertInfo(addr transport.Addr) (keyspace.Range, uint64, time.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.adverts[addr]
	return a.Range, a.Epoch, a.RenewedAt, ok
}

// MaxAdvertisedEpoch implements datastore.Replicator: the highest ownership
// epoch any origin has advertised (via pushes) for a range overlapping r.
func (m *Manager) MaxAdvertisedEpoch(r keyspace.Range) uint64 {
	var max uint64
	m.mu.Lock()
	for _, a := range m.adverts {
		if a.Range.Overlaps(r) && a.Epoch > max {
			max = a.Epoch
		}
	}
	m.mu.Unlock()
	return max
}

// pullReq asks a peer for every replica (and own item) it holds in a range;
// used by orphaned peers reconstructing a range they now own.
type pullReq struct{ Range keyspace.Range }

// pullResp carries the pulled items plus the highest ownership epoch the
// answering peer has seen asserted for the range (adverts it holds and its
// own primary claim), so the puller can claim its new incarnation above it.
type pullResp struct {
	Items    []datastore.Item
	MaxEpoch uint64
}

func (m *Manager) handlePull(_ transport.Addr, req pullReq) (pullResp, error) {
	resp := pullResp{MaxEpoch: m.MaxAdvertisedEpoch(req.Range)}
	m.mu.Lock()
	for k, r := range m.replicas {
		if req.Range.Contains(k) {
			resp.Items = append(resp.Items, r.Item)
		}
	}
	m.mu.Unlock()
	for _, it := range m.ds.LocalItems() {
		if req.Range.Contains(it.Key) {
			resp.Items = append(resp.Items, it)
		}
	}
	if rng, epoch, ok := m.ds.RangeEpoch(); ok && rng.Overlaps(req.Range) && epoch > resp.MaxEpoch {
		resp.MaxEpoch = epoch
	}
	return resp, nil
}

// replicaScanReq asks a peer for every item it can see inside the interval —
// held replicas plus its own Data Store items. It is the read path's
// availability fallback: when a segment's primary owner is unreachable, the
// origin retries the segment against the owner's successors, which hold its
// replicas. The answer is bounded-staleness by construction — a replica
// lags its origin by at most one replication refresh (RefreshPeriod plus a
// push in flight) — so journaled Definition 4 queries never use it; only
// unjournaled operational reads fall back here.
type replicaScanReq struct {
	Iv keyspace.Interval
	// Epoch is the ownership epoch of the primary the requester believes it
	// is falling back from; 0 = unfenced. A replica holder that has seen a
	// strictly higher epoch asserted over the interval refuses with
	// ErrStaleEpoch: the believed primary's whole chain is deposed, and
	// serving its stale replica set would resurrect a superseded
	// incarnation's view.
	Epoch uint64
}

// staleChainEpochLocked reports the highest epoch this peer has seen
// asserted over any part of iv — adverts plus its own primary claim.
// Callers hold m.mu.
func (m *Manager) staleChainEpochLocked(iv keyspace.Interval) uint64 {
	var max uint64
	for _, a := range m.adverts {
		if _, ok := iv.ClipToRange(a.Range); ok && a.Epoch > max {
			max = a.Epoch
		}
	}
	if rng, epoch, ok := m.ds.RangeEpoch(); ok && epoch > max {
		if _, overlaps := iv.ClipToRange(rng); overlaps {
			max = epoch
		}
	}
	return max
}

func (m *Manager) handleReplicaScan(_ transport.Addr, req replicaScanReq) ([]datastore.Item, error) {
	if !req.Iv.Valid() {
		return nil, fmt.Errorf("replication: empty replica scan interval %v", req.Iv)
	}
	if req.Epoch != 0 {
		m.mu.Lock()
		seen := m.staleChainEpochLocked(req.Iv)
		m.mu.Unlock()
		if seen > req.Epoch {
			m.StaleChainRefusals.Add(1)
			return nil, fmt.Errorf("%w: replica read for primary epoch %d, epoch %d observed over %v",
				datastore.ErrStaleEpoch, req.Epoch, seen, req.Iv)
		}
	}
	m.ReplicaServes.Add(1)
	seen := make(map[keyspace.Key]datastore.Item)
	m.mu.Lock()
	for k, r := range m.replicas {
		if req.Iv.Contains(k) {
			seen[k] = r.Item
		}
	}
	m.mu.Unlock()
	// Own items win over held replicas: they are this peer's authoritative
	// state for any key it currently serves.
	for _, it := range m.ds.LocalItems() {
		if req.Iv.Contains(it.Key) {
			seen[it.Key] = it
		}
	}
	out := make([]datastore.Item, 0, len(seen))
	for _, it := range seen {
		out = append(out, it)
	}
	slices.SortFunc(out, func(a, b datastore.Item) int { return cmp.Compare(a.Key, b.Key) })
	return out, nil
}

// RefreshOnce brings this peer's first k JOINED successors up to date with
// its item set: see refresh for what is sent. Pushes are bulk calls: a push
// whose encoding exceeds the transport frame size streams across in chunks
// and commits atomically at each replica.
//
// Each push advertises this peer's ownership epoch, and the replies carry
// the verdict: a successor whose own claim covers our range at a strictly
// higher epoch answers Deposed — proof that the failure detector wrongly
// declared us dead and our range was revived while we kept serving. The
// losing incarnation (us) must then step down; this reply path is what
// bounds the dual-claim window to one replication refresh.
func (m *Manager) RefreshOnce() {
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.CallTimeout)
	defer cancel()
	res := m.refresh(ctx, m.cfg.Factor)
	if res.deposedBy > 0 {
		m.ds.StepDown(res.deposedBy)
		return
	}
	// Lease renewal is evidence-based: the lease renews only when at least
	// one successor answered this refresh without deposing us — proof the
	// push (and with it our advert/renewal) actually landed somewhere; a
	// heartbeat is as good as any other shape. A peer whose pushes all fail
	// stops renewing and its lease lapses, which is exactly the wedged-owner
	// case leases exist to bound. A single-peer ring (no successors) renews
	// vacuously: there is no one to prove anything to and no one who could
	// adopt (as does a peer serving no range, for which renewal is a no-op).
	if res.landed || res.targets == 0 {
		m.ds.RenewLease()
	}
}

// refreshResult is what one round of pushes established.
type refreshResult struct {
	targets   int    // successors pushed to (none when this peer serves no range)
	landed    bool   // some successor recorded our advert without deposing us
	deposedBy uint64 // highest epoch a successor deposed us with; 0 = none
	err       error  // first transport or handler error
}

// refresh applies what changed in the Data Store since the last refresh
// (datastore.Store.TakeChanges) to the set last pushed and sends each of
// the first fanout successors the smallest shape that brings it to the
// current version: the delta if it acknowledged the previous version (a
// heartbeat when nothing changed since), the full set otherwise — and the
// full set, in the same refresh, to any successor that answers NeedFull. The
// pushes of a round are independent, so they are issued as one pipelined
// burst instead of sequential round trips: one slow replica does not stretch
// the refresh to k deadlines.
func (m *Manager) refresh(ctx context.Context, fanout int) (res refreshResult) {
	m.pushMu.Lock()
	defer m.pushMu.Unlock()
	ch, ok := m.ds.TakeChanges()
	if !ok {
		return res
	}
	self := m.ring.Self()
	succs := m.ring.Successors()
	if len(succs) > fanout {
		succs = succs[:fanout]
	}
	res.targets = len(succs)

	o := &m.origin
	if ch.Full {
		// A new incarnation (or the first refresh) starts from the empty set
		// with no successor acknowledged, so everyone is sent the full set.
		*o = originState{sig: m.signAdvert(ch.Range, ch.Epoch), version: o.version + 1,
			set: make(map[keyspace.Key]replica, len(ch.Items))}
	}
	base, puts, dels := o.apply(ch.Items, ch.Gone)

	// The delta from base is the heartbeat when nothing changed: Base equals
	// Version and there is nothing to apply. The full set's items are built
	// only when some successor needs them.
	delta := pushMsg{From: self, Range: ch.Range, Epoch: ch.Epoch, Sig: o.sig,
		Base: base, Version: o.version, Items: puts, Deletes: dels, Count: len(o.set), Digest: o.digest}
	full := delta
	full.Full, full.Base, full.Items, full.Deletes = true, 0, nil, nil

	// A successor's acknowledgement is forgotten the moment it is pushed to:
	// until it answers, what it holds is unknown, and a push whose reply is
	// lost is followed by a full one. Successors that dropped out of the list
	// are forgotten the same way.
	prev := o.acked
	o.acked = make(map[transport.Addr]uint64, len(succs))
	targets := make([]transport.Addr, len(succs))
	for i, succ := range succs {
		targets[i] = succ.Addr
	}
	for round := 0; round < 2 && len(targets) > 0; round++ {
		pends := make([]*transport.PendingOf[pushResp], len(targets))
		for i, to := range targets {
			msg := delta
			if ack, ok := prev[to]; !ok || ack != base || round > 0 {
				if full.Items == nil {
					full.Items = o.items() // non-nil: built once
				}
				msg = full
			}
			switch {
			case msg.Full:
				m.FullPushes.Add(1)
			case msg.Base == msg.Version:
				m.HeartbeatPushes.Add(1)
			default:
				m.DeltaPushes.Add(1)
			}
			pends[i] = methodPush.CallBulkAsync(ctx, m.net, self.Addr, to, msg)
		}
		var needFull []transport.Addr
		for i, p := range pends {
			pr, err := p.Result()
			if err != nil {
				if res.err == nil {
					res.err = err
				}
				continue
			}
			switch {
			case pr.Deposed:
				if pr.Epoch > res.deposedBy {
					res.deposedBy = pr.Epoch
				}
			case pr.NeedFull:
				res.landed = true
				m.NeedFulls.Add(1)
				needFull = append(needFull, targets[i])
			default:
				res.landed = true
				o.acked[targets[i]] = o.version
			}
		}
		targets = needFull
	}
	return res
}

// BeforeLeave implements the replicate-to-additional-hop rule (Section 5.2):
// before departing, push our own items to one extra successor (the k+1st)
// and push the replicas we hold one hop further (to our first successor), so
// no item's replica count drops when we vanish. The naive baseline does
// nothing and loses items in the Figure 17 scenario.
func (m *Manager) BeforeLeave(ctx context.Context) error {
	if m.cfg.Naive {
		return nil
	}
	if _, ok := m.ds.Range(); !ok {
		return nil
	}
	self := m.ring.Self()
	succs := m.ring.Successors()
	if len(succs) == 0 {
		return nil
	}
	// Held replicas one extra hop: hand them to our first successor, which
	// sits one hop beyond us in every replica group we belong to. They go as
	// one raw merge (epoch 0: puts only, nothing reconciled away), so they
	// never delete another origin's data; where they overwrite fresher state,
	// that origin's next push fails the holder's digest check and repairs it.
	held := methodPush.CallBulkAsync(ctx, m.net, self.Addr, succs[0].Addr,
		pushMsg{From: self, Items: m.HeldReplicas()})
	// Own items one extra hop: an ordinary refresh, to k+1 successors instead
	// of k.
	err := m.refresh(ctx, m.cfg.Factor+1).err
	if _, herr := held.Result(); err == nil {
		err = herr
	}
	return err
}

// Revive implements datastore.Replicator: return held replicas in r, used
// when this peer absorbs a failed predecessor's range.
func (m *Manager) Revive(r keyspace.Range) []datastore.Item {
	var out []datastore.Item
	m.mu.Lock()
	for k, held := range m.replicas {
		if r.Contains(k) {
			out = append(out, held.Item)
		}
	}
	m.mu.Unlock()
	return out
}

// PullRange implements datastore.Replicator: fetch replicas in r from our
// successors (used by orphaned peers that hold nothing locally). The pulls
// fan out concurrently as bulk calls — the answers are whole ranges, so they
// stream back chunked when they outgrow a frame — and the union of whatever
// arrives is the result, together with the highest ownership epoch any
// holder had seen asserted for r (so the puller claims above it).
func (m *Manager) PullRange(ctx context.Context, r keyspace.Range) ([]datastore.Item, uint64) {
	seen := make(map[keyspace.Key]datastore.Item)
	self := m.ring.Self()
	succs := m.ring.Successors()
	pends := make([]*transport.PendingOf[pullResp], 0, len(succs))
	for _, succ := range succs {
		pends = append(pends, methodPull.CallBulkAsync(ctx, m.net, self.Addr, succ.Addr, pullReq{Range: r}))
	}
	var maxEpoch uint64
	for _, p := range pends {
		pr, err := p.Result()
		if err != nil {
			continue
		}
		if pr.MaxEpoch > maxEpoch {
			maxEpoch = pr.MaxEpoch
		}
		for _, it := range pr.Items {
			seen[it.Key] = it
		}
	}
	out := make([]datastore.Item, 0, len(seen))
	for _, it := range seen {
		out = append(out, it)
	}
	return out, maxEpoch
}
