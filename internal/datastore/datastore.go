// Package datastore implements the Data Store component of the indexing
// framework (Section 2.2) in its P-Ring form (Section 2.3), extended with
// the paper's correctness primitives:
//
//   - items are assigned to peers by the order-preserving identity map M, so
//     a peer p stores exactly the items whose search key value falls in
//     p.range = (pred(p).val, p.val];
//   - storage balance is maintained with a storage factor sf: a peer
//     overflowing past 2·sf splits its range with a free peer, a peer
//     underflowing below sf redistributes with or merges into its successor
//     (Section 2.3);
//   - scanRange (Section 4.3.2, Algorithms 3–5) walks the ring under
//     hand-over-hand range read-locks, invoking a registered handler on
//     every peer whose range intersects the scan, and aborts whenever it
//     lands on a peer that no longer owns the continuation point — the
//     query layer retries, so results are never silently wrong
//     (Theorems 2 and 3);
//   - the naive unlocked scan of Section 6.2 is provided as the baseline; it
//     exhibits the missed-results anomaly of Section 4.2.2.
//
// Every item mutation is journaled to the shared history log so tests can
// check executions against Definitions 3 and 4.
package datastore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/keyspace"
	"repro/internal/metrics"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Item is a (search key value, payload) pair stored in the index. The paper
// makes no distinction between items and pointers to items (Section 2.1).
type Item struct {
	Key     keyspace.Key
	Payload string
}

// Handler is a scan handler invoked at each peer the scan visits, with the
// items of this peer falling in the visited sub-interval (sorted by key),
// the sub-interval itself, and the scan parameter. The returned value
// replaces the parameter for downstream peers (Algorithm 4 line 3).
type Handler func(items []Item, piece keyspace.Interval, param any) any

// Replicator is the Data Store's view of the Replication Manager.
type Replicator interface {
	// ItemsChanged signals that local items changed and replicas should be
	// refreshed soon.
	ItemsChanged()
	// BeforeLeave pushes this peer's items and held replicas one additional
	// hop before a merge departure (Section 5.2).
	BeforeLeave(ctx context.Context) error
	// Revive returns locally held replicas whose keys fall in r, used when
	// this peer absorbs a failed predecessor's range.
	Revive(r keyspace.Range) []Item
	// PullRange fetches replicas in r from ring successors, used when this
	// peer was adopted as an orphan and holds nothing locally. The second
	// result is the highest ownership epoch any contacted holder had seen
	// advertised for r, so the adopter can claim the range above it.
	PullRange(ctx context.Context, r keyspace.Range) ([]Item, uint64)
	// MaxAdvertisedEpoch reports the highest ownership epoch this peer has
	// seen advertised (via replication pushes) for any range overlapping r;
	// 0 when none. Failure revival claims the revived range above it, so the
	// revived incarnation provably fences the one it replaces.
	MaxAdvertisedEpoch(r keyspace.Range) uint64
	// AdvertInfo reports the latest ownership advert received from the
	// origin at addr — its range, epoch, and the local time the advert
	// arrived (the origin's last observed lease renewal). ok is false when
	// no advert from addr was ever received. The lease-expiry check in the
	// maintenance loop reads it for this peer's ring predecessor.
	AdvertInfo(addr transport.Addr) (keyspace.Range, uint64, time.Time, bool)
}

// FreePool hands out free peers for splits and takes back merged peers
// (the P-Ring free-peer model, Section 2.3).
type FreePool interface {
	// Acquire reserves a free peer — fully constructed, registered on the
	// network and ready to receive a ring join — returning its address. The
	// error explains WHERE acquisition failed (the local pool, the gossiped
	// directory, a contacted remote pool) so a failed split in a smoke run
	// is attributable to a peer instead of a bare "no free peer".
	Acquire() (transport.Addr, error)
	// Release returns a peer to the free pool after it merged away.
	Release(addr transport.Addr)
}

// Config controls Data Store behaviour.
type Config struct {
	// StorageFactor is sf: each peer aims to hold between sf and 2·sf items
	// (paper default 5, Section 6.1).
	StorageFactor int
	// CheckPeriod is how often the balance maintenance loop wakes up in
	// addition to explicit triggers.
	CheckPeriod time.Duration
	// CallTimeout bounds scan lock acquisition and protocol RPCs.
	CallTimeout time.Duration
	// MaintenanceTimeout bounds one split/merge/redistribute execution.
	MaintenanceTimeout time.Duration
	// DisableMaintenance turns off automatic balancing (tests drive it).
	DisableMaintenance bool
	// LeaseDuration enables time-bound leases on range claims when positive.
	// A claim whose lease is not renewed within this duration (renewals ride
	// the owner's replication refresh — see replication.Manager.RefreshOnce)
	// is treated as orphaned: the owner's ring successor adopts the range at
	// a strictly higher epoch, bounding the stale-claim window that epochs
	// alone cannot close (a wedged-but-alive owner otherwise keeps its claim
	// until one of its own pushes happens to be deposed). Must be several
	// times the replication RefreshPeriod, or healthy owners expire between
	// renewals. Zero disables leases entirely: claims never expire and no
	// lease events are journaled — the pre-lease behaviour.
	LeaseDuration time.Duration

	// Optional recorders for the benchmark harness (Section 6 metrics); nil
	// recorders are skipped.
	InsertSuccRecorder *metrics.Recorder // duration of each ring insertSucc during splits (Figs. 19, 20, 23)
	LeaveRecorder      *metrics.Recorder // duration of each ring leave during merges (Fig. 22)
	MergeRecorder      *metrics.Recorder // duration of each full merge operation (Fig. 22)
}

func (c Config) withDefaults() Config {
	if c.StorageFactor <= 0 {
		c.StorageFactor = 5
	}
	if c.CheckPeriod <= 0 {
		c.CheckPeriod = 50 * time.Millisecond
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 50 * time.Millisecond
	}
	if c.MaintenanceTimeout <= 0 {
		c.MaintenanceTimeout = 5 * time.Second
	}
	return c
}

// RPC method names.
const (
	methodScan        = "ds.scan"
	methodScanSegment = "ds.scanSegment"
	methodScanAbort   = "ds.scanAbort"
	methodInsert      = "ds.insertItem"
	methodDelete      = "ds.deleteItem"
	methodLocalItems  = "ds.localItems"
	methodNaiveStep   = "ds.naiveStep"
	methodRebalance   = "ds.rebalance"
	methodMergeIn     = "ds.mergeIn"
)

// Errors surfaced by Data Store operations.
var (
	ErrNotOwner   = errors.New("datastore: peer does not own the key")
	ErrNoRange    = errors.New("datastore: peer has no assigned range")
	ErrLockBusy   = errors.New("datastore: range lock acquisition timed out")
	ErrNoSucc     = errors.New("datastore: no stabilized successor to forward to")
	ErrMaintBusy  = errors.New("datastore: maintenance already in progress")
	ErrNotInRing  = errors.New("datastore: peer is not serving a ring range")
	ErrWrongState = errors.New("datastore: unexpected rebalance state")
	// ErrStaleEpoch rejects a request stamped with an ownership epoch other
	// than the serving peer's current one: the requester's view of who owns
	// the range (or which incarnation of the owner) is stale. It is
	// registered as a wire error, so errors.Is recognizes it across the TCP
	// transport as well as in-process.
	ErrStaleEpoch = errors.New("datastore: stale ownership epoch")
)

// Store is one peer's Data Store.
type Store struct {
	cfg     Config
	net     transport.Transport
	ring    *ring.Peer
	log     *history.Log
	rep     Replicator
	pool    FreePool
	backend storage.Backend // write-ahead engine; never nil (Memory default)

	rangeLock RangeLock // guards range ownership during scans/maintenance

	mu       sync.Mutex // guards the fields below
	hasRange bool
	rng      keyspace.Range
	epoch    uint64 // ownership epoch of rng; bumped on every range change
	// leaseRenewedAt is the unix-nanosecond time of the current claim's last
	// lease renewal (grant time when never renewed); 0 when no claim is held
	// or leases are disabled. After a recovery it is restored from the WAL
	// (RestoreLeaseClock), never from the restart time.
	leaseRenewedAt int64
	items          map[keyspace.Key]Item

	handlersMu sync.Mutex
	handlers   map[string]Handler
	onAbort    func(param any)

	maintMu   sync.Mutex // serializes split/merge/redistribute on this peer
	maintKick chan struct{}
	lifeMu    sync.Mutex // guards started/stopped transitions vs wg
	started   bool
	stopped   bool
	stopCh    chan struct{}
	wg        sync.WaitGroup

	scanSeq atomic.Uint64

	// Counters for tests and benches.
	Splits        atomic.Uint64
	Merges        atomic.Uint64
	Redistributes atomic.Uint64
	ScanAborts    atomic.Uint64
	// StaleEpochRejects counts requests rejected with ErrStaleEpoch (or the
	// segment scan's StaleEpoch verdict): fencing doing its job.
	StaleEpochRejects atomic.Uint64
	// StepDowns counts depositions: this peer learned a higher-epoch owner
	// had claimed its range and resigned (see StepDown).
	StepDowns atomic.Uint64
	// LeaseAdoptions counts expired-lease adoptions performed by this peer:
	// its ring predecessor stopped renewing and this peer absorbed the
	// orphaned range at a strictly higher epoch (see checkPredLease).
	LeaseAdoptions atomic.Uint64
}

// New constructs a Data Store for one peer and registers its RPC handlers on
// the peer's mux. The replicator and free pool may be set later (SetDeps)
// since construction order is circular in practice.
func New(net transport.Transport, mux *transport.Mux, rp *ring.Peer, log *history.Log, cfg Config) *Store {
	s := &Store{
		cfg:       cfg.withDefaults(),
		net:       net,
		ring:      rp,
		log:       log,
		backend:   storage.NewMemory(),
		items:     make(map[keyspace.Key]Item),
		handlers:  make(map[string]Handler),
		maintKick: make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
	}
	mux.Handle(methodScan, s.handleScan)
	mux.Handle(methodScanSegment, s.handleScanSegment)
	mux.Handle(methodScanAbort, s.handleScanAbort)
	mux.Handle(methodInsert, s.handleInsert)
	mux.Handle(methodDelete, s.handleDelete)
	mux.Handle(methodLocalItems, s.handleLocalItems)
	mux.Handle(methodNaiveStep, s.handleNaiveStep)
	mux.Handle(methodRebalance, s.handleRebalance)
	mux.Handle(methodMergeIn, s.handleMergeIn)
	return s
}

// SetDeps wires the replication manager and free pool.
func (s *Store) SetDeps(rep Replicator, pool FreePool) {
	s.rep = rep
	s.pool = pool
}

// SetBackend replaces the storage engine (default: a fresh storage.Memory).
// Must be called before the peer starts serving; the core assembly path
// calls it right after construction.
func (s *Store) SetBackend(b storage.Backend) {
	if b != nil {
		s.backend = b
	}
}

// Start launches the balance maintenance loop (idempotent; a no-op after
// Stop, so late joins cannot race a cluster shutdown).
func (s *Store) Start() {
	if s.cfg.DisableMaintenance {
		return
	}
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.started || s.stopped {
		return
	}
	s.started = true
	s.wg.Add(1)
	go s.maintainLoop()
}

// signalStop requests loop termination without waiting (safe from the
// maintenance loop itself).
func (s *Store) signalStop() {
	s.lifeMu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stopCh)
	}
	s.lifeMu.Unlock()
}

// Stop halts background work and waits for it.
func (s *Store) Stop() {
	s.signalStop()
	s.wg.Wait()
}

// Addr returns this peer's network address.
func (s *Store) Addr() transport.Addr { return s.ring.Self().Addr }

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
	if s.log != nil {
		s.log.Claimed(string(s.ring.Self().Addr), rng, epoch)
	}
	if s.cfg.LeaseDuration > 0 {
		// Every leased claim starts with a fresh lease: grant time = claim
		// time. The RecLease append re-stamps the clock durably (the claim's
		// replay reset it) and the grant event pairs with the Claimed one in
		// the journal for the CheckLeases audit.
		now := time.Now().UnixNano()
		s.leaseRenewedAt = now
		_ = s.backend.Append(storage.Record{Kind: storage.RecLease, Epoch: epoch, Key: keyspace.Key(now)})
		if s.log != nil {
			s.log.LeaseGranted(string(s.ring.Self().Addr), rng, epoch)
		}
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
		if s.log != nil {
			s.log.LeaseReleased(string(s.ring.Self().Addr), s.rng, s.epoch)
		}
	}
}

// walPutAllLocked write-ahead journals every current item under the current
// incarnation's epoch: the bulk-install sites (join hand-off, orphan
// adoption, merge absorption, revival) call it right after claimLocked so
// replay rebuilds the installed items. Callers hold s.mu.
func (s *Store) walPutAllLocked() {
	for _, it := range s.items {
		_ = s.backend.Append(storage.Record{Kind: storage.RecPut, Epoch: s.epoch, Key: it.Key, Payload: it.Payload})
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

// RenewLease advances the current claim's lease clock to now, journaling the
// renewal durably (WAL) and to the history log. The replication manager
// calls it from RefreshOnce after at least one successor acknowledged the
// refresh without deposing this peer — the renewal is evidence the owner is
// still observably serving, not a self-certification. No-op when leases are
// disabled or no range is held.
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
	if s.log != nil {
		s.log.LeaseRenewed(string(s.ring.Self().Addr), s.rng, s.epoch)
	}
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
	s.mu.Unlock()
	if conflict {
		go s.StepDown(epoch)
	}
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

// sortedItemsLocked returns items sorted clockwise from the range start.
func (s *Store) sortedItemsLocked() []Item {
	out := make([]Item, 0, len(s.items))
	for _, it := range s.items {
		out = append(out, it)
	}
	lo := s.rng.Lo
	sort.Slice(out, func(i, j int) bool {
		return keyspace.Dist(lo, out[i].Key) < keyspace.Dist(lo, out[j].Key)
	})
	return out
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
// Idempotent: the ring's joined callback and the explicit bootstrap path
// both call it, and only the first claims (a duplicate claim at the same
// epoch would read as a fencing failure in the journal's epoch audit).
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
	if s.log != nil {
		s.log.RecoveredClaim(self, rng, epoch)
	}
	for _, it := range items {
		if !rng.Contains(it.Key) {
			continue
		}
		s.items[it.Key] = it
		if s.log != nil {
			s.log.Added(self, it.Key)
		}
	}
}

// owns reports whether key is in this peer's range.
func (s *Store) owns(key keyspace.Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hasRange && s.rng.Contains(key)
}

// kickMaintenance nudges the balance loop.
func (s *Store) kickMaintenance() {
	select {
	case s.maintKick <- struct{}{}:
	default:
	}
}

// --- Item operations -------------------------------------------------------

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

// Mutation replies carry the serving peer's ownership metadata so a dial-side
// client can prime its route cache from every write, not just from lookups
// and scans (peers ignore the extra fields).
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

// handleInsert stores an item this peer owns (the owner side of insertItem).
func (s *Store) handleInsert(_ transport.Addr, _ string, payload any) (any, error) {
	req, ok := payload.(insertReq)
	if !ok {
		return nil, fmt.Errorf("datastore: bad insert payload %T", payload)
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.CallTimeout)
	defer cancel()
	// The range read lock keeps the boundary stable while we decide
	// ownership; concurrent scans are fine (shared mode).
	if err := s.rangeLock.RLock(ctx); err != nil {
		return nil, ErrLockBusy
	}
	defer s.rangeLock.RUnlock()
	s.mu.Lock()
	if !s.hasRange || !s.rng.Contains(req.Item.Key) {
		s.mu.Unlock()
		return nil, ErrNotOwner
	}
	if err := s.checkEpochLocked(req.Epoch); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	// Write-ahead before the in-memory mutation, still inside the critical
	// section: a mutation the requester sees acknowledged is in the log (up
	// to the backend's sync-interval batching), and the WAL order matches
	// the journal order below. A refused append refuses the insert.
	if err := s.backend.Append(storage.Record{Kind: storage.RecPut, Epoch: s.epoch, Key: req.Item.Key, Payload: req.Item.Payload}); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.items[req.Item.Key] = req.Item
	// Journal before releasing s.mu: scan piece snapshots are taken under
	// s.mu, so journaling inside the critical section keeps the journal's
	// sequence order consistent with the order scans observe state. A
	// mutation journaled after the unlock could be sequenced after a query
	// that already saw its effect, and the Definition 4 checker would then
	// flag a phantom violation (the TestSoakMixedWorkload flake).
	if s.log != nil {
		s.log.Added(string(s.ring.Self().Addr), req.Item.Key)
	}
	meta := OwnerMeta{Range: s.rng, Epoch: s.epoch}
	s.mu.Unlock()
	meta.Chain = s.ring.Successors()
	if s.rep != nil {
		s.rep.ItemsChanged()
	}
	s.kickMaintenance()
	return insertResp{OwnerMeta: meta}, nil
}

// handleDelete removes an item this peer owns.
func (s *Store) handleDelete(_ transport.Addr, _ string, payload any) (any, error) {
	req, ok := payload.(deleteReq)
	if !ok {
		return nil, fmt.Errorf("datastore: bad delete payload %T", payload)
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.CallTimeout)
	defer cancel()
	if err := s.rangeLock.RLock(ctx); err != nil {
		return nil, ErrLockBusy
	}
	defer s.rangeLock.RUnlock()
	s.mu.Lock()
	if !s.hasRange || !s.rng.Contains(req.Key) {
		s.mu.Unlock()
		return nil, ErrNotOwner
	}
	if err := s.checkEpochLocked(req.Epoch); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	_, found := s.items[req.Key]
	if found {
		// Write-ahead, then mutate, then journal — see handleInsert.
		if err := s.backend.Append(storage.Record{Kind: storage.RecDelete, Epoch: s.epoch, Key: req.Key}); err != nil {
			s.mu.Unlock()
			return nil, err
		}
		delete(s.items, req.Key)
		// Journal under s.mu; see handleInsert for why.
		if s.log != nil {
			s.log.Removed(string(s.ring.Self().Addr), req.Key)
		}
	}
	meta := OwnerMeta{Range: s.rng, Epoch: s.epoch}
	s.mu.Unlock()
	meta.Chain = s.ring.Successors()
	if found {
		if s.rep != nil {
			s.rep.ItemsChanged()
		}
		s.kickMaintenance()
	}
	return deleteResp{Found: found, OwnerMeta: meta}, nil
}

// handleLocalItems returns this peer's items (getLocalItems over the wire).
func (s *Store) handleLocalItems(_ transport.Addr, _ string, _ any) (any, error) {
	return s.LocalItems(), nil
}

// InsertAt asks the peer at addr to store item, returning ErrNotOwner if it
// does not own the key (the caller re-routes). The request is unfenced; use
// InsertAtFenced when the believed ownership epoch is known.
func (s *Store) InsertAt(ctx context.Context, addr transport.Addr, item Item) error {
	return s.InsertAtFenced(ctx, addr, item, 0)
}

// InsertAtFenced is InsertAt with the request stamped with the ownership
// epoch the caller believes current (0 = unfenced). A mismatch fails with
// ErrStaleEpoch and the caller must refetch its route.
func (s *Store) InsertAtFenced(ctx context.Context, addr transport.Addr, item Item, epoch uint64) error {
	_, err := s.net.Call(ctx, s.Addr(), addr, methodInsert, insertReq{Item: item, Epoch: epoch})
	return err
}

// DeleteAt asks the peer at addr to delete key (unfenced; see DeleteAtFenced).
func (s *Store) DeleteAt(ctx context.Context, addr transport.Addr, key keyspace.Key) (bool, error) {
	return s.DeleteAtFenced(ctx, addr, key, 0)
}

// DeleteAtFenced is DeleteAt stamped with the believed ownership epoch.
func (s *Store) DeleteAtFenced(ctx context.Context, addr transport.Addr, key keyspace.Key, epoch uint64) (bool, error) {
	resp, err := s.net.Call(ctx, s.Addr(), addr, methodDelete, deleteReq{Key: key, Epoch: epoch})
	if err != nil {
		return false, err
	}
	dr, ok := resp.(deleteResp)
	if !ok {
		return false, fmt.Errorf("datastore: bad delete response %T", resp)
	}
	return dr.Found, nil
}

// --- scanRange --------------------------------------------------------------
//
// The hand-over-hand scan below is the paper's protocol verbatim (Section
// 4.3.2, Algorithms 3–5) and the reference implementation its correctness
// theorems are stated against; the datastore test suite exercises it
// directly. The production query path in package core uses the pipelined
// segment scan further down (handleScanSegment), which trades the continuous
// lock chain for per-segment validation plus an origin-side cover check —
// see the "Read path" section of ARCHITECTURE.md for the argument.

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
	_, err := s.net.Call(ctx, s.Addr(), firstPeer, methodScan, msg)
	return err
}

// handleScan is processScan (Algorithm 5): acquire the range read lock,
// validate the continuation point, then run the handler and forwarding
// asynchronously so the predecessor can release its own lock.
func (s *Store) handleScan(_ transport.Addr, _ string, payload any) (any, error) {
	msg, ok := payload.(scanMsg)
	if !ok {
		return nil, fmt.Errorf("datastore: bad scan payload %T", payload)
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.CallTimeout)
	defer cancel()
	if err := s.rangeLock.RLock(ctx); err != nil {
		s.ScanAborts.Add(1)
		return nil, ErrLockBusy
	}
	s.mu.Lock()
	owns := s.hasRange && s.rng.Contains(msg.Cursor)
	s.mu.Unlock()
	if !owns {
		s.rangeLock.RUnlock()
		s.ScanAborts.Add(1)
		return nil, ErrNotOwner
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
	var pieceItems []Item
	for k, it := range s.items {
		if piece.Contains(k) {
			pieceItems = append(pieceItems, it)
		}
	}
	s.mu.Unlock()
	sort.Slice(pieceItems, func(i, j int) bool { return pieceItems[i].Key < pieceItems[j].Key })

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
		s.net.Send(s.Addr(), msg.Origin, methodScanAbort, abortMsg{ID: msg.ID, Param: msg.Param, Reason: err.Error()})
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
		_, err := s.net.Call(ctx, s.Addr(), succ.Addr, methodScan, msg)
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
func (s *Store) handleScanAbort(_ transport.Addr, _ string, payload any) (any, error) {
	msg, ok := payload.(abortMsg)
	if !ok {
		return nil, fmt.Errorf("datastore: bad abort payload %T", payload)
	}
	s.handlersMu.Lock()
	fn := s.onAbort
	s.handlersMu.Unlock()
	if fn != nil {
		fn(msg.Param)
	}
	return true, nil
}

// --- Pipelined segment scan (read path) -------------------------------------

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
func (s *Store) handleScanSegment(_ transport.Addr, _ string, payload any) (any, error) {
	req, ok := payload.(segmentReq)
	if !ok {
		return nil, fmt.Errorf("datastore: bad segment payload %T", payload)
	}
	if !req.Iv.Valid() || !req.Iv.Contains(req.Cursor) {
		return nil, fmt.Errorf("datastore: bad segment cursor %d for %v", req.Cursor, req.Iv)
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.CallTimeout)
	defer cancel()
	if err := s.rangeLock.RLock(ctx); err != nil {
		s.ScanAborts.Add(1)
		return nil, ErrLockBusy
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
	var pieceItems []Item
	for k, it := range s.items {
		if piece.Contains(k) {
			pieceItems = append(pieceItems, it)
		}
	}
	s.mu.Unlock()
	s.rangeLock.RUnlock()
	sort.Slice(pieceItems, func(i, j int) bool { return pieceItems[i].Key < pieceItems[j].Key })
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
type SegmentPending struct{ p *transport.Pending }

// Result blocks for the segment's outcome.
func (sp *SegmentPending) Result() (SegmentResult, error) {
	resp, err := sp.p.Result()
	if err != nil {
		return SegmentResult{}, err
	}
	res, ok := resp.(SegmentResult)
	if !ok {
		return SegmentResult{}, fmt.Errorf("datastore: bad segment response %T", resp)
	}
	return res, nil
}

// --- Naive application-level scan (Section 6.2 baseline) -------------------

// naiveStepReq asks a peer for its items in the interval plus its view of
// where to go next — no locks and no continuation validation anywhere,
// exactly the application-level scan the paper compares against. The cursor
// only tracks walk progress for termination; it is deliberately NOT checked
// against the peer's range, which is what lets this baseline miss items
// (Section 4.2.2).
type naiveStepReq struct {
	Iv     keyspace.Interval
	Cursor keyspace.Key
}

type naiveStepResp struct {
	Items      []Item
	HasRange   bool
	Covered    bool // this peer's contiguous segment reaches the interval's end
	NextCursor keyspace.Key
	Succ       ring.Node
	HasSucc    bool
}

func (s *Store) handleNaiveStep(_ transport.Addr, _ string, payload any) (any, error) {
	req, ok := payload.(naiveStepReq)
	if !ok {
		return nil, fmt.Errorf("datastore: bad naive step payload %T", payload)
	}
	resp := naiveStepResp{NextCursor: req.Cursor}
	s.mu.Lock()
	resp.HasRange = s.hasRange
	if s.hasRange {
		for k, it := range s.items {
			if req.Iv.Contains(k) {
				resp.Items = append(resp.Items, it)
			}
		}
		if s.rng.Contains(req.Cursor) {
			end, covered := s.rng.ContiguousEnd(req.Cursor, req.Iv.Last())
			resp.Covered = covered
			if !covered {
				resp.NextCursor = end + 1
			}
		}
	}
	s.mu.Unlock()
	if succ, ok := s.ring.FirstStabilizedSuccessor(); ok {
		resp.Succ, resp.HasSucc = succ, true
	} else if succs := s.ring.Successors(); len(succs) > 0 {
		resp.Succ, resp.HasSucc = succs[0], true
	}
	sort.Slice(resp.Items, func(i, j int) bool { return resp.Items[i].Key < resp.Items[j].Key })
	return resp, nil
}

// NaiveScan walks the ring collecting items in iv starting from firstPeer,
// with no locking or continuation validation: the Section 4.2 baseline that
// can miss live items during concurrent maintenance.
func (s *Store) NaiveScan(ctx context.Context, firstPeer transport.Addr, iv keyspace.Interval, maxHops int) ([]Item, int, error) {
	var out []Item
	cur := firstPeer
	cursor := iv.First()
	hops := 0
	for {
		resp, err := s.net.Call(ctx, s.Addr(), cur, methodNaiveStep, naiveStepReq{Iv: iv, Cursor: cursor})
		if err != nil {
			return out, hops, err
		}
		step, ok := resp.(naiveStepResp)
		if !ok {
			return out, hops, fmt.Errorf("datastore: bad naive step response %T", resp)
		}
		out = append(out, step.Items...)
		if step.Covered {
			return out, hops, nil
		}
		cursor = step.NextCursor
		if !step.HasSucc {
			return out, hops, ErrNoSucc
		}
		cur = step.Succ.Addr
		hops++
		if hops > maxHops {
			return out, hops, fmt.Errorf("datastore: naive scan exceeded %d hops", maxHops)
		}
	}
}
