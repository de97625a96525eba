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
// Every change to the item set — a client insert or delete, both sides of a
// hand-off, revival, recovery — is one itemChange applied by applyLocked
// (items.go): written ahead as one batch, applied, and journaled to the
// shared history log in one critical section, so tests can check executions
// against Definitions 3 and 4. ARCHITECTURE.md maps the package's files.
package datastore

import (
	"context"
	"errors"
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

// FreePool is a directory of free peers for splits (the P-Ring free-peer
// model, Section 2.3). It lists candidates and grants nothing: the free peer
// grants itself to one inserter (ring.reserve), so an address handed to two
// splits costs the loser one refused round trip.
type FreePool interface {
	// Acquire draws a candidate free peer — constructed, registered on the
	// network and ready to receive a ring join — returning its address. The
	// error explains WHERE acquisition failed (the local directory, a
	// contacted remote one) so a failed split in a smoke run is attributable
	// to a peer instead of a bare "no free peer".
	Acquire() (transport.Addr, error)
	// Release hands back the peer of a failed split. A split the peer
	// refused (ring.ErrNotFree) drops the address instead.
	Release(addr transport.Addr)
	// Retire reports that this peer's own ring identity is spent (it merged
	// away or stepped down); the owner rebuilds or recycles the process.
	Retire(addr transport.Addr)
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

// The Data Store's RPCs.
var (
	methodScan        = transport.NewMethod[scanMsg, bool]("ds.scan")
	methodScanSegment = transport.NewMethod[segmentReq, SegmentResult]("ds.scanSegment")
	methodScanAbort   = transport.NewMethod[abortMsg, bool]("ds.scanAbort")
	methodInsert      = transport.NewMethod[insertReq, insertResp]("ds.insertItem")
	methodDelete      = transport.NewMethod[deleteReq, deleteResp]("ds.deleteItem")
	methodNaiveStep   = transport.NewMethod[naiveStepReq, naiveStepResp]("ds.naiveStep")
	methodRebalance   = transport.NewMethod[rebalanceReq, rebalanceResp]("ds.rebalance")
	methodMergeIn     = transport.NewMethod[mergeInReq, bool]("ds.mergeIn")
)

// Errors surfaced by Data Store operations.
var (
	ErrNotOwner   = errors.New("datastore: peer does not own the key")
	ErrNoRange    = errors.New("datastore: peer has no assigned range")
	ErrLockBusy   = errors.New("datastore: range lock acquisition timed out")
	ErrNoSucc     = errors.New("datastore: no stabilized successor to forward to")
	ErrMaintBusy  = errors.New("datastore: maintenance already in progress")
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
	// index is the item set in ascending key order, kept beside items by
	// applyLocked, so a piece of a scan is a binary search and one copy
	// (itemsInLocked), not a walk of the map and a sort.
	index []Item
	// The change feed (TakeChanges): the keys applyLocked touched since the
	// last take, and the (range, epoch) that take reported. fed is false
	// before the first take and after a take that found no range; nothing is
	// marked dirty then, because the next take is full.
	dirty    map[keyspace.Key]struct{}
	fed      bool
	fedRng   keyspace.Range
	fedEpoch uint64
	// pendingCarve is this peer's last redistribution carve, kept until its
	// requester has moved on (handleRebalance); nil when there is none.
	pendingCarve *carve

	handlersMu sync.Mutex
	handlers   map[string]Handler
	onAbort    func(param any)

	maintMu sync.Mutex // serializes split/merge/redistribute on this peer
	loops   transport.Runner
	maint   *transport.Task // the balance maintenance loop

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
// the peer's mux. log must be non-nil: every claim, lease and item change is
// journaled to it. The replicator and free pool may be set later (SetDeps)
// since construction order is circular in practice.
func New(net transport.Transport, mux *transport.Mux, rp *ring.Peer, log *history.Log, cfg Config) *Store {
	s := &Store{
		cfg:      cfg.withDefaults(),
		net:      net,
		ring:     rp,
		log:      log,
		backend:  storage.NewMemory(),
		items:    make(map[keyspace.Key]Item),
		handlers: make(map[string]Handler),
	}
	s.maint = transport.NewTask(s.cfg.CheckPeriod, s.maintain)
	methodScan.Handle(mux, s.handleScan)
	methodScanSegment.Handle(mux, s.handleScanSegment)
	methodScanAbort.Handle(mux, s.handleScanAbort)
	methodInsert.Handle(mux, s.handleInsert)
	methodDelete.Handle(mux, s.handleDelete)
	methodNaiveStep.Handle(mux, s.handleNaiveStep)
	methodRebalance.Handle(mux, s.handleRebalance)
	methodMergeIn.Handle(mux, s.handleMergeIn)
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

// Start launches the balance maintenance loop; the owner calls it when the
// peer joins (idempotent; a no-op after Stop, so late joins cannot race a
// cluster shutdown).
func (s *Store) Start() { s.loops.Start(s.maint) }

// maintain is one wakeup of the maintenance loop: watch the predecessor's
// lease, then storage balance (overflow > 2·sf, underflow < sf), running
// splits, merges and redistributions (Section 2.3).
func (s *Store) maintain() {
	s.checkPredLease()
	s.CheckBalance()
}

// Stop halts background work and waits for it. A peer departing from inside
// its own maintenance loop signals the loop instead (s.loops.Signal).
func (s *Store) Stop() { s.loops.Stop() }

// Addr returns this peer's network address.
func (s *Store) Addr() transport.Addr { return s.ring.Self().Addr }
