package core

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/datastore"
	"repro/internal/history"
	"repro/internal/keyspace"
	"repro/internal/ops"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Standalone support: one OS process hosting a single peer stack over a real
// transport (cmd/pepperd -listen), the first step toward multi-machine
// clusters. The bootstrap process owns an AddrPool — the free-peer pool of
// the P-Ring Data Store, populated by remote processes announcing
// themselves — and splits draw remote peers from it: every protocol message
// of the resulting membership change crosses the real wire.

var (
	// methodAnnounceFree registers a remote process's peer in the bootstrap
	// node's free pool.
	methodAnnounceFree = transport.NewMethod[announceMsg, bool]("core.announceFree")

	// methodProbe serves operational probes: a thin RPC client (pepperd
	// -probe, the CI cluster smoke) asks a running process for its state and
	// optionally has it execute a range query and a journal audit on the
	// prober's behalf. The request and the status are the versioned ops
	// contract of internal/ops.
	methodProbe = transport.NewMethod[ops.ProbeRequest, ops.ProbeStatus]("core.probe")

	// methodAcquireFree lends a pooled free peer to a remote process's split;
	// an empty address means the pool had none. Free peers announce only to
	// the bootstrap, so without this an overflowed non-bootstrap peer could
	// never split: its local pool is always empty.
	methodAcquireFree = transport.NewMethod[transport.None, announceMsg]("core.acquireFree")
)

// announceMsg announces a free peer's dialable address.
type announceMsg struct {
	Addr transport.Addr
}

// Probe asks the standalone process at addr for its status; any process (or
// a bare transport client like pepperd -probe) can issue it.
func Probe(ctx context.Context, tr transport.Transport, from, addr transport.Addr, req ops.ProbeRequest) (ops.ProbeStatus, error) {
	return methodProbe.Call(ctx, tr, from, addr, req)
}

// handleProbe serves methodProbe against the current peer stack.
func (s *Standalone) handleProbe(_ transport.Addr, req ops.ProbeRequest) (ops.ProbeStatus, error) {
	p := s.CurrentPeer()
	resp := ops.ProbeStatus{
		SchemaVersion: ops.SchemaVersion,
		State:         p.Ring.State().String(),
		Val:           p.Ring.Self().Val,
		Items:         p.Store.ItemCount(),
		Replicas:      p.Rep.ReplicaCount(),
		FreePool:      s.Pool.Len(),
		QueryCount:    -1,
		Violations:    -1,
	}
	if p.Backend != nil {
		bs := p.Backend.Stats()
		resp.Backend = bs.Name
		resp.WALRecords = bs.Records
		resp.WALBytes = bs.WALBytes
		resp.Snapshots = bs.Snapshots
	}
	resp.Recovered, resp.RecoveredItems = s.Recovered()
	if rng, epoch, has := p.Store.RangeEpoch(); has {
		resp.HasRange, resp.RangeLo, resp.RangeHi = true, rng.Lo, rng.Hi
		resp.Epoch = epoch
	}
	resp.LeaseViolations = -1
	resp.LeaseAgeMs = -1
	if enabled, age, expired := p.Store.LeaseInfo(); enabled {
		resp.LeaseEnabled, resp.LeaseExpired = true, expired
		if resp.HasRange {
			resp.LeaseAgeMs = age.Milliseconds()
		}
	}
	resp.LeaseAdoptions = p.Store.LeaseAdoptions.Load()
	if req.LeaseAudit {
		resp.LeaseViolations = len(s.Log.CheckLeases())
	}
	if g := p.Gossip; g != nil {
		resp.GossipMembers = g.MemberCount()
		resp.GossipFree = g.FreeCount()
		resp.GossipRounds = g.Rounds()
		resp.SigRejects += g.SigRejects()
	}
	resp.SigRejects += p.Rep.SigRejects.Load()
	resp.PushDeltas = p.Rep.DeltaPushes.Load()
	resp.PushHeartbeats = p.Rep.HeartbeatPushes.Load()
	resp.PushFulls = p.Rep.FullPushes.Load()
	resp.PushNeedFulls = p.Rep.NeedFulls.Load()
	resp.ReplicaWALWrites = p.Rep.ReplicaRecords.Load()
	if wsp, ok := s.tr.(transport.WireStatsProvider); ok {
		ws := wsp.WireStats()
		resp.AuthEnabled = ws.AuthEnabled
		resp.HandshakeRejects = ws.HandshakeRejects
		resp.StreamResumes = ws.StreamResumes
	}
	if req.LoadItems > 0 {
		lo, hi, err := s.probeLoad(p, req.LoadItems)
		if err != nil {
			return ops.ProbeStatus{}, err
		}
		resp.LoadedLo, resp.LoadedHi = lo, hi
		resp.Items = p.Store.ItemCount()
	}
	resp.StaleEpochRejects = p.Store.StaleEpochRejects.Load()
	resp.StaleChainRefusals = p.Rep.StaleChainRefusals.Load()
	resp.StepDowns = p.Store.StepDowns.Load()
	cst := p.Router.Cache().Stats()
	resp.CacheHits = cst.Hits
	resp.CacheMisses = cst.Misses
	resp.CacheEvictions = cst.Evictions
	resp.CacheInvalidations = cst.Invalidations
	resp.CacheEntries = cst.Size
	resp.ReplicaReads = p.ReplicaReads.Load()
	if err := s.RejoinErr(); err != nil {
		resp.RejoinErr = err.Error()
	}
	if req.Query {
		ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
		iv := keyspace.ClosedInterval(req.Lo, req.Hi)
		var err error
		var n int
		if req.Journal {
			var items []datastore.Item
			items, _, err = p.RangeQueryStats(ctx, iv)
			n = len(items)
		} else {
			var items []datastore.Item
			items, _, err = p.RangeQueryUnjournaled(ctx, iv)
			n = len(items)
		}
		cancel()
		if err != nil {
			resp.QueryErr = err.Error()
		} else {
			resp.QueryCount = n
		}
	}
	if req.Audit {
		resp.Violations = len(s.Log.CheckAllQueries())
	}
	return resp, nil
}

// probeLoad serves a ProbeRequest.LoadItems: insert n fresh items through
// the normal insert path, placed evenly inside the largest item-free key gap
// of this peer's own range. Because a range's items are stored only by its
// owner, a gap in the owner's local items is item-free cluster-wide, so the
// returned closed interval [lo, hi] contains exactly the n loaded items —
// an exact-count audit target that needs no knowledge of what the rest of
// the cluster holds. The inserts route normally and may overflow the range,
// which is the point: the CI smoke uses probeLoad after killing the
// bootstrap to force a split that must resolve its free peer without it.
func (s *Standalone) probeLoad(p *Peer, n int) (keyspace.Key, keyspace.Key, error) {
	rng, ok := p.Store.Range()
	if !ok {
		return 0, 0, fmt.Errorf("core: probe load at %s: peer serves no range", p.Addr)
	}
	var keys []keyspace.Key
	for _, it := range p.Store.LocalItems() {
		if rng.Contains(it.Key) {
			keys = append(keys, it.Key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	// Walk the range's linear (non-wrapping) segments and track the widest
	// item-free gap [bestA, bestB]; queries use non-wrapping intervals, so a
	// wrapped range contributes two candidate segments rather than one.
	type seg struct{ a, b keyspace.Key }
	var segs []seg
	if rng.Lo < rng.Hi {
		segs = []seg{{rng.Lo + 1, rng.Hi}}
	} else {
		if rng.Lo < keyspace.MaxKey {
			segs = append(segs, seg{rng.Lo + 1, keyspace.MaxKey})
		}
		segs = append(segs, seg{0, rng.Hi})
	}
	var bestA keyspace.Key
	var bestW uint64
	found := false
	consider := func(a, b keyspace.Key) {
		if a > b {
			return
		}
		if w := uint64(b - a); !found || w > bestW {
			bestA, bestW = a, w
			found = true
		}
	}
	for _, sg := range segs {
		cursor, open := sg.a, true
		for _, k := range keys {
			if k < sg.a || k > sg.b {
				continue
			}
			if k > cursor {
				consider(cursor, k-1)
			}
			if k == keyspace.MaxKey {
				open = false // cursor would wrap; no tail gap in this segment
				break
			}
			cursor = k + 1
		}
		if open && cursor <= sg.b {
			consider(cursor, sg.b)
		}
	}
	if !found || bestW < uint64(n) {
		return 0, 0, fmt.Errorf("core: probe load at %s: no key gap wide enough for %d items in range %s", p.Addr, n, rng)
	}

	step := bestW / uint64(n)
	if step == 0 {
		step = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
	defer cancel()
	first := bestA
	last := first
	for i := 0; i < n; i++ {
		k := bestA + keyspace.Key(uint64(i)*step)
		if err := p.InsertItem(ctx, datastore.Item{Key: k, Payload: fmt.Sprintf("probe-object-%d", i)}); err != nil {
			return 0, 0, fmt.Errorf("core: probe load at %s: insert %d: %w", p.Addr, i, err)
		}
		last = k
	}
	return first, last, nil
}

// AddrPool is a datastore.FreePool over announced remote peer addresses.
//
// Release distinguishes two cases by whether the address was handed out by
// Acquire. A lent address being released means a split's insert failed
// before the peer ever joined: its identity is unused, so it returns to the
// pool intact. Any other address is this process's own peer reporting that
// it merged away: the departed stack is defunct (the paper's model forbids
// re-entering with the same identifier), so the release is forwarded to
// OnMergedAway — Standalone uses it to assemble a fresh peer and re-announce
// instead of requiring an operator restart.
type AddrPool struct {
	mu    sync.Mutex
	addrs []transport.Addr
	lent  map[transport.Addr]time.Time // when the addr was handed to a split

	// OnMergedAway, when set, observes Release of an address this pool never
	// lent out — a local peer that merged away. Set before the pool is
	// shared; called without the pool lock held.
	OnMergedAway func(addr transport.Addr)
}

// lentTTL bounds how long a lent address stays recognized for the
// failed-split Release path. A failed insert releases within the
// maintenance timeout (seconds); a successfully joined peer never releases
// back to its lender, so entries older than this are joined peers and are
// purged to keep the map bounded under sustained churn.
const lentTTL = 5 * time.Minute

// purgeLentLocked drops lent entries old enough to have joined. Callers
// hold ap.mu.
func (ap *AddrPool) purgeLentLocked() {
	cutoff := time.Now().Add(-lentTTL)
	for a, at := range ap.lent {
		if at.Before(cutoff) {
			delete(ap.lent, a)
		}
	}
}

// Add parks a free peer's address in the pool.
func (ap *AddrPool) Add(addr transport.Addr) {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	for _, a := range ap.addrs {
		if a == addr {
			return
		}
	}
	ap.addrs = append(ap.addrs, addr)
}

// Acquire pops a free peer for a split, or reports ErrNoFreePeer when the
// pool is empty.
func (ap *AddrPool) Acquire() (transport.Addr, error) {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	if len(ap.addrs) == 0 {
		return "", ErrNoFreePeer
	}
	addr := ap.addrs[0]
	ap.addrs = ap.addrs[1:]
	if ap.lent == nil {
		ap.lent = make(map[transport.Addr]time.Time)
	}
	ap.purgeLentLocked()
	ap.lent[addr] = time.Now()
	return addr, nil
}

// MarkLent records addr as lent out by this pool even though Acquire never
// handed it out locally — a split that borrowed the address from a remote
// pool uses it so a failed insert's Release re-pools the peer here instead
// of dropping it.
func (ap *AddrPool) MarkLent(addr transport.Addr) {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	if ap.lent == nil {
		ap.lent = make(map[transport.Addr]time.Time)
	}
	ap.purgeLentLocked()
	ap.lent[addr] = time.Now()
}

// Release implements datastore.FreePool: a never-joined lent peer returns to
// the pool; a merged-away local peer is reported to OnMergedAway so the
// process can re-enter with a fresh identity.
func (ap *AddrPool) Release(addr transport.Addr) {
	ap.mu.Lock()
	ap.purgeLentLocked()
	if _, ok := ap.lent[addr]; ok {
		delete(ap.lent, addr)
		ap.addrs = append(ap.addrs, addr)
		ap.mu.Unlock()
		return
	}
	cb := ap.OnMergedAway
	ap.mu.Unlock()
	if cb != nil {
		cb(addr)
	}
}

// Len returns the number of pooled free peers.
func (ap *AddrPool) Len() int {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	return len(ap.addrs)
}

// Standalone is a single peer stack bound to a real transport endpoint,
// running in its own OS process. When its peer merges away, the stack
// rebuilds itself under a fresh identity and re-announces to the bootstrap
// it originally joined (see Rejoin), so the process stays in the free pool's
// rotation instead of requiring a restart.
type Standalone struct {
	Log  *history.Log
	Pool *AddrPool

	tr  transport.Transport
	cfg Config

	mu        sync.Mutex
	peer      *Peer
	bootstrap transport.Addr // where JoinAsFree announced; "" for the bootstrap process itself
	rejoinSeq int
	rejoinErr error         // last rejoin failure, nil after a success
	rejoins   chan struct{} // signalled after each completed rejoin (buffered)

	// Recovery outcome of Resume: whether this process restarted into a
	// previously claimed incarnation, and how many items it recovered.
	recovered      bool
	recoveredItems int
}

// NewStandalone assembles a peer stack on tr at addr, which must be the
// dialable address other processes reach this one at (the transport is
// registered with exactly this address as the peer's identity). The journal
// records this process's operations only; cross-process auditing would need
// journal shipping, which is out of scope here.
func NewStandalone(tr transport.Transport, addr transport.Addr, cfg Config) (*Standalone, error) {
	cfg = cfg.withDefaults()
	s := &Standalone{
		Log:     history.NewLog(),
		Pool:    &AddrPool{},
		tr:      tr,
		cfg:     cfg,
		rejoins: make(chan struct{}, 16),
	}
	s.Pool.OnMergedAway = s.mergedAway
	p, err := s.buildPeer(addr)
	if err != nil {
		return nil, err
	}
	s.peer = p
	return s, nil
}

// buildPeer assembles and activates one peer stack at addr, with the
// free-peer announce handler installed (before Activate, so no announce can
// arrive at a mux that lacks the handler). The stack's free pool is the
// Standalone itself: local pool first, bootstrap's pool as the fallback.
func (s *Standalone) buildPeer(addr transport.Addr) (*Peer, error) {
	p, err := assemblePeer(s.tr, addr, s.cfg, s.Log, s)
	if err != nil {
		return nil, err
	}
	methodAnnounceFree.Handle(p.Mux, func(_ transport.Addr, msg announceMsg) (bool, error) {
		s.Pool.Add(msg.Addr)
		if p.Gossip != nil {
			p.Gossip.MarkFree(msg.Addr)
		}
		return true, nil
	})
	methodProbe.Handle(p.Mux, s.handleProbe)
	methodAcquireFree.Handle(p.Mux, func(transport.Addr, transport.None) (announceMsg, error) {
		addr, err := s.acquireLocal(p)
		if err != nil {
			return announceMsg{}, nil
		}
		if p.Gossip != nil {
			p.Gossip.MarkTaken(addr)
		}
		return announceMsg{Addr: addr}, nil
	})
	if err := p.Activate(); err != nil {
		return nil, err
	}
	return p, nil
}

// acquireLocal pops from the locally announced pool, discarding any address
// the gossiped directory has seen advertise a range. Such an identity is
// spent: the peer joined the ring (a merged-away process re-announces under
// a fresh identity, never the old address), so handing it out again can only
// produce a doomed insert. The discard matters after two members race for
// the same gossiped free entry — the loser's failed split Releases the
// already-joined address back into its local pool, and without this filter
// every retry would re-acquire it first and wedge the split loop for good.
func (s *Standalone) acquireLocal(cur *Peer) (transport.Addr, error) {
	for {
		addr, err := s.Pool.Acquire()
		if err != nil {
			return "", err
		}
		if cur != nil && cur.Gossip != nil && cur.Gossip.OwnsRange(addr) {
			continue
		}
		return addr, nil
	}
}

// Acquire implements datastore.FreePool for this process's splits, trying
// three sources in order:
//
//  1. the locally announced pool (free peers that announced to this process);
//  2. the gossiped free-peer directory (any peer in the cluster can resolve
//     a free peer this way, with no process being a required intermediary —
//     the cluster keeps growing after the bootstrap dies);
//  3. the legacy bootstrap acquire RPC (the pre-gossip path, still the only
//     remote source when gossip is disabled).
//
// Errors from the remote path carry the contacted bootstrap's address, so an
// operator reading a failed split knows which process's pool was asked.
func (s *Standalone) Acquire() (transport.Addr, error) {
	s.mu.Lock()
	bootstrap := s.bootstrap
	cur := s.peer
	s.mu.Unlock()
	if addr, err := s.acquireLocal(cur); err == nil {
		if cur != nil && cur.Gossip != nil {
			cur.Gossip.MarkTaken(addr)
		}
		return addr, nil
	}
	if cur != nil && cur.Gossip != nil {
		if addr, ok := cur.Gossip.TakeFree(func(a transport.Addr) bool { return a == cur.Addr }); ok {
			// Track the address as lent locally, so a failed split's Release
			// re-pools it here instead of dropping it on the floor.
			s.Pool.MarkLent(addr)
			return addr, nil
		}
	}
	if bootstrap == "" || cur == nil {
		return "", ErrNoFreePeer
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	msg, err := methodAcquireFree.Call(ctx, s.tr, cur.Addr, bootstrap, transport.None{})
	if err != nil {
		return "", fmt.Errorf("core: acquiring free peer from %s: %w", bootstrap, err)
	}
	if msg.Addr == "" {
		return "", fmt.Errorf("core: free-peer pool at %s: %w", bootstrap, ErrNoFreePeer)
	}
	s.Pool.MarkLent(msg.Addr)
	return msg.Addr, nil
}

// Release implements datastore.FreePool; see AddrPool.Release.
func (s *Standalone) Release(addr transport.Addr) { s.Pool.Release(addr) }

// CurrentPeer returns the live peer stack (which changes across rejoins).
func (s *Standalone) CurrentPeer() *Peer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peer
}

// Rejoins exposes a signal channel that receives after each completed
// rejoin; tests use it to wait for the fresh announce deterministically.
func (s *Standalone) Rejoins() <-chan struct{} { return s.rejoins }

// Bootstrap makes this process the ring's first member, owning the whole
// key space.
func (s *Standalone) Bootstrap() error {
	p := s.CurrentPeer()
	// Persist the identity first: a recovery from this directory knows the
	// address it served under and that it had no bootstrap to re-announce to.
	if err := p.Backend.Append(storage.Record{Kind: storage.RecIdentity, Payload: string(p.Addr)}); err != nil {
		return fmt.Errorf("core: persisting identity of %s: %w", p.Addr, err)
	}
	if err := p.Ring.InitRing(); err != nil {
		return err
	}
	p.Store.InitFirstPeer()
	p.Store.Start()
	p.Rep.Start()
	p.Router.Start()
	return nil
}

// Resume restarts this process into the ownership incarnation its storage
// backend recovered: the last claimed (range, epoch) — the SAME epoch, since
// a restart is the old incarnation resuming with provable identity, not a
// new one — plus the items and held replicas that survived in the
// WAL+snapshot. It returns false (and does nothing) when the backend holds
// no claim, in which case the caller proceeds with Bootstrap or JoinAsFree
// as usual.
//
// A recovered peer that had announced to a bootstrap re-enters the ring by
// seeding that contact as its successor (ring.AdoptSuccessor) and lets the
// first replication push re-announce its claim: if a successor revived the
// range while the process was down, the push conflict deposes the recovered
// incarnation through the normal fencing path; otherwise stabilization
// re-integrates it. A recovered bootstrap (or one whose contact is
// unreachable) resumes as a single-member ring, which churning joiners then
// grow as usual.
func (s *Standalone) Resume() (bool, error) {
	p := s.CurrentPeer()
	st, err := p.Backend.Load()
	if err != nil {
		return false, fmt.Errorf("core: loading recovered state: %w", err)
	}
	if !st.HasRange {
		return false, nil
	}
	items := make([]datastore.Item, 0, len(st.Items))
	for k, v := range st.Items {
		items = append(items, datastore.Item{Key: k, Payload: v})
	}
	reps := make([]datastore.Item, 0, len(st.Replicas))
	for k, v := range st.Replicas {
		reps = append(reps, datastore.Item{Key: k, Payload: v})
	}
	// Install the recovered state BEFORE entering the ring: the ring's joined
	// event funnels into InitFirstPeer, which must see the recovered claim
	// and no-op instead of minting a fresh full-range one.
	p.Ring.SetVal(st.Range.Hi)
	p.Store.Recover(st.Range, st.Epoch, items)
	// Resume the lease clock conservatively: only the persisted renewal
	// counts, so a long-dead process restarts locally-expired and must earn
	// a successful refresh before treating its lease as live again.
	p.Store.RestoreLeaseClock(st.LeaseRenewedAt)
	p.Rep.RestoreReplicas(reps)
	bootstrap := transport.Addr(st.Bootstrap)
	s.mu.Lock()
	s.recovered = true
	s.recoveredItems = len(items)
	if bootstrap != "" && bootstrap != p.Addr {
		s.bootstrap = bootstrap
	}
	s.mu.Unlock()
	if bootstrap != "" && bootstrap != p.Addr && p.Gossip != nil {
		p.Gossip.AddMember(bootstrap)
	}
	if bootstrap != "" && bootstrap != p.Addr {
		// Learn the contact's current ring value so the seeded successor
		// entry is well-formed; an unreachable contact degrades to a
		// single-member resume rather than blocking recovery.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		ps, perr := Probe(ctx, s.tr, p.Addr, bootstrap, ops.ProbeRequest{})
		cancel()
		if perr == nil {
			return true, p.Ring.AdoptSuccessor(ring.Node{Addr: bootstrap, Val: ps.Val})
		}
	}
	return true, p.Ring.InitRing()
}

// Recovered reports whether Resume restarted this process into a previously
// claimed incarnation, and how many items it recovered.
func (s *Standalone) Recovered() (bool, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered, s.recoveredItems
}

// JoinAsFree announces this process's peer to the bootstrap node as a free
// peer. The peer stays FREE until a split on the bootstrap side draws it
// from the pool and inserts it into the ring, at which point the ring's
// joined event starts the local component loops. The bootstrap address is
// remembered: if this peer later merges away, the process re-announces a
// fresh peer there on its own.
func (s *Standalone) JoinAsFree(ctx context.Context, bootstrap transport.Addr) error {
	p := s.CurrentPeer()
	// Persist the identity and bootstrap contact before entering the pool: a
	// recovery from this directory re-announces to the same bootstrap on its
	// own, and one whose record never landed would resume as a single-member
	// ring instead.
	if err := p.Backend.Append(storage.Record{Kind: storage.RecIdentity, Payload: string(p.Addr), Aux: string(bootstrap)}); err != nil {
		return fmt.Errorf("core: persisting identity of %s: %w", p.Addr, err)
	}
	ok, err := methodAnnounceFree.Call(ctx, s.tr, p.Addr, bootstrap, announceMsg{Addr: p.Addr})
	if err != nil {
		return fmt.Errorf("core: announce to %s failed: %w", bootstrap, err)
	}
	if !ok {
		return fmt.Errorf("core: announce to %s rejected", bootstrap)
	}
	s.mu.Lock()
	s.bootstrap = bootstrap
	s.mu.Unlock()
	if p.Gossip != nil {
		// The bootstrap seeds this agent's membership, and the peer
		// advertises itself as free in its own directory — gossip spreads
		// that fact cluster-wide, so the availability of this free peer no
		// longer dies with the process it announced to.
		p.Gossip.AddMember(bootstrap)
		p.Gossip.MarkFree(p.Addr)
	}
	return nil
}

// mergedAway is the AddrPool's OnMergedAway hook: the local peer finished a
// merge and departed the ring. Its identity is spent, so rebuild under a
// fresh one off the maintenance goroutine that is reporting the merge. The
// outcome — success or the final error — is recorded in RejoinErr and
// signalled on Rejoins either way, so a process stuck out of the cluster is
// observable instead of silently idle.
func (s *Standalone) mergedAway(addr transport.Addr) {
	s.mu.Lock()
	cur := s.peer
	s.mu.Unlock()
	if cur == nil || cur.Addr != addr {
		return // not ours (e.g. a foreign release); nothing to rebuild
	}
	go func() {
		err := s.Rejoin()
		s.mu.Lock()
		s.rejoinErr = err
		s.mu.Unlock()
		select {
		case s.rejoins <- struct{}{}:
		default:
		}
	}()
}

// RejoinErr reports the outcome of the most recent automatic rejoin: nil
// after a success, the final announce error when the bootstrap stayed
// unreachable through every retry (the fresh peer is assembled either way
// and can be re-announced manually via JoinAsFree).
func (s *Standalone) RejoinErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejoinErr
}

// Rejoin tears down the departed peer stack, assembles a fresh one under a
// new identity, and re-announces it to the remembered bootstrap. The old
// endpoint was already deregistered by the ring's departure. A bootstrap
// process (which never announced anywhere) rebuilds as a free peer but
// stays unannounced.
func (s *Standalone) Rejoin() error {
	s.mu.Lock()
	old := s.peer
	bootstrap := s.bootstrap
	s.mu.Unlock()
	old.Stop()

	addr := s.freshAddr(old.Addr)
	p, err := s.buildPeer(addr)
	if err != nil {
		return fmt.Errorf("core: rejoin assembly at %s failed: %w", addr, err)
	}
	s.mu.Lock()
	s.peer = p
	s.mu.Unlock()

	if bootstrap == "" || bootstrap == old.Addr {
		return nil // nowhere to announce; the fresh peer waits for operators
	}
	// The bootstrap may itself be mid-churn (it just absorbed our range);
	// retry the announce with backoff — roughly half a minute of patience —
	// before reporting failure through RejoinErr.
	var lastErr error
	for attempt := 1; attempt <= 8; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := s.JoinAsFree(ctx, bootstrap)
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
		time.Sleep(transport.BackoffDelay(100*time.Millisecond, 5*time.Second, attempt))
	}
	return fmt.Errorf("core: re-announce after merge failed: %w", lastErr)
}

// freshAddr derives a new, never-used identity for a rejoining peer. For
// host:port identities it probes the old host for a free port (which the
// transport's Register then binds); otherwise it appends a rejoin suffix,
// which label-addressed transports (simnet) accept as a new endpoint.
func (s *Standalone) freshAddr(old transport.Addr) transport.Addr {
	s.mu.Lock()
	s.rejoinSeq++
	seq := s.rejoinSeq
	s.mu.Unlock()
	if host, _, err := net.SplitHostPort(string(old)); err == nil {
		if ln, err := net.Listen("tcp", net.JoinHostPort(host, "0")); err == nil {
			addr := ln.Addr().String()
			ln.Close()
			return transport.Addr(addr)
		}
	}
	return transport.Addr(fmt.Sprintf("%s+r%d", old, seq))
}

// Close stops the peer stack's background work. The transport is the
// caller's to close.
func (s *Standalone) Close() {
	s.CurrentPeer().Stop()
}
