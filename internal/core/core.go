// Package core assembles the full P2P index of the paper: the indexing
// framework of Figure 1 instantiated as P-Ring (Section 2.3) with the PEPPER
// correctness and availability protocols embedded in the Fault Tolerant Ring
// and Data Store (Sections 4 and 5).
//
// A peer is a stack of ring, Data Store, Replication Manager and Content
// Router components sharing one transport endpoint, with its own goroutines
// for stabilization, failure detection, storage balancing and replica
// refresh. The stack is assembled against the transport.Transport interface,
// so the same protocol code runs over the simulated in-process network (a
// Cluster, for deterministic tests and experiments) and over real TCP (a
// Standalone peer in its own OS process; see cmd/pepperd -listen).
//
// A Cluster runs every peer in-process over simnet and owns the free-peer
// pool of the P-Ring Data Store: splits draw peers from it, merges return
// them to it.
//
// The P2P Index API of the paper (insertItem, deleteItem, findItems as a
// range query) is exposed on both Peer and Cluster. Each operation is an
// attempt of package scan — the pipelined scan planner, the routed insert
// and delete — run from the peer and routed by its Content Router; what core
// adds is what only a ring member has: failed attempts are retried, and a
// query is journaled for correctness checking against Definition 4 with
// each attempt bounded by QueryAttemptTimeout.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/datastore"
	"repro/internal/gossip"
	"repro/internal/history"
	"repro/internal/keyspace"
	"repro/internal/replication"
	"repro/internal/ring"
	"repro/internal/routecache"
	"repro/internal/router"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Config aggregates the component configurations.
type Config struct {
	Net         simnet.Config
	Ring        ring.Config
	Store       datastore.Config
	Replication replication.Config
	Router      router.Config
	// Gossip configures the decentralized membership directory every peer
	// runs (package gossip): free-peer entries, range adverts and liveness
	// suspicions spread by periodic anti-entropy. A zero Interval disables
	// the agent entirely — free peers then resolve only through the local
	// pool and the bootstrap's legacy acquire RPC, the seed behaviour.
	Gossip gossip.Config
	// QueryAttemptTimeout bounds one scan attempt before the query retries.
	QueryAttemptTimeout time.Duration
	// MaxQueryAttempts bounds retries within the caller's context.
	MaxQueryAttempts int
	// NaiveQueries evaluates range queries with the unlocked application
	// scan instead of scanRange (the Section 6.2 baseline).
	NaiveQueries bool
	// Storage opens each peer's durable backend (WAL + snapshots). nil keeps
	// the in-memory default, which journals nothing and is what every simnet
	// test and benchmark runs on; pepperd -data-dir supplies a
	// storage.DiskFactory.
	Storage storage.Factory
	// Identities, when set, gives each assembled peer an ed25519 identity:
	// its ownership adverts (replication pushes and gossiped range adverts)
	// are signed, and adverts it receives are verified against a per-peer
	// trust-on-first-use keyring before they may depose anyone. nil disables
	// advert authentication (the pre-identity behaviour). pepperd supplies
	// the identity persisted in -data-dir (or an ephemeral one).
	Identities func(addr transport.Addr) (*auth.Identity, error)
	// Seed drives entry-peer selection.
	Seed int64
}

// DefaultConfig mirrors the paper's experimental defaults (Section 6.1) at
// millisecond scale: successor list length 4, stabilization period 4 time
// units, storage factor 5, replication factor 6.
func DefaultConfig() Config {
	return Config{
		Net: simnet.DefaultConfig(),
		Ring: ring.Config{
			SuccListLen: 4,
			StabPeriod:  40 * time.Millisecond,
		},
		Store: datastore.Config{
			StorageFactor: 5,
		},
		Replication: replication.Config{
			Factor: 6,
		},
		Router:              router.Config{},
		QueryAttemptTimeout: time.Second,
		MaxQueryAttempts:    20,
		Seed:                1,
	}
}

func (c Config) withDefaults() Config {
	if c.QueryAttemptTimeout <= 0 {
		c.QueryAttemptTimeout = time.Second
	}
	if c.MaxQueryAttempts <= 0 {
		c.MaxQueryAttempts = 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Peer is one fully assembled peer stack, bound to a transport endpoint.
type Peer struct {
	Addr   transport.Addr
	Mux    *transport.Mux
	Ring   *ring.Peer
	Store  *datastore.Store
	Rep    *replication.Manager
	Router *router.Router
	// Gossip is the peer's membership agent; nil when gossip is disabled
	// (Config.Gossip.Interval == 0).
	Gossip *gossip.Agent
	// Backend is the peer's storage engine; the Data Store and Replication
	// Manager write ahead to it, and Stop closes it.
	Backend storage.Backend
	// Identity and Keyring carry the peer's advert-signing state; both nil
	// when Config.Identities is unset.
	Identity *auth.Identity
	Keyring  *auth.Keyring

	tr  transport.Transport
	log *history.Log
	cfg Config

	// ReplicaReads counts scan segments this peer answered from a replica
	// instead of the primary owner (the read path's availability fallback).
	ReplicaReads atomic.Uint64
}

// Errors surfaced by index operations.
var (
	ErrNoLivePeer  = errors.New("core: no live peer in the ring")
	ErrQueryFailed = errors.New("core: range query exhausted its retries")
	ErrNoFreePeer  = errors.New("core: free-peer pool is empty")
)

// assemblePeer constructs a full peer stack in the FREE state and wires the
// cross-layer callbacks. It is the single assembly path shared by in-process
// Clusters and standalone OS processes. The caller must finish installing
// any extra handlers on p.Mux and then activate the endpoint with
// p.Activate — registering only after every handler is in place closes the
// window where a remote request could arrive at a half-assembled peer.
func assemblePeer(tr transport.Transport, addr transport.Addr, cfg Config, log *history.Log, pool datastore.FreePool) (*Peer, error) {
	mux := transport.NewMux()
	p := &Peer{
		Addr: addr,
		Mux:  mux,
		tr:   tr,
		log:  log,
		cfg:  cfg,
	}

	// The ring callbacks close over the peer struct; the components are
	// created right after and the callbacks only fire once the peer joins.
	cb := ring.Callbacks{
		PrepareJoinData: func(j ring.Node) any { return p.Store.PrepareJoinData(j) },
		OnJoined: func(self, pred ring.Node, data any) {
			p.Store.OnJoined(self, pred, data)
			p.Rep.Start()
			p.Router.Start()
			if p.Gossip != nil {
				// Joining consumes this peer's free-peer entry; the taken
				// mark out-gossips any stale free observation.
				p.Gossip.MarkTaken(p.Addr)
			}
		},
		OnPredChanged: func(newPred, prev ring.Node, predFailed bool) {
			p.Store.OnPredChanged(newPred, prev, predFailed)
		},
		OnNewSuccessor: func(ring.Node) { p.Rep.ItemsChanged() },
	}
	p.Ring = ring.NewPeer(tr, mux, cfg.Ring, ring.Node{Addr: addr}, cb)
	p.Store = datastore.New(tr, mux, p.Ring, log, cfg.Store)
	p.Rep = replication.New(tr, mux, p.Ring, p.Store, cfg.Replication)
	p.Router = router.New(tr, mux, p.Ring, p.Store, cfg.Router)
	p.Store.SetDeps(p.Rep, pool)
	if cfg.Gossip.Interval > 0 {
		g := gossip.New(tr, mux, addr, cfg.Gossip)
		// Each round republishes this peer's own claim into the directory…
		g.SelfAdvert = func() (keyspace.Range, uint64, bool) { return p.Store.RangeEpoch() }
		// …and every foreign advert that enters the directory is checked
		// against the local claim: a strictly newer overlapping epoch
		// deposes this peer through the normal step-down path.
		g.ObserveAdvert = func(owner transport.Addr, rng keyspace.Range, epoch uint64) {
			if owner != addr {
				p.Store.ObserveRemoteClaim(rng, epoch)
			}
		}
		p.Gossip = g
	}

	if cfg.Identities != nil {
		id, err := cfg.Identities(addr)
		if err != nil {
			return nil, fmt.Errorf("core: obtaining identity for %s: %w", addr, err)
		}
		kr := auth.NewKeyring()
		// Pin our own key first: a forged advert in this peer's name can then
		// never be the first key the keyring sees for it.
		kr.Pin(string(addr), id.Public())
		p.Identity, p.Keyring = id, kr
		sign := func(rng keyspace.Range, epoch uint64) auth.AdvertSig {
			return id.SignAdvert(string(addr), rng.Lo, rng.Hi, epoch)
		}
		p.Rep.SignAdvert = sign
		p.Rep.VerifyAdvert = func(owner transport.Addr, rng keyspace.Range, epoch uint64, sig auth.AdvertSig) error {
			return kr.VerifyAdvert(string(owner), rng.Lo, rng.Hi, epoch, sig)
		}
		p.Rep.OnSigReject = func(owner transport.Addr, rng keyspace.Range, epoch uint64) {
			log.SigRejected(string(addr), string(owner), rng, epoch)
		}
		if p.Gossip != nil {
			p.Gossip.SignAdvert = sign
			p.Gossip.VerifyAd = func(owner transport.Addr, ad gossip.RangeAd) error {
				return kr.VerifyAdvert(string(owner), ad.Range.Lo, ad.Range.Hi, ad.Epoch, ad.Sig)
			}
			p.Gossip.OnSigReject = func(owner transport.Addr, ad gossip.RangeAd) {
				log.SigRejected(string(addr), string(owner), ad.Range, ad.Epoch)
			}
		}
	}

	// One backend per peer identity: the Data Store and Replication Manager
	// share it, so a peer's items and held replicas recover together.
	factory := cfg.Storage
	if factory == nil {
		factory = storage.MemoryFactory{}
	}
	b, err := factory.Open(addr)
	if err != nil {
		return nil, fmt.Errorf("core: opening storage backend for %s: %w", addr, err)
	}
	p.Backend = b
	p.Store.SetBackend(b)
	p.Rep.SetBackend(b)

	return p, nil
}

// Activate registers the peer's endpoint on the transport, making it
// reachable, and starts the gossip agent's rounds (free peers gossip too —
// that is how their availability outlives the process they announced to).
// Call it once, after all mux handlers are installed.
func (p *Peer) Activate() error {
	if err := p.tr.Register(p.Addr, p.Mux.Dispatch); err != nil {
		return err
	}
	if p.Gossip != nil {
		p.Gossip.Start()
	}
	return nil
}

// Stop halts the peer stack's background work and closes the storage
// backend (flushing any batched WAL records).
func (p *Peer) Stop() {
	p.Abandon()
	if p.Backend != nil {
		_ = p.Backend.Close()
	}
}

// Abandon halts background work WITHOUT flushing or closing the storage
// backend — the crash-simulation hook: recovery tests abandon a peer and
// reopen its data directory as if the process had been SIGKILLed.
func (p *Peer) Abandon() {
	p.Ring.Stop()
	p.Store.Stop()
	p.Rep.Stop()
	p.Router.Stop()
	if p.Gossip != nil {
		p.Gossip.Stop()
	}
}

// Cluster is the whole P2P system run in-process: all peers plus the free
// pool, over the simulated network.
type Cluster struct {
	cfg Config
	net *simnet.Network
	log *history.Log
	// qcache remembers which peer last served the first piece of a range
	// query, so follow-up queries enter the ring at the owner of their lower
	// bound instead of at a random peer (zero-hop owner lookup when fresh;
	// validated at the target when stale).
	qcache *routecache.Cache

	mu     sync.Mutex
	peers  map[transport.Addr]*Peer
	free   []transport.Addr
	nextID int
	// Counters carried over from departed (merged-away) peers, whose stacks
	// leave the peer map.
	departedStats Stats

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewCluster creates an empty cluster.
func NewCluster(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	return &Cluster{
		cfg:    cfg,
		net:    simnet.New(cfg.Net),
		log:    history.NewLog(),
		qcache: routecache.New(routecache.DefaultCapacity),
		peers:  make(map[transport.Addr]*Peer),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Net exposes the network for failure injection and stats.
func (c *Cluster) Net() *simnet.Network { return c.net }

// Log exposes the correctness journal.
func (c *Cluster) Log() *history.Log { return c.log }

// newPeer constructs and registers a full peer stack in the FREE state.
func (c *Cluster) newPeer() (*Peer, error) {
	c.mu.Lock()
	c.nextID++
	addr := transport.Addr(fmt.Sprintf("peer-%d", c.nextID))
	c.mu.Unlock()

	p, err := assemblePeer(c.net, addr, c.cfg, c.log, (*freePool)(c))
	if err != nil {
		return nil, err
	}
	if p.Gossip != nil {
		// Seed membership with any existing peer so the new agent's first
		// rounds have someone to exchange with; gossip brings in the rest.
		c.mu.Lock()
		for other := range c.peers {
			p.Gossip.AddMember(other)
			break
		}
		c.mu.Unlock()
	}
	if err := p.Activate(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.peers[addr] = p
	c.mu.Unlock()
	return p, nil
}

// AddFirstPeer bootstraps the ring with its first member, which owns the
// whole key space.
func (c *Cluster) AddFirstPeer() (*Peer, error) {
	p, err := c.newPeer()
	if err != nil {
		return nil, err
	}
	if err := p.Ring.InitRing(); err != nil {
		return nil, err
	}
	p.Store.InitFirstPeer()
	p.Store.Start()
	p.Rep.Start()
	p.Router.Start()
	return p, nil
}

// AddFreePeer constructs a peer and parks it in the free pool, from which
// Data Store splits draw new ring members (Section 2.3).
func (c *Cluster) AddFreePeer() (*Peer, error) {
	p, err := c.newPeer()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.free = append(c.free, p.Addr)
	c.mu.Unlock()
	if p.Gossip != nil {
		p.Gossip.MarkFree(p.Addr)
	}
	return p, nil
}

// AddFreePeers adds n free peers.
func (c *Cluster) AddFreePeers(n int) error {
	for i := 0; i < n; i++ {
		if _, err := c.AddFreePeer(); err != nil {
			return err
		}
	}
	return nil
}

// freePool adapts Cluster to datastore.FreePool.
type freePool Cluster

// Acquire pops a free peer.
func (fp *freePool) Acquire() (transport.Addr, error) {
	c := (*Cluster)(fp)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.free) == 0 {
		return "", ErrNoFreePeer
	}
	addr := c.free[0]
	c.free = c.free[1:]
	return addr, nil
}

// Release recycles a merged-away peer: the departed stack is defunct (the
// paper's model forbids re-entering with the same identifier), so a fresh
// peer replaces it in the pool.
func (fp *freePool) Release(addr transport.Addr) {
	c := (*Cluster)(fp)
	c.mu.Lock()
	old := c.peers[addr]
	delete(c.peers, addr)
	if old != nil {
		c.departedStats.Splits += old.Store.Splits.Load()
		c.departedStats.Merges += old.Store.Merges.Load()
		c.departedStats.Redistributes += old.Store.Redistributes.Load()
		c.departedStats.ScanAborts += old.Store.ScanAborts.Load()
		c.departedStats.StaleEpochRejects += old.Store.StaleEpochRejects.Load()
		c.departedStats.StepDowns += old.Store.StepDowns.Load()
	}
	c.mu.Unlock()
	if old != nil {
		go old.Stop()
	}
	_, _ = c.AddFreePeer()
}

// FreeCount returns the number of free peers available for splits.
func (c *Cluster) FreeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.free)
}

// Peers returns all constructed peers (live and free).
func (c *Cluster) Peers() []*Peer {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Peer, 0, len(c.peers))
	for _, p := range c.peers {
		out = append(out, p)
	}
	return out
}

// LivePeers returns the peers currently serving a ring range.
func (c *Cluster) LivePeers() []*Peer {
	var out []*Peer
	for _, p := range c.Peers() {
		if !c.net.Alive(p.Addr) {
			continue
		}
		if _, ok := p.Store.Range(); ok && p.Ring.State() == ring.StateJoined {
			out = append(out, p)
		}
	}
	return out
}

// RingPeers returns the underlying ring.Peer objects of all peers still
// alive on the network, for the Definition 5 checker (a fail-stopped peer's
// local object never learns of its own death, so liveness is the network's
// to decide).
func (c *Cluster) RingPeers() []*ring.Peer {
	var out []*ring.Peer
	for _, p := range c.Peers() {
		if c.net.Alive(p.Addr) {
			out = append(out, p.Ring)
		}
	}
	return out
}

// CheckRing verifies consistent successor pointers (Definition 5).
func (c *Cluster) CheckRing() error { return ring.CheckConsistency(c.RingPeers()) }

// KillPeer fail-stops a peer (failure injection). Items it was serving stop
// being live until replication revives them. The failure is journaled
// unconditionally: a peer killed mid-merge has already dropped its range
// while the journal may still attribute in-flight items to it, and those
// must read as dead (Failed is a no-op for peers holding nothing).
func (c *Cluster) KillPeer(addr transport.Addr) {
	c.mu.Lock()
	p := c.peers[addr]
	c.mu.Unlock()
	c.net.Kill(addr)
	c.log.Failed(string(addr))
	if p != nil {
		go p.Stop()
	}
}

// Shutdown stops every peer's background work.
func (c *Cluster) Shutdown() {
	for _, p := range c.Peers() {
		p.Stop()
	}
}

// Stats aggregates system-wide state and maintenance counters.
type Stats struct {
	LivePeers         int    // peers currently serving a range
	FreePeers         int    // peers parked in the free pool
	Items             int    // items across all live Data Stores
	Splits            uint64 // Data Store splits executed
	Merges            uint64 // merges executed (peers that departed)
	Redistributes     uint64 // boundary redistributions executed
	ScanAborts        uint64 // scan attempts aborted (retried transparently)
	StaleEpochRejects uint64 // requests rejected by the ownership-epoch fence
	StepDowns         uint64 // deposed peers that resigned their range
}

// Stats returns a snapshot of the aggregate counters.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	st := c.departedStats
	st.FreePeers = len(c.free)
	c.mu.Unlock()
	for _, p := range c.Peers() {
		st.Splits += p.Store.Splits.Load()
		st.Merges += p.Store.Merges.Load()
		st.Redistributes += p.Store.Redistributes.Load()
		st.ScanAborts += p.Store.ScanAborts.Load()
		st.StaleEpochRejects += p.Store.StaleEpochRejects.Load()
		st.StepDowns += p.Store.StepDowns.Load()
	}
	for _, p := range c.LivePeers() {
		st.LivePeers++
		st.Items += p.Store.ItemCount()
	}
	return st
}

// randomLive picks a random live entry peer for an API call.
func (c *Cluster) randomLive() (*Peer, error) {
	live := c.LivePeers()
	if len(live) == 0 {
		return nil, ErrNoLivePeer
	}
	c.rngMu.Lock()
	p := live[c.rng.Intn(len(live))]
	c.rngMu.Unlock()
	return p, nil
}
