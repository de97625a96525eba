// Package router implements the Content Router of the indexing framework.
//
// P-Ring's Content Router builds "a hierarchy of rings that can index skewed
// data distributions" (Section 2.3); the paper explicitly leaves its details
// out of scope, because query evaluation only needs step (a) of Section 4.2:
// find the peer responsible for the lower bound of the query range. This
// router provides that with an order-preserving hierarchy of doubling
// pointers: level 0 is the ring successor, and level l+1 is (approximately)
// the peer 2^(l+1) positions ahead, refreshed lazily by asking the level-l
// pointer for its own level-l pointer. Lookups descend greedily — jump to
// the farthest pointer that does not overshoot the key, never passing it —
// giving O(log n) hops on a stable ring.
//
// Pointer values can be stale (splits lower values, peers come and go), so
// ownership is always decided by the target's Data Store range, and a failed
// or non-progressing hop falls back to the plain ring successor; in the
// worst case the lookup degrades to the linear scan the paper's framework
// always supports. LinearFindOwner exposes that baseline directly.
//
// On top of the descent sits the owner-lookup cache (internal/routecache):
// every successful lookup learns the owner's range, and FindOwner consults
// the cache before descending. Because ownership is validated at the target,
// a cached entry is only a hint — a stale one costs a probe (which doubles
// as the first descent hop), never a wrong answer — so warm lookups resolve
// in one validated hop instead of the cold O(log n) descent.
package router

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/ring"
	"repro/internal/routecache"
	"repro/internal/transport"
)

// The Content Router's RPCs. Lookup keys travel as bare keyspace.Key values
// and level indices as bare ints.
var (
	methodNextHop = transport.NewMethod[keyspace.Key, nextHopResp]("rt.nextHop")
	methodLevelAt = transport.NewMethod[int, ring.Node]("rt.levelAt")
	methodSucc    = transport.NewMethod[transport.None, ring.Node]("rt.succ")
)

// Config controls router behaviour.
type Config struct {
	// RefreshPeriod is the pointer maintenance interval.
	RefreshPeriod time.Duration
	// CallTimeout bounds individual routing RPCs.
	CallTimeout time.Duration
	// MaxHops bounds one lookup before it reports failure.
	MaxHops int
	// DisableAutoRefresh turns the maintenance loop off for tests.
	DisableAutoRefresh bool
}

// maxLevels bounds the pointer hierarchy (2^maxLevels positions).
const maxLevels = 10

func (c Config) withDefaults() Config {
	if c.RefreshPeriod <= 0 {
		c.RefreshPeriod = 60 * time.Millisecond
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 50 * time.Millisecond
	}
	if c.MaxHops <= 0 {
		c.MaxHops = 64
	}
	return c
}

// Errors reported by lookups.
var (
	ErrNoProgress  = errors.New("router: lookup made no progress")
	ErrTooManyHops = errors.New("router: exceeded hop budget")
)

// Router is one peer's Content Router.
type Router struct {
	cfg   Config
	net   transport.Transport
	ring  *ring.Peer
	ds    *datastore.Store
	cache *routecache.Cache

	// mu guards levels only. It is a read/write lock held strictly around
	// in-memory pointer access — never across an RPC — so a slow refresh
	// round trip can never stall the concurrent lookups and nextHop handlers
	// that read the hierarchy.
	mu     sync.RWMutex
	levels []ring.Node // levels[l] ≈ peer 2^l positions ahead; zero = unset

	loops transport.Runner // pointer maintenance
}

// New constructs a Router and registers its handlers on the peer's mux.
func New(net transport.Transport, mux *transport.Mux, rp *ring.Peer, ds *datastore.Store, cfg Config) *Router {
	r := &Router{
		cfg:    cfg.withDefaults(),
		net:    net,
		ring:   rp,
		ds:     ds,
		cache:  routecache.New(routecache.DefaultCapacity),
		levels: make([]ring.Node, maxLevels),
	}
	methodNextHop.Handle(mux, r.handleNextHop)
	methodLevelAt.Handle(mux, r.handleLevelAt)
	methodSucc.Handle(mux, r.handleSucc)
	return r
}

// handleSucc returns this peer's current ring successor.
func (r *Router) handleSucc(transport.Addr, transport.None) (ring.Node, error) {
	if succ, ok := r.ring.FirstStabilizedSuccessor(); ok {
		return succ, nil
	}
	if succs := r.ring.Successors(); len(succs) > 0 {
		return succs[0], nil
	}
	return ring.Node{}, nil
}

// Start launches the pointer maintenance loop (idempotent; no-op after Stop).
func (r *Router) Start() {
	if r.cfg.DisableAutoRefresh {
		return
	}
	r.loops.Start(transport.NewTask(r.cfg.RefreshPeriod, r.RefreshOnce))
}

// Stop halts background work.
func (r *Router) Stop() { r.loops.Stop() }

// RefreshOnce rebuilds the pointer hierarchy bottom-up: level 0 from the
// ring successor, and level l+1 by asking the level-l pointer for its own
// level-l pointer (the doubling construction).
func (r *Router) RefreshOnce() {
	self := r.ring.Self()
	succ, ok := r.ring.FirstStabilizedSuccessor()
	if !ok {
		if succs := r.ring.Successors(); len(succs) > 0 {
			succ, ok = succs[0], true
		}
	}
	r.mu.Lock()
	if ok {
		r.levels[0] = succ
	}
	r.mu.Unlock()
	if !ok {
		return
	}
	for l := 0; l+1 < maxLevels; l++ {
		r.mu.RLock()
		cur := r.levels[l]
		r.mu.RUnlock()
		if cur.IsZero() || cur.Addr == self.Addr {
			// The hierarchy has wrapped the whole ring; clear higher levels.
			r.mu.Lock()
			for h := l + 1; h < maxLevels; h++ {
				r.levels[h] = ring.Node{}
			}
			r.mu.Unlock()
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.CallTimeout)
		next, err := methodLevelAt.Call(ctx, r.net, self.Addr, cur.Addr, l)
		cancel()
		if err != nil {
			return
		}
		if next.IsZero() {
			r.mu.Lock()
			r.levels[l+1] = ring.Node{}
			r.mu.Unlock()
			continue
		}
		// Guard against wrapping past ourselves: a pointer that lands on or
		// beyond us is useless.
		if next.Addr == self.Addr {
			r.mu.Lock()
			for h := l + 1; h < maxLevels; h++ {
				r.levels[h] = ring.Node{}
			}
			r.mu.Unlock()
			return
		}
		r.mu.Lock()
		r.levels[l+1] = next
		r.mu.Unlock()
	}
}

// handleLevelAt returns this peer's pointer at the requested level.
func (r *Router) handleLevelAt(_ transport.Addr, l int) (ring.Node, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if l < 0 || l >= len(r.levels) {
		return ring.Node{}, nil
	}
	return r.levels[l], nil
}

// nextHopResp is the answer to "where should a lookup for key go next?".
// When the answering peer owns the key it also reports its responsibility
// range, its ownership epoch (the fencing token mutations and scans are
// stamped with) and its successor chain, so the caller can prime the
// owner-lookup cache (the successors are where the owner's replicas live —
// the fallback targets for replica reads).
type nextHopResp struct {
	Owner bool           // this peer owns the key
	Range keyspace.Range // when Owner: the peer's responsibility range
	Epoch uint64         // when Owner: the range's ownership epoch
	Chain []ring.Node    // when Owner: the peer's ring successors
	Next  ring.Node      // otherwise: the farthest known peer not passing the key
	Valid bool
}

// handleNextHop implements one greedy routing step at this peer.
func (r *Router) handleNextHop(_ transport.Addr, key keyspace.Key) (nextHopResp, error) {
	if rng, epoch, has := r.ds.RangeEpoch(); has && rng.Contains(key) {
		return nextHopResp{Owner: true, Range: rng, Epoch: epoch, Chain: r.ring.Successors()}, nil
	}
	self := r.ring.Self()
	best := ring.Node{}
	consider := func(n ring.Node) {
		if n.IsZero() || n.Addr == self.Addr {
			return
		}
		// Candidate must lie strictly between us and the key (clockwise,
		// never passing the key) and be farther than the current best.
		if !keyspace.Between(n.Val, self.Val, key) {
			return
		}
		if best.IsZero() || keyspace.Dist(self.Val, n.Val) > keyspace.Dist(self.Val, best.Val) {
			best = n
		}
	}
	r.mu.RLock()
	for _, n := range r.levels {
		consider(n)
	}
	r.mu.RUnlock()
	for _, n := range r.ring.Successors() {
		consider(n)
	}
	if best.IsZero() {
		// Fall back to the plain successor: it either owns the key (its
		// range starts just past our value) or the lookup continues there.
		if succ, ok := r.ring.FirstStabilizedSuccessor(); ok {
			return nextHopResp{Next: succ, Valid: true}, nil
		}
		if succs := r.ring.Successors(); len(succs) > 0 {
			return nextHopResp{Next: succs[0], Valid: true}, nil
		}
		return nextHopResp{}, nil
	}
	return nextHopResp{Next: best, Valid: true}, nil
}

// FindOwner locates the peer whose Data Store range contains key, driving
// the greedy descent from this peer. Ownership is decided by the target's
// own range, so stale pointer values cost extra hops, never wrong answers.
// It returns the owner's address and the number of hops taken.
//
// The owner-lookup cache is consulted first: a cached candidate is probed
// directly, and because the probe is the same nextHop ownership test the
// descent uses, a stale entry's answer seeds the descent instead of being
// wasted — the cache can only save hops, never change the result.
func (r *Router) FindOwner(ctx context.Context, key keyspace.Key) (transport.Addr, int, error) {
	self := r.ring.Self()
	if rng, has := r.ds.Range(); has && rng.Contains(key) {
		return self.Addr, 0, nil
	}
	cur := self.Addr
	hops := 0
	if ent, ok := r.cache.Lookup(key); ok && ent.Addr != self.Addr {
		callCtx, cancel := context.WithTimeout(ctx, r.cfg.CallTimeout)
		nh, err := methodNextHop.Call(callCtx, r.net, self.Addr, ent.Addr, key)
		cancel()
		hops++
		if err == nil {
			if nh.Owner {
				r.cache.Learn(nh.Range, ent.Addr, nh.Epoch, ring.ChainAddrs(ent.Addr, nh.Chain))
				return ent.Addr, hops, nil
			}
			r.cache.Invalidate(ent.Addr)
			if nh.Valid {
				// Stale hint, but its greedy suggestion is still toward
				// the key: continue the descent from there.
				cur = nh.Next.Addr
			}
		} else {
			r.cache.Invalidate(ent.Addr)
		}
	}
	for hops < r.cfg.MaxHops {
		callCtx, cancel := context.WithTimeout(ctx, r.cfg.CallTimeout)
		nh, err := methodNextHop.Call(callCtx, r.net, self.Addr, cur, key)
		cancel()
		if err != nil {
			if cur == self.Addr {
				return "", hops, err
			}
			// Restart from ourselves; the ring will have healed around the
			// failed hop by the time we get back there.
			cur = self.Addr
			hops++
			continue
		}
		if nh.Owner {
			if cur != self.Addr {
				r.cache.Learn(nh.Range, cur, nh.Epoch, ring.ChainAddrs(cur, nh.Chain))
			}
			return cur, hops, nil
		}
		if !nh.Valid {
			// A peer with no usable successor: transient during a split
			// hand-off (the splitter has already ceded the upper half but
			// the new peer is not serving yet). Back off briefly and restart
			// from ourselves; the hop budget bounds the wait.
			if cur == self.Addr {
				return "", hops, ErrNoProgress
			}
			time.Sleep(r.cfg.CallTimeout / 4)
			cur = self.Addr
			hops++
			continue
		}
		cur = nh.Next.Addr
		hops++
		if err := ctx.Err(); err != nil {
			return "", hops, err
		}
	}
	return "", hops, ErrTooManyHops
}

// LinearFindOwner walks plain ring successors from this peer until it finds
// the owner — the baseline the framework always supports, and the fallback
// behaviour the hierarchy degrades to under heavy staleness. At each visited
// peer the ownership probe (nextHop) and the successor fetch (succ) are
// independent questions to the same peer, so they are pipelined on one
// connection: a non-owning hop costs one round trip instead of two, and the
// speculative successor answer is simply discarded at the owner.
func (r *Router) LinearFindOwner(ctx context.Context, key keyspace.Key) (transport.Addr, int, error) {
	self := r.ring.Self()
	cur := self.Addr
	hops := 0
	for hops < r.cfg.MaxHops {
		callCtx, cancel := context.WithTimeout(ctx, r.cfg.CallTimeout)
		probe := methodNextHop.CallAsync(callCtx, r.net, self.Addr, cur, key)
		var succPend *transport.PendingOf[ring.Node]
		if cur != self.Addr {
			succPend = methodSucc.CallAsync(callCtx, r.net, self.Addr, cur, transport.None{})
		}
		nh, err := probe.Result()
		if err != nil {
			cancel()
			return "", hops, err
		}
		if nh.Owner {
			cancel()
			if cur != self.Addr {
				r.cache.Learn(nh.Range, cur, nh.Epoch, ring.ChainAddrs(cur, nh.Chain))
			}
			return cur, hops, nil
		}
		// Ignore the greedy suggestion; step to the successor. We reuse the
		// nextHop handler only for the ownership test.
		succ, err := r.succAnswer(succPend)
		cancel()
		if err != nil {
			return "", hops, err
		}
		cur = succ
		hops++
	}
	return "", hops, ErrTooManyHops
}

// Cache exposes the owner-lookup cache for stats and operational probes.
func (r *Router) Cache() *routecache.Cache { return r.cache }

// CachedEntry returns the unvalidated cached ownership entry covering key.
// It is the fast path for callers that validate ownership at the target
// themselves — the pipelined scan's segment handler rejects a cursor it does
// not own, so the scan can skip FindOwner's probe entirely and go straight
// to the hinted peer.
func (r *Router) CachedEntry(key keyspace.Key) (routecache.Entry, bool) {
	return r.cache.Lookup(key)
}

// Resolve returns a route to key's owner for callers that validate ownership
// at the target themselves: the unvalidated cached hint when there is one,
// else a full FindOwner lookup and the entry it just learned. ranged is false
// when the lookup yielded only an address — the owner is this peer itself,
// which the cache never holds (or, in a race, the entry just learned was
// already displaced) — and ent then carries no range, epoch or replicas.
func (r *Router) Resolve(ctx context.Context, key keyspace.Key) (ent routecache.Entry, ranged bool, err error) {
	if ent, ok := r.CachedEntry(key); ok {
		return ent, true, nil
	}
	owner, _, err := r.FindOwner(ctx, key)
	if err != nil {
		return routecache.Entry{}, false, err
	}
	if ent, ok := r.CachedEntry(key); ok && ent.Addr == owner {
		return ent, true, nil
	}
	return routecache.Entry{Addr: owner}, false, nil
}

// Learn records an ownership fact observed outside the router — a scan hop
// or a query reply — in the owner-lookup cache. epoch is the fact's
// ownership epoch (0 = unknown); the cache refuses to regress an overlapping
// entry to a lower epoch. chain is the owner's successor list (its replica
// holders); nil leaves previously learned candidates in place.
func (r *Router) Learn(rng keyspace.Range, addr transport.Addr, epoch uint64, chain []ring.Node) {
	if addr == r.ring.Self().Addr {
		return
	}
	r.cache.Learn(rng, addr, epoch, ring.ChainAddrs(addr, chain))
}

// InvalidateOwner drops addr's cached ownership entry — the peer disclaimed
// ownership or stopped answering.
func (r *Router) InvalidateOwner(addr transport.Addr) { r.cache.Invalidate(addr) }

// succAnswer resolves a pipelined successor fetch; a nil pending means the
// question was about this peer itself and is answered locally.
func (r *Router) succAnswer(p *transport.PendingOf[ring.Node]) (transport.Addr, error) {
	if p == nil {
		if succ, ok := r.ring.FirstStabilizedSuccessor(); ok {
			return succ.Addr, nil
		}
		if succs := r.ring.Successors(); len(succs) > 0 {
			return succs[0].Addr, nil
		}
		return "", ErrNoProgress
	}
	n, err := p.Result()
	if err != nil {
		return "", err
	}
	if n.IsZero() {
		return "", ErrNoProgress
	}
	return n.Addr, nil
}
