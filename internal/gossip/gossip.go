// Package gossip runs the decentralized membership directory of the system:
// periodic anti-entropy rounds that spread, peer to peer, everything a split
// or an audit needs to know about the rest of the cluster — which peers are
// free, the latest advertised (range, epoch) per owner, and liveness
// suspicions — so that no single process (in particular the bootstrap) is a
// required intermediary for membership changes.
//
// The paper's Data Store assumes a free-peer pool that splits draw from
// (Section 2.3) but leaves its realization open; the seed deployment
// centralized it on the bootstrap process, which made the bootstrap a single
// point of failure for growth: kill it and no other peer could ever split.
// This package removes that asymmetry. Every peer runs an Agent; each round
// the Agent picks a few known members at random and performs a push-pull
// exchange — it sends its whole directory, the receiver merges and answers
// with its own merged state, and the caller merges the reply. Entries carry
// versions (free/suspicion flags) or epochs (range adverts), so merge is
// order-free and idempotent: higher version wins, and the directory at every
// peer converges to the same state within O(log n) rounds of the last update
// under standard epidemic-dissemination behaviour.
//
// The directory is deliberately advisory. Correctness never depends on it:
// range adverts feed Store.ObserveRemoteClaim, which only ever *steps down*
// a stale owner (the epoch fence stays the authority), and a free-peer entry
// that turns out stale just costs a failed split insert, which releases the
// address back to the pool. What the directory buys is availability — any
// peer can resolve a free peer for its split from its own directory, and
// failing that from the directory of the peer it announced to (see
// core.Standalone.Acquire).
package gossip

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/keyspace"
	"repro/internal/transport"
)

// methodExchange is the single RPC of the protocol: a push-pull directory
// exchange. The payload and the response are both full directory snapshots.
var methodExchange = transport.NewMethod[exchangeMsg, exchangeMsg]("gossip.exchange")

// FreeEntry is the directory's knowledge of one announced free peer. Version
// orders conflicting observations (higher wins); at equal versions Taken
// wins, so a peer drawn into the ring is never resurrected as free by a
// slower replica of the same fact.
type FreeEntry struct {
	Version uint64
	Taken   bool
}

// RangeAd is the latest ownership advert known for one peer: the range it
// claimed and the epoch of the claim. Adverts merge by higher epoch — the
// same monotonic order the epoch fence enforces on the data path. Sig, when
// present, signs (owner, range, epoch) with the owner's identity key; on
// clusters with identities a receiver verifies it before the advert may enter
// its directory or reach ObserveAdvert, so a forged higher-epoch advert
// cannot ride gossip to depose the real owner.
type RangeAd struct {
	Range keyspace.Range
	Epoch uint64
	Sig   auth.AdvertSig
}

// SuspectEntry is the directory's liveness suspicion of one peer, versioned
// like FreeEntry (higher version wins; at equal versions Suspected wins).
type SuspectEntry struct {
	Version   uint64
	Suspected bool
}

// Directory is the gossiped membership state. All maps are keyed by the
// peer's transport address (its identity). A Directory is a value that
// crosses the wire whole; Agent holds the authoritative local copy and
// merges remote ones into it.
type Directory struct {
	Free     map[transport.Addr]FreeEntry
	Ranges   map[transport.Addr]RangeAd
	Suspects map[transport.Addr]SuspectEntry
	Members  map[transport.Addr]bool
}

// exchangeMsg carries one side of a push-pull exchange.
type exchangeMsg struct {
	From transport.Addr
	Dir  Directory
}

func newDirectory() Directory {
	return Directory{
		Free:     make(map[transport.Addr]FreeEntry),
		Ranges:   make(map[transport.Addr]RangeAd),
		Suspects: make(map[transport.Addr]SuspectEntry),
		Members:  make(map[transport.Addr]bool),
	}
}

// clone deep-copies the directory (the wire snapshot must not alias the
// maps the Agent keeps mutating).
func (d Directory) clone() Directory {
	out := newDirectory()
	for a, e := range d.Free {
		out.Free[a] = e
	}
	for a, r := range d.Ranges {
		out.Ranges[a] = r
	}
	for a, s := range d.Suspects {
		out.Suspects[a] = s
	}
	for a := range d.Members {
		out.Members[a] = true
	}
	return out
}

// Config tunes one Agent.
type Config struct {
	// Interval between anti-entropy rounds; zero or negative disables the
	// background loop (RunRound still works, which is how tests drive
	// deterministic rounds).
	Interval time.Duration
	// Fanout is how many members each round exchanges with. Default 2.
	Fanout int
	// CallTimeout bounds one exchange RPC. Default 2s.
	CallTimeout time.Duration
	// Seed drives peer selection; default 1.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Fanout <= 0 {
		c.Fanout = 2
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Agent is one peer's gossip participant: it serves exchanges on the peer's
// mux and (when Interval > 0 and Start is called) initiates its own rounds.
// All methods are safe for concurrent use.
type Agent struct {
	// SelfAdvert, when set, is consulted at the start of every round to
	// republish this peer's own claim into the directory: it reports the
	// currently owned range, its epoch, and whether the peer is serving at
	// all. Set before Start.
	SelfAdvert func() (keyspace.Range, uint64, bool)
	// ObserveAdvert, when set, is invoked (without internal locks held) for
	// every remote range advert that enters or improves in the directory.
	// core wires it to Store.ObserveRemoteClaim, which steps the local peer
	// down if the advert proves its own claim stale. Set before Start.
	ObserveAdvert func(owner transport.Addr, rng keyspace.Range, epoch uint64)
	// Identity, when set, signs this peer's own range advert each time
	// republishSelf re-injects it, so the claim gossips with proof of origin.
	// Set before Start.
	Identity *auth.Identity
	// Keyring, when set, verifies every merged advert that would enter or
	// improve in the directory: an advert whose signature does not verify
	// under the key pinned for its claimed owner is dropped and counted in
	// SigRejects — it never installs, never reaches ObserveAdvert, and never
	// gossips onward from this peer. Set before Start.
	Keyring *auth.Keyring

	tr   transport.Transport
	self transport.Addr
	cfg  Config

	mu  sync.Mutex
	dir Directory

	rngMu sync.Mutex
	rng   *rand.Rand

	rounds     atomic.Uint64
	sigRejects atomic.Uint64

	loops transport.Runner // the round loop
}

// New creates an Agent for the peer at self and installs its exchange
// handler on mux. The agent knows only itself until members are added
// (AddMember, MarkFree) or gossip brings them in.
func New(tr transport.Transport, mux *transport.Mux, self transport.Addr, cfg Config) *Agent {
	cfg = cfg.withDefaults()
	a := &Agent{
		tr:   tr,
		self: self,
		cfg:  cfg,
		dir:  newDirectory(),
		rng:  rand.New(rand.NewSource(cfg.Seed ^ int64(len(self))*7919)),
	}
	a.dir.Members[self] = true
	methodExchange.Handle(mux, a.handleExchange)
	return a
}

// Start launches the periodic round loop (idempotent; no-op after Stop). A
// no-op when Interval <= 0.
func (a *Agent) Start() {
	if a.cfg.Interval <= 0 {
		return
	}
	a.loops.Start(transport.NewTask(a.cfg.Interval, func() {
		ctx, cancel := context.WithTimeout(context.Background(), a.cfg.CallTimeout)
		defer cancel()
		a.RunRound(ctx)
	}))
}

// Stop halts the round loop (idempotent). The exchange handler keeps
// serving; a stopped agent still answers, it just stops initiating.
func (a *Agent) Stop() { a.loops.Stop() }

// Rounds reports how many anti-entropy rounds this agent has initiated.
func (a *Agent) Rounds() uint64 { return a.rounds.Load() }

// SigRejects reports how many merged adverts were dropped because their
// signature failed verification.
func (a *Agent) SigRejects() uint64 { return a.sigRejects.Load() }

// RunRound performs one anti-entropy round: republish the local claim, pick
// up to Fanout unsuspected members, and push-pull the directory with each.
// An unreachable target is marked suspected (versioned, so the suspicion
// gossips); a target that answers is cleared. Exported so tests drive
// convergence deterministically.
func (a *Agent) RunRound(ctx context.Context) {
	a.rounds.Add(1)
	a.republishSelf()

	targets := a.pickTargets()
	for _, to := range targets {
		snap := a.snapshot()
		callCtx, cancel := context.WithTimeout(ctx, a.cfg.CallTimeout)
		msg, err := methodExchange.Call(callCtx, a.tr, a.self, to, exchangeMsg{From: a.self, Dir: snap})
		cancel()
		if err != nil {
			a.setSuspected(to, true)
			continue
		}
		a.setSuspected(to, false)
		a.merge(msg.Dir)
	}
}

// handleExchange serves the receiving side: merge the pushed state, note the
// caller as a live member, and answer with the merged directory.
func (a *Agent) handleExchange(from transport.Addr, msg exchangeMsg) (exchangeMsg, error) {
	sender := msg.From
	if sender == "" {
		sender = from
	}
	a.merge(msg.Dir)
	a.mu.Lock()
	a.dir.Members[sender] = true
	a.mu.Unlock()
	// Hearing from a peer directly is the strongest liveness signal there
	// is; clear any standing suspicion of it.
	a.setSuspected(sender, false)
	return exchangeMsg{From: a.self, Dir: a.snapshot()}, nil
}

// republishSelf refreshes this peer's own range advert in the directory, so
// every round re-injects the locally authoritative claim even if a stale
// merge briefly shadowed it.
func (a *Agent) republishSelf() {
	if a.SelfAdvert == nil {
		return
	}
	rng, epoch, has := a.SelfAdvert()
	if !has {
		return
	}
	ad := RangeAd{Range: rng, Epoch: epoch}
	if a.Identity != nil {
		ad.Sig = a.Identity.SignAdvert(string(a.self), rng.Lo, rng.Hi, epoch)
	}
	a.mu.Lock()
	if cur, ok := a.dir.Ranges[a.self]; !ok || epoch >= cur.Epoch {
		a.dir.Ranges[a.self] = ad
	}
	a.dir.Members[a.self] = true
	a.mu.Unlock()
}

// suspectProbePeriod is how often (in rounds) a suspected member is probed
// anyway: without the periodic probe a suspicion would be permanent — two
// halves of a healed partition would each keep skipping the other forever.
// Probing rarely keeps the per-round cost of genuinely dead peers (one
// timed-out call) amortized.
const suspectProbePeriod = 4

// pickTargets selects up to Fanout random unsuspected members, plus — every
// suspectProbePeriod rounds — one random suspected member, so suspicions
// heal when the peer turns out to be reachable again.
func (a *Agent) pickTargets() []transport.Addr {
	round := a.rounds.Load()
	a.mu.Lock()
	var cands, suspects []transport.Addr
	for m := range a.dir.Members {
		if m == a.self {
			continue
		}
		if s, ok := a.dir.Suspects[m]; ok && s.Suspected {
			suspects = append(suspects, m)
			continue
		}
		cands = append(cands, m)
	}
	a.mu.Unlock()
	a.rngMu.Lock()
	a.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	var probe transport.Addr
	if len(suspects) > 0 && round%suspectProbePeriod == 0 {
		probe = suspects[a.rng.Intn(len(suspects))]
	}
	a.rngMu.Unlock()
	if len(cands) > a.cfg.Fanout {
		cands = cands[:a.cfg.Fanout]
	}
	if probe != "" {
		cands = append(cands, probe)
	}
	return cands
}

// snapshot returns a deep copy of the directory for the wire.
func (a *Agent) snapshot() Directory {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dir.clone()
}

// merge folds a remote directory into the local one under the versioned
// merge rules (order-free, idempotent), then fires ObserveAdvert for every
// foreign range advert that entered or improved.
func (a *Agent) merge(in Directory) {
	type obs struct {
		owner transport.Addr
		ad    RangeAd
	}
	var observed []obs

	a.mu.Lock()
	for addr, e := range in.Free {
		cur, ok := a.dir.Free[addr]
		if !ok || e.Version > cur.Version || (e.Version == cur.Version && e.Taken && !cur.Taken) {
			a.dir.Free[addr] = e
		}
		a.dir.Members[addr] = true
	}
	for owner, ad := range in.Ranges {
		cur, ok := a.dir.Ranges[owner]
		if !ok || ad.Epoch > cur.Epoch {
			// Verify before install: a forged advert must not improve the
			// directory, trigger a step-down, or gossip onward from here. The
			// owner is not even recorded as a member on its say-so.
			if a.Keyring != nil {
				if err := a.Keyring.VerifyAdvert(string(owner), ad.Range.Lo, ad.Range.Hi, ad.Epoch, ad.Sig); err != nil {
					a.sigRejects.Add(1)
					continue
				}
			}
			a.dir.Ranges[owner] = ad
			if owner != a.self {
				observed = append(observed, obs{owner: owner, ad: ad})
			}
		}
		a.dir.Members[owner] = true
	}
	for addr, s := range in.Suspects {
		cur, ok := a.dir.Suspects[addr]
		if !ok || s.Version > cur.Version || (s.Version == cur.Version && s.Suspected && !cur.Suspected) {
			a.dir.Suspects[addr] = s
		}
	}
	for m := range in.Members {
		a.dir.Members[m] = true
	}
	hook := a.ObserveAdvert
	a.mu.Unlock()

	if hook != nil {
		for _, o := range observed {
			hook(o.owner, o.ad.Range, o.ad.Epoch)
		}
	}
}

// setSuspected flips a peer's suspicion flag, bumping the version so the
// newer observation wins everywhere it gossips to. A no-op when the flag
// already has the desired value (no version churn from repeated agreement).
func (a *Agent) setSuspected(addr transport.Addr, suspected bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.dir.Suspects[addr]
	if cur.Suspected == suspected && (cur.Version > 0 || !suspected) {
		return
	}
	a.dir.Suspects[addr] = SuspectEntry{Version: cur.Version + 1, Suspected: suspected}
}

// AddMember seeds a known member (e.g. the bootstrap contact a free peer
// announced to), giving the first rounds someone to talk to.
func (a *Agent) AddMember(addr transport.Addr) {
	if addr == "" || addr == a.self {
		return
	}
	a.mu.Lock()
	a.dir.Members[addr] = true
	a.mu.Unlock()
}

// MarkFree records addr as an available free peer (version-bumped, so the
// fresh observation out-gossips any stale taken flag).
func (a *Agent) MarkFree(addr transport.Addr) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.dir.Free[addr]
	if cur.Version > 0 && !cur.Taken {
		return
	}
	a.dir.Free[addr] = FreeEntry{Version: cur.Version + 1, Taken: false}
	a.dir.Members[addr] = true
}

// MarkTaken records addr as drawn out of the free pool.
func (a *Agent) MarkTaken(addr transport.Addr) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.dir.Free[addr]
	if cur.Version > 0 && cur.Taken {
		return
	}
	a.dir.Free[addr] = FreeEntry{Version: cur.Version + 1, Taken: true}
}

// TakeFree resolves a free peer from the gossiped directory for a split:
// the first known-free address that is not this peer, not suspected, and not
// advertising a range. The taken mark is applied locally and spreads by
// gossip, so two concurrent takers of the same address are possible (gossip
// is eventually consistent). The directory grants nothing: the free peer
// grants itself to one inserter (ring.reserve), and the other split fails in
// one round trip, having changed nothing, and drops the address. Reports
// ok=false when the directory knows no eligible free peer.
func (a *Agent) TakeFree() (transport.Addr, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for addr, e := range a.dir.Free {
		if a.lendableLocked(addr, e) {
			a.dir.Free[addr] = FreeEntry{Version: e.Version + 1, Taken: true}
			return addr, true
		}
	}
	return "", false
}

// FreeCount reports how many free peers TakeFree could lend right now.
func (a *Agent) FreeCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for addr, e := range a.dir.Free {
		if a.lendableLocked(addr, e) {
			n++
		}
	}
	return n
}

// lendableLocked reports whether a free entry may be lent to a split: it is
// untaken, not this peer, not suspected, and not advertising a range.
func (a *Agent) lendableLocked(addr transport.Addr, e FreeEntry) bool {
	if e.Taken || addr == a.self {
		return false
	}
	if s, ok := a.dir.Suspects[addr]; ok && s.Suspected {
		return false
	}
	_, owns := a.dir.Ranges[addr]
	return !owns
}

// MemberCount reports how many distinct peers the directory knows of
// (including this one).
func (a *Agent) MemberCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.dir.Members)
}

// Snapshot returns a deep copy of the current directory, for tests and
// operational introspection.
func (a *Agent) Snapshot() Directory { return a.snapshot() }
