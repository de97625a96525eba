// Package ring implements the Fault Tolerant Ring of the indexing framework
// (Section 2.2) with the paper's PEPPER correctness and availability
// protocols, alongside the naive baselines it is evaluated against:
//
//   - Chord-style successor lists refreshed by periodic stabilization, with
//     failure detection by pinging the first successor (Section 2.3,
//     appendix Algorithms 14–18).
//   - PEPPER insertSucc (Section 4.3.1, Algorithms 1–2 and appendix 8–11):
//     a joining peer starts in the JOINING state; the pointer to it
//     propagates backwards through predecessors piggybacked on stabilization
//     until the farthest predecessor that needs the pointer acknowledges,
//     and only then does the peer transition to JOINED. This yields
//     consistent successor pointers (Theorem 1, Definition 5).
//   - PEPPER leave (Section 5.1, appendix Algorithms 12–13): a leaving peer
//     enters the LEAVING state; predecessors that point at it lengthen their
//     successor lists by one (they keep the LEAVING entry in front of the
//     fresh entries copied from its successor), and the peer departs only
//     after the farthest such predecessor acknowledges, so a single failure
//     can never disconnect the ring (the Figure 14 scenario).
//   - Naive insertSucc and naive leave, which skip the protocols entirely,
//     used as the baselines of Figures 19, 20 and 22 and to demonstrate the
//     inconsistency and availability-loss scenarios of Sections 4.2.1/5.1.
//
// Higher layers (the Data Store) attach through Callbacks; the ring raises
// the framework's events (INSERT/INSERTED, new-successor, predecessor
// change) without knowing anything about items or ranges, exactly the
// encapsulation the paper argues for in Section 3.
package ring

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/keyspace"
	"repro/internal/transport"
)

// Node identifies a ring participant: its network address (physical id) and
// its current value in the peer-value domain PV. The value determines the
// peer's position on the ring; a split may lower a peer's value, so Node
// values in cached entries can be stale while addresses never are. Nodes are
// compared by address.
type Node struct {
	Addr transport.Addr
	Val  keyspace.Key
}

// IsZero reports whether the node is unset.
func (n Node) IsZero() bool { return n.Addr == "" }

func (n Node) String() string {
	if n.IsZero() {
		return "<none>"
	}
	return fmt.Sprintf("%s(%d)", n.Addr, n.Val)
}

// ChainAddrs projects owner's successor chain to the addresses of its replica
// holders: a range's replicas live on its owner's successors, so unset nodes
// and the owner itself (a short ring's chain wraps back to it) are dropped.
// A nil chain yields nil — route caches read that as "no news" and keep the
// candidates they already hold.
func ChainAddrs(owner transport.Addr, chain []Node) []transport.Addr {
	if chain == nil {
		return nil
	}
	out := make([]transport.Addr, 0, len(chain))
	for _, n := range chain {
		if !n.IsZero() && n.Addr != owner {
			out = append(out, n.Addr)
		}
	}
	return out
}

// EntryState is the state a successor-list entry attributes to a peer.
type EntryState uint8

// Successor-list entry states (the paper's stateList values plus LEAVING).
const (
	EntryJoined EntryState = iota
	EntryJoining
	EntryLeaving
)

func (s EntryState) String() string {
	switch s {
	case EntryJoined:
		return "JOINED"
	case EntryJoining:
		return "JOINING"
	case EntryLeaving:
		return "LEAVING"
	default:
		return fmt.Sprintf("EntryState(%d)", uint8(s))
	}
}

// Entry is one successor-list slot: a peer, the state we attribute to it and
// the stabilized flag (STAB/NOTSTAB in appendix Algorithm 17): whether we
// have contacted this peer as our successor since it entered the slot.
type Entry struct {
	Node       Node
	State      EntryState
	Stabilized bool
}

// PeerState is the lifecycle state of the local peer (appendix Section 11.2).
type PeerState uint8

// Peer lifecycle states.
const (
	StateFree PeerState = iota
	StateJoining
	StateJoined
	StateInserting
	StateLeaving
)

func (s PeerState) String() string {
	switch s {
	case StateFree:
		return "FREE"
	case StateJoining:
		return "JOINING"
	case StateJoined:
		return "JOINED"
	case StateInserting:
		return "INSERTING"
	case StateLeaving:
		return "LEAVING"
	default:
		return fmt.Sprintf("PeerState(%d)", uint8(s))
	}
}

// Errors reported by ring operations.
var (
	ErrBusy      = errors.New("ring: peer is busy with another membership operation")
	ErrNotJoined = errors.New("ring: peer is not in the JOINED state")
	ErrNotReady  = errors.New("ring: peer not ready (JOINING)")
	ErrTimeout   = errors.New("ring: protocol acknowledgment timed out")
	ErrDeparted  = errors.New("ring: peer has departed")
)

// Callbacks connect the ring to higher layers. All callbacks are optional
// (nil fields are skipped) and are invoked without ring locks held.
//
// These events are also the ownership-epoch bump sites of the Data Store:
// every membership change the ring raises becomes a new ownership
// incarnation above it (PrepareJoinData/OnJoined carry a split's bumped
// epoch in the opaque payload; OnPredChanged with predFailed set triggers
// failure revival, whose claim must strictly supersede everything the
// failed predecessor ever advertised). The ring itself stays range-agnostic
// — exactly the Section 3 encapsulation — but its failure detector is the
// component whose false positives the epochs exist to fence: a suspicion
// raised against a live peer revives its range at a higher epoch, and the
// deposed incarnation later steps down instead of splitting the range's
// history in two (see ARCHITECTURE.md, "Ownership epochs").
type Callbacks struct {
	// PrepareJoinData is the framework's INSERT event, raised on the
	// inserting peer when the joining peer is about to transition to JOINED
	// (Algorithm 10 lines 20–23). The Data Store returns the payload to hand
	// to the new peer — for a split, the carved-off range and items.
	PrepareJoinData func(joining Node) any
	// OnJoined is the INSERTED event, raised on the joining peer once it is
	// JOINED, with the inserter's payload (Algorithm 11).
	OnJoined func(self Node, pred Node, data any)
	// OnPredChanged is raised when stabilization accepts a new predecessor
	// (the INFOFROMPRED path). prev is the previously accepted predecessor;
	// predFailed reports whether prev was detected dead, which is the
	// trigger for failure revival in the replication manager.
	OnPredChanged func(newPred, prev Node, predFailed bool)
	// OnNewSuccessor is the NEWSUCCEVENT, raised with the first JOINED
	// successor whenever the JOINED successors (Successors, the replication
	// targets) change: a new first successor, and also a new peer further
	// down the list, which the replication manager must push to at once
	// rather than at its next periodic refresh.
	OnNewSuccessor func(succ Node)
}

// Config controls ring behaviour.
type Config struct {
	// SuccListLen is the successor list length d (default 4, the paper's
	// experimental default in Section 6.1).
	SuccListLen int
	// StabPeriod is the ring stabilization period (paper default 4 s,
	// scaled; see bench.Params).
	StabPeriod time.Duration
	// PingPeriod is the successor failure-detection period; defaults to
	// StabPeriod.
	PingPeriod time.Duration
	// CallTimeout bounds individual protocol RPCs.
	CallTimeout time.Duration
	// AckTimeout bounds how long insertSucc/leave wait for their protocol
	// acknowledgment before failing; defaults to 20×StabPeriod.
	AckTimeout time.Duration
	// Naive selects the baseline insertSucc and leave implementations that
	// skip the PEPPER protocols (Section 6.2).
	Naive bool
	// NoProactive disables the proactive predecessor-contact optimization of
	// Section 4.3.1, leaving acknowledgment propagation to the periodic
	// stabilization alone. Used for the ablation benchmarks and for
	// deterministic protocol tests.
	NoProactive bool
	// DisableAutoStabilize turns off the periodic loops so tests can drive
	// stabilization step by step.
	DisableAutoStabilize bool
}

func (c Config) withDefaults() Config {
	if c.SuccListLen <= 0 {
		c.SuccListLen = 4
	}
	if c.StabPeriod <= 0 {
		c.StabPeriod = 40 * time.Millisecond
	}
	if c.PingPeriod <= 0 {
		c.PingPeriod = c.StabPeriod
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = c.StabPeriod
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 20 * c.StabPeriod
	}
	return c
}

// Peer is one ring participant. Construct with NewPeer, then either
// InitRing (first peer) or have an existing peer InsertSucc it.
type Peer struct {
	net  transport.Transport
	cfg  Config
	cb   Callbacks
	addr transport.Addr // immutable identity, safe to read without mu

	mu        sync.Mutex
	self      Node
	state     PeerState
	succ      []Entry
	pred      Node
	lastSuccs []transport.Addr // the JOINED successors OnNewSuccessor last reported
	joinAck   chan struct{}
	leaveAck  chan struct{}
	departed  bool

	loops transport.Runner // stabilization and failure detection

	// stabMu serializes stabilization rounds (periodic and proactive).
	stabMu sync.Mutex
}

// NewPeer constructs a peer in the FREE state and registers its protocol
// handlers on mux. The peer does not participate in any ring until InitRing
// or a join completes.
func NewPeer(net transport.Transport, mux *transport.Mux, cfg Config, self Node, cb Callbacks) *Peer {
	p := &Peer{
		net:   net,
		cfg:   cfg.withDefaults(),
		cb:    cb,
		addr:  self.Addr,
		self:  self,
		state: StateFree,
	}
	methodStabilize.Handle(mux, p.handleStabilize)
	methodPing.Handle(mux, p.handlePing)
	methodJoinAck.Handle(mux, p.handleJoinAck)
	methodJoined.Handle(mux, p.handleJoined)
	methodLeaveAck.Handle(mux, p.handleLeaveAck)
	methodStabNow.Handle(mux, p.handleStabNow)
	return p
}

// Self returns the peer's current identity (address and value).
func (p *Peer) Self() Node {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.self
}

// SetVal updates the peer's ring value. A Data Store split lowers the
// splitting peer's value to the split point; successor relationships are
// unaffected (the new peer takes over the old value and the range above the
// split point).
func (p *Peer) SetVal(v keyspace.Key) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.self.Val = v
}

// State returns the peer's lifecycle state.
func (p *Peer) State() PeerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// Pred returns the last accepted predecessor.
func (p *Peer) Pred() Node {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pred
}

// SuccessorList returns a copy of the successor list.
func (p *Peer) SuccessorList() []Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Entry, len(p.succ))
	copy(out, p.succ)
	return out
}

// Successors returns the JOINED successors in list order, the candidates for
// forwarding and replication.
func (p *Peer) Successors() []Node {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Node
	for _, e := range p.succ {
		if e.State == EntryJoined {
			out = append(out, e.Node)
		}
	}
	return out
}

// FirstStabilizedSuccessor implements getSucc (appendix Algorithm 21): the
// first JOINED entry, returned only if its stabilized flag is set; otherwise
// ok is false and higher layers must wait for stabilization.
func (p *Peer) FirstStabilizedSuccessor() (Node, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.succ {
		switch e.State {
		case EntryJoining:
			// Not serving yet; skip.
		case EntryJoined, EntryLeaving:
			// A LEAVING peer remains a valid forwarding target until it
			// departs (it still owns its range until the merge transfer).
			if e.Stabilized {
				return e.Node, true
			}
			return Node{}, false
		}
	}
	return Node{}, false
}

// InitRing makes this peer the first (and only) member of a new ring
// (appendix Algorithm 8). Its successor is itself, represented by an empty
// successor list, and it owns the whole value space.
func (p *Peer) InitRing() error {
	p.mu.Lock()
	if p.state != StateFree {
		p.mu.Unlock()
		return fmt.Errorf("%w: state %s", ErrBusy, p.state)
	}
	p.state = StateJoined
	p.succ = nil
	p.pred = p.self
	self := p.self
	p.mu.Unlock()
	if p.cb.OnJoined != nil {
		p.cb.OnJoined(self, self, nil)
	}
	p.start()
	return nil
}

// AdoptSuccessor makes this FREE peer JOINED with succ seeded as its first
// successor — the recovery re-entry path. A peer restarted from durable
// storage resumes its last ownership incarnation but has lost its ring
// neighbours; seeding a remembered contact (its bootstrap) gives the
// replication manager a push target immediately, so the recovered claim is
// either re-integrated by stabilization or — if a successor revived the
// range while the process was down — deposed through the normal push-conflict
// fencing within one refresh. The entry starts unstabilized; stabilization
// contacts it like any other fresh successor.
func (p *Peer) AdoptSuccessor(succ Node) error {
	p.mu.Lock()
	if p.state != StateFree {
		p.mu.Unlock()
		return fmt.Errorf("%w: state %s", ErrBusy, p.state)
	}
	p.state = StateJoined
	p.succ = []Entry{{Node: succ, State: EntryJoined}}
	p.pred = p.self
	self := p.self
	p.mu.Unlock()
	if p.cb.OnJoined != nil {
		p.cb.OnJoined(self, self, nil)
	}
	p.start()
	return nil
}

// start launches the periodic loops once the peer is part of a ring
// (idempotent; a no-op after Stop, so a join completing during teardown
// cannot race the shutdown).
func (p *Peer) start() {
	if p.cfg.DisableAutoStabilize {
		return
	}
	p.loops.Start(
		transport.NewTask(p.cfg.StabPeriod, p.StabilizeOnce),
		transport.NewTask(p.cfg.PingPeriod, p.PingOnce),
	)
}

// Stop terminates the peer's background loops without any protocol; used for
// teardown. It does not mark the peer failed on the network.
func (p *Peer) Stop() { p.loops.Stop() }
