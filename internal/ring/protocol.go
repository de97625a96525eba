package ring

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/keyspace"
	"repro/internal/transport"
)

// The ring's RPCs.
var (
	methodStabilize = transport.NewMethod[stabilizeReq, stabilizeResp]("ring.stabilize")
	methodPing      = transport.NewMethod[transport.None, pingResp]("ring.ping")
	methodJoinAck   = transport.NewMethod[joinAckMsg, transport.None]("ring.joinAck")
	methodJoined    = transport.NewMethod[joinedMsg, bool]("ring.joined")
	methodLeaveAck  = transport.NewMethod[transport.None, transport.None]("ring.leaveAck")
	methodStabNow   = transport.NewMethod[transport.None, transport.None]("ring.stabNow")
)

// stabilizeReq is sent by a peer to its first live successor each round.
type stabilizeReq struct {
	From Node // the contacting predecessor's current identity
}

// stabilizeResp carries the successor's identity, lifecycle state and
// successor list back to the contacting predecessor (Algorithm 18). Pred is
// the responder's current predecessor, used for Chord's rectification: if
// the responder knows a predecessor that lies between the contacting peer
// and itself, the contacting peer's successor pointer is too far and must
// step back — without this, a transiently lost entry could leave two peers
// in a self-reinforcing sub-ring view that forward list copying never heals.
type stabilizeResp struct {
	Node  Node
	State PeerState // StateJoined or StateLeaving
	List  []Entry
	Pred  Node
}

// joinAckMsg tells an inserting peer that its JOINING successor is known to
// every predecessor that needs it (Algorithm 2 lines 12–14).
type joinAckMsg struct {
	Joining Node // the JOINING peer the ack is about
}

// joinedMsg tells a JOINING peer it is now part of the ring (Algorithm 11).
type joinedMsg struct {
	Self Node // the joining peer's identity as recorded by the inserter
	Pred Node // the inserting peer (the new peer's predecessor)
	List []Entry
	Data any // higher-layer payload from PrepareJoinData (the INSERT event)
}

// ctx returns a context bounded by the peer's RPC timeout.
func (p *Peer) ctx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), p.cfg.CallTimeout)
}

// --- Stabilization -------------------------------------------------------

// StabilizeOnce runs one ring stabilization round (appendix Algorithm 16):
// contact the first live non-LEAVING JOINED successor, adopt its list, and
// run the PEPPER join/leave acknowledgment rules.
func (p *Peer) StabilizeOnce() {
	p.stabMu.Lock()
	defer p.stabMu.Unlock()

	p.mu.Lock()
	if p.departed || (p.state != StateJoined && p.state != StateInserting && p.state != StateLeaving) {
		// LEAVING peers keep stabilizing so their own view stays fresh for
		// the final data hand-off, but do not propagate join/leave acks.
		p.mu.Unlock()
		return
	}
	self := p.self
	// Choose the stabilization target: skip our own JOINING child (index 0
	// while INSERTING), JOINING peers (they do not respond) and LEAVING
	// peers (Algorithm 16 lines 3–7).
	target, ok := p.firstUsableSuccLocked()
	p.mu.Unlock()
	if !ok {
		return // alone on the ring, or no usable successor yet
	}

	ctx, cancel := p.ctx()
	sr, err := methodStabilize.Call(ctx, p.net, self.Addr, target.Addr, stabilizeReq{From: self})
	cancel()
	if err != nil {
		return // ping loop handles failed successors
	}
	p.adoptSuccessorList(target, sr)
}

// adoptSuccessorList merges the target successor's response into our list
// (appendix Algorithm 17) and applies the PEPPER acknowledgment rules.
func (p *Peer) adoptSuccessorList(target Node, sr stabilizeResp) {
	p.mu.Lock()
	if p.departed {
		p.mu.Unlock()
		return
	}
	// Staleness guard: if the peer we contacted is no longer our first
	// usable successor (an insertion completed while the round was in
	// flight), adopting its list would clobber the closer successor — and
	// since list entries only propagate forward along the ring, a skipped
	// successor could never be re-learned. Discard the round.
	if cur, ok := p.firstUsableSuccLocked(); !ok || cur.Addr != target.Addr {
		p.mu.Unlock()
		return
	}

	head := Entry{Node: sr.Node, State: EntryJoined, Stabilized: true}
	if sr.State == StateLeaving {
		head.State = EntryLeaving
	}

	var list []Entry
	// Keep our own JOINING child in front while INSERTING (Algorithm 17
	// lines 2–4).
	if p.state == StateInserting && len(p.succ) > 0 && p.succ[0].State == EntryJoining {
		list = append(list, p.succ[0])
	}
	// Keep LEAVING entries positioned before the target: this is the
	// successor-list lengthening that preserves availability (Section 5.1,
	// Algorithm 17 line 1).
	for _, e := range p.succ {
		if e.Node.Addr == target.Addr {
			break
		}
		if e.State == EntryLeaving {
			list = append(list, e)
		}
	}
	list = append(list, head)
	for _, e := range sr.List {
		// Fresh entries start NOTSTAB (Algorithm 17 line 12).
		list = append(list, Entry{Node: e.Node, State: e.State, Stabilized: false})
	}

	list, wrapped := p.normalizeLocked(list)

	// PEPPER acknowledgment rules, derived from Algorithm 16 lines 30–42 and
	// Algorithm 2 lines 9–14, generalized to concurrent membership changes
	// and to rings smaller than the list length.
	//
	// A predecessor q "needs" the pointer to a JOINING peer e when q's list
	// holds e's inserter followed by at least one further JOINED entry —
	// otherwise q could skip e (Definition 5). Since lists hold at most d
	// JOINED entries and the pointer propagates strictly backwards along the
	// chain of JOINED predecessors, the farthest predecessor that needs e is
	// the one whose list has exactly ONE JOINED entry after e. We may only
	// trust that distance measurement when our view is complete: either the
	// list is saturated (d JOINED entries — the cap proves nothing was
	// missing in between) or it wrapped at self (we see the whole ring). In
	// a wrapped list, zero JOINED entries after e also means we are the
	// farthest predecessor (ring-of-two case).
	//
	// The join ack goes to the entry preceding e — always e's inserter, even
	// if our state label for it is stale. The leave ack goes to the LEAVING
	// peer itself, which keeps its entry (that retained entry is the
	// successor-list lengthening of Section 5.1). Entries beyond the d-th
	// JOINED entry were already culled by normalization, which is the
	// "beyond the horizon" drop of Algorithm 17.
	fullHorizon := p.countJoinedLocked(list) >= p.cfg.SuccListLen
	var ackJoinTo, ackJoinAbout Node
	var ackLeaveTo Node
	joinedAfter := 0
	for i := len(list) - 1; i >= 0; i-- {
		e := list[i]
		if e.State == EntryJoined {
			joinedAfter++
			continue
		}
		farthest := (joinedAfter == 1 && (fullHorizon || wrapped)) || (joinedAfter == 0 && wrapped)
		if !farthest {
			continue
		}
		switch e.State {
		case EntryJoining:
			if i > 0 {
				ackJoinTo = list[i-1].Node
				ackJoinAbout = e.Node
			}
		case EntryLeaving:
			ackLeaveTo = e.Node
		}
	}

	// Chord rectification candidate: the target knows a predecessor that —
	// per the value it reported — lies strictly between us and it, meaning
	// our successor pointer may have skipped that peer. The reported value
	// can be stale (ring values move during splits), and acting on a stale
	// value can drag our pointer backwards, so verification against the
	// peer's CURRENT value happens asynchronously before anything changes.
	var rectify Node
	if pr := sr.Pred; !pr.IsZero() && pr.Addr != p.self.Addr &&
		betweenOnRing(pr.Val, p.self.Val, target.Val) && !containsAddr(list, pr.Addr) {
		rectify = pr
	}

	p.succ = list
	p.raiseNewSuccLocked()
	self := p.self
	p.mu.Unlock()

	if !rectify.IsZero() {
		go p.verifyAndRectify(rectify.Addr)
	}
	if !ackJoinTo.IsZero() {
		methodJoinAck.Send(p.net, self.Addr, ackJoinTo.Addr, joinAckMsg{Joining: ackJoinAbout})
	}
	if !ackLeaveTo.IsZero() {
		methodLeaveAck.Send(p.net, self.Addr, ackLeaveTo.Addr, transport.None{})
	}
}

// normalizeLocked dedupes the list by address (keeping the first, freshest
// occurrence), truncates at self (entries past ourselves wrap the ring and
// are redundant), and caps the number of JOINED entries at the configured
// successor list length (Algorithm 17 lines 5–9). wrapped reports whether
// the list was truncated at self, i.e. it covers every other peer we know
// of on the ring. Callers hold p.mu.
func (p *Peer) normalizeLocked(list []Entry) (out []Entry, wrapped bool) {
	seen := make(map[transport.Addr]bool, len(list))
	out = list[:0]
	for _, e := range list {
		if e.Node.Addr == p.self.Addr {
			wrapped = true
			break
		}
		if seen[e.Node.Addr] {
			continue
		}
		seen[e.Node.Addr] = true
		out = append(out, e)
	}
	// Cap JOINED entries at d; drop everything after the d-th JOINED entry.
	joined := 0
	for i, e := range out {
		if e.State != EntryJoined {
			continue
		}
		joined++
		if joined == p.cfg.SuccListLen {
			out = out[:i+1]
			break
		}
	}
	return out, wrapped
}

// firstUsableSuccLocked returns the stabilization target: the first JOINED
// entry, skipping our own JOINING child while INSERTING. Callers hold p.mu.
func (p *Peer) firstUsableSuccLocked() (Node, bool) {
	inserting := p.state == StateInserting
	for i, e := range p.succ {
		if inserting && i == 0 && e.State == EntryJoining {
			continue
		}
		if e.State == EntryJoined {
			return e.Node, true
		}
	}
	return Node{}, false
}

// containsAddr reports whether list holds an entry for addr.
func containsAddr(list []Entry, addr transport.Addr) bool {
	for _, e := range list {
		if e.Node.Addr == addr {
			return true
		}
	}
	return false
}

func (p *Peer) countJoinedLocked(list []Entry) int {
	n := 0
	for _, e := range list {
		if e.State == EntryJoined {
			n++
		}
	}
	return n
}

// raiseNewSuccLocked fires OnNewSuccessor when the JOINED successors changed
// since it last fired, whichever site changed the list: stabilization and
// failure removal call it. Callers hold p.mu; the callback runs
// asynchronously.
func (p *Peer) raiseNewSuccLocked() {
	var joined []transport.Addr
	var first Node
	for _, e := range p.succ {
		if e.State != EntryJoined {
			continue
		}
		if first.IsZero() {
			first = e.Node
		}
		joined = append(joined, e.Node.Addr)
	}
	if first.IsZero() || slices.Equal(joined, p.lastSuccs) {
		return
	}
	p.lastSuccs = joined
	if cb := p.cb.OnNewSuccessor; cb != nil {
		go cb(first)
	}
}

// handleStabilize answers a predecessor's stabilization request
// (appendix Algorithm 18). JOINING peers do not respond.
func (p *Peer) handleStabilize(_ transport.Addr, req stabilizeReq) (stabilizeResp, error) {
	p.mu.Lock()
	if p.departed {
		p.mu.Unlock()
		return stabilizeResp{}, ErrDeparted
	}
	switch p.state {
	case StateJoined, StateInserting, StateLeaving:
	default:
		p.mu.Unlock()
		return stabilizeResp{}, ErrNotReady
	}
	prev := p.pred
	self := p.self
	p.mu.Unlock()

	// Predecessor acceptance. Accept req.From as our predecessor when it is
	// the same peer refreshing, when it sits between our current predecessor
	// and us (a closer peer — someone joined in between), or when our current
	// predecessor is dead (its successor-of-successor reconnecting after a
	// failure; verified by ping so that the stale-contact scenario of
	// Figure 9 cannot shrink or grow anyone's responsibility incorrectly).
	accepted := false
	predFailed := false
	switch {
	case prev.IsZero() || prev.Addr == self.Addr || prev.Addr == req.From.Addr:
		accepted = true
	case req.From.Val == prev.Val:
		// A split handed our boundary value to a new peer: the new holder of
		// the value is our predecessor now; no range movement is implied.
		accepted = true
	case betweenOnRing(req.From.Val, prev.Val, self.Val):
		accepted = true
	default:
		// req.From is behind our current predecessor; only accept if the
		// current predecessor is gone.
		if !p.pingNode(prev.Addr) {
			accepted = true
			predFailed = true
		}
	}
	if accepted && (prev.Addr != req.From.Addr || prev.Val != req.From.Val) {
		p.mu.Lock()
		// Re-check under lock: another contact may have won the race.
		if p.pred.Addr == prev.Addr {
			p.pred = req.From
			p.mu.Unlock()
			if cb := p.cb.OnPredChanged; cb != nil {
				cb(req.From, prev, predFailed)
			}
		} else {
			p.mu.Unlock()
		}
	}

	p.mu.Lock()
	resp := stabilizeResp{Node: p.self, State: StateJoined, List: make([]Entry, len(p.succ)), Pred: p.pred}
	if p.state == StateLeaving {
		resp.State = StateLeaving
	}
	copy(resp.List, p.succ)
	p.mu.Unlock()
	return resp, nil
}

// betweenOnRing reports whether v lies strictly between lo and hi clockwise.
func betweenOnRing(v, lo, hi keyspace.Key) bool {
	if lo == hi {
		return v != lo
	}
	return keyspace.Between(v, lo, hi) && v != hi
}

// ping asks the peer at addr for its current identity and lifecycle state.
func (p *Peer) ping(addr transport.Addr) (pingResp, error) {
	ctx, cancel := p.ctx()
	defer cancel()
	return methodPing.Call(ctx, p.net, p.Self().Addr, addr, transport.None{})
}

// pingNode synchronously checks liveness of a peer.
func (p *Peer) pingNode(addr transport.Addr) bool {
	_, err := p.ping(addr)
	return err == nil
}

// pingResp reports the pinged peer's current identity and lifecycle state.
type pingResp struct {
	Node  Node
	State PeerState
}

// handlePing answers liveness checks in every state except after departure.
func (p *Peer) handlePing(transport.Addr, transport.None) (pingResp, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.departed {
		return pingResp{}, ErrDeparted
	}
	return pingResp{Node: p.self, State: p.state}, nil
}

// verifyAndRectify completes a Chord rectification: fetch the candidate's
// current identity and, if its CURRENT value still places it strictly
// between us and our current first successor (and it is serving), adopt it
// as our new first successor.
func (p *Peer) verifyAndRectify(addr transport.Addr) {
	pr, err := p.ping(addr)
	if err != nil || pr.State != StateJoined && pr.State != StateInserting {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.departed || containsAddr(p.succ, pr.Node.Addr) {
		return
	}
	cur, haveSucc := p.firstUsableSuccLocked()
	if haveSucc && !betweenOnRing(pr.Node.Val, p.self.Val, cur.Val) {
		return
	}
	if !haveSucc && len(p.succ) > 0 {
		return // unresolved JOINING/LEAVING entries in front; do not meddle
	}
	p.succ = append([]Entry{{Node: pr.Node, State: EntryJoined}}, p.succ...)
}

// --- Failure detection ----------------------------------------------------

// PingOnce runs one round of successor failure detection (appendix
// Algorithm 14): ping the first JOINED successor; if it is gone, remove it
// along with the JOINING entries that followed it — their sponsor died
// before the protocol completed, so their joins are aborted. A LEAVING
// first entry is also pinged and dropped once it departs.
//
// Deviation from Algorithm 14, which *promotes* a live orphaned JOINING
// peer to JOINED: in this implementation the Data Store hand-off happens at
// acknowledgment time, so an orphan holds no range and no items, while the
// dead inserter's successor concurrently revives the failed range from its
// replicas (Section 5.2). Promoting the orphan would make two peers claim
// overlapping responsibility; dropping it keeps recovery single-owner, and
// the orphan peer simply never joins (it can be pooled again as free).
func (p *Peer) PingOnce() {
	p.mu.Lock()
	if p.departed || (p.state != StateJoined && p.state != StateInserting && p.state != StateLeaving) {
		p.mu.Unlock()
		return
	}
	inserting := p.state == StateInserting
	type probe struct {
		idx int
		n   Node
		st  EntryState
	}
	var first *probe
	for i, e := range p.succ {
		if inserting && i == 0 {
			continue
		}
		if e.State == EntryJoined || e.State == EntryLeaving {
			first = &probe{idx: i, n: e.Node, st: e.State}
			break
		}
	}
	p.mu.Unlock()
	if first == nil {
		return
	}
	if p.pingNode(first.n.Addr) {
		return
	}

	// The successor is gone. Remove it together with the JOINING entries
	// directly following it (its children, whose joins are now aborted).
	p.mu.Lock()
	idx := -1
	for i, e := range p.succ {
		if e.Node.Addr == first.n.Addr && e.State == first.st {
			idx = i
			break
		}
	}
	if idx < 0 {
		p.mu.Unlock()
		return
	}
	end := idx + 1
	for end < len(p.succ) && p.succ[end].State == EntryJoining {
		end++
	}
	p.succ = append(p.succ[:idx], p.succ[end:]...)
	p.raiseNewSuccLocked()
	p.mu.Unlock()
}

// --- PEPPER insertSucc ----------------------------------------------------

// InsertSucc inserts newNode as this peer's immediate successor, running the
// PEPPER protocol (Algorithms 1–2) unless the ring is configured naive.
// The call blocks until the new peer is JOINED (ack received and the
// join payload delivered) or ctx/AckTimeout expires.
func (p *Peer) InsertSucc(ctx context.Context, newNode Node) error {
	if p.cfg.Naive {
		return p.naiveInsertSucc(ctx, newNode)
	}
	if err := p.checkFree(newNode); err != nil {
		return err
	}

	p.mu.Lock()
	if p.departed {
		p.mu.Unlock()
		return ErrDeparted
	}
	if p.state != StateJoined {
		st := p.state
		p.mu.Unlock()
		return fmt.Errorf("%w: state %s", ErrBusy, st)
	}
	p.state = StateInserting
	p.succ = append([]Entry{{Node: newNode, State: EntryJoining}}, p.succ...)
	ack := make(chan struct{}, 1)
	p.joinAck = ack
	soloRing := p.countJoinedLocked(p.succ) == 0
	pred := p.pred
	self := p.self
	p.mu.Unlock()

	if soloRing {
		// Ring of one: there are no other predecessors to inform; the
		// insertion is trivially consistent (appendix base case).
		return p.completeJoin(ctx, newNode)
	}

	// Optimization from Section 4.3.1: proactively ask our predecessor to
	// stabilize now instead of waiting out the stabilization period.
	if !p.cfg.NoProactive && !pred.IsZero() && pred.Addr != self.Addr {
		methodStabNow.Send(p.net, self.Addr, pred.Addr, transport.None{})
	}

	if err := p.awaitAck(ctx, ack, fmt.Sprintf("insertSucc(%s)", newNode)); err != nil {
		p.abortInsert(newNode)
		return err
	}
	return p.completeJoin(ctx, newNode)
}

// checkFree fails unless n is a live FREE peer. One free address can reach
// two inserters — gossip spreads "taken" with a lag, and two pools can lend
// it — and a peer that already joined elsewhere ignores a joined message, so
// the loser must fail before it waits out an ack with its value lowered, and
// again before it carves its range for a peer that will not take it.
func (p *Peer) checkFree(n Node) error {
	pr, err := p.ping(n.Addr)
	if err == nil && pr.State != StateFree {
		err = fmt.Errorf("it is %s, not FREE", pr.State)
	}
	if err != nil {
		return fmt.Errorf("ring: cannot insert %s: %w", n, err)
	}
	return nil
}

// awaitAck waits for a protocol acknowledgment on ch. It fails with ctx.Err()
// when the caller's context ends first and with ErrTimeout, naming the
// operation, when AckTimeout passes; the caller then rolls the operation back.
func (p *Peer) awaitAck(ctx context.Context, ch <-chan struct{}, what string) error {
	deadline := time.NewTimer(p.cfg.AckTimeout)
	defer deadline.Stop()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-deadline.C:
		return fmt.Errorf("%w: %s", ErrTimeout, what)
	}
}

// completeJoin transitions the JOINING successor to JOINED: update local
// state, gather the higher-layer payload (INSERT event) and deliver the
// joined message (Algorithm 10 lines 13–25, Algorithm 11).
func (p *Peer) completeJoin(ctx context.Context, newNode Node) error {
	p.mu.Lock()
	if len(p.succ) == 0 || p.succ[0].Node.Addr != newNode.Addr || p.succ[0].State != EntryJoining {
		p.mu.Unlock()
		return fmt.Errorf("ring: join state lost for %s", newNode)
	}
	p.succ[0].State = EntryJoined
	// Our successor changed: every entry must be re-stabilized before it is
	// used for forwarding (Algorithm 10 line 16).
	for i := range p.succ {
		p.succ[i].Stabilized = false
	}
	p.state = StateJoined
	// The new peer's successor list: everything after it in ours. Only when
	// that holds no JOINED peer at all (a ring of two) do we add ourselves
	// as its successor — we are its predecessor, so in any larger ring an
	// entry for us would be a bogus long-range pointer.
	list := make([]Entry, len(p.succ)-1, len(p.succ))
	copy(list, p.succ[1:])
	list = appendWrapIfEmpty(list, p.self)
	self := p.self
	p.mu.Unlock()

	// The INSERT event carves our range for good: check again that the new
	// peer is free, since it may have joined elsewhere while we waited for
	// the ack.
	err := p.checkFree(newNode)
	if err == nil {
		var data any
		if p.cb.PrepareJoinData != nil {
			data = p.cb.PrepareJoinData(newNode)
		}
		// The joined message carries the Data Store hand-off (the INSERT
		// event's carved-off items), so it is a bulk call: a split moving more
		// items than fit one transport frame streams them across in chunks,
		// and the joining peer installs the range atomically at commit.
		_, err = methodJoined.CallBulk(ctx, p.net, self.Addr, newNode.Addr, joinedMsg{
			Self: newNode,
			Pred: self,
			List: list,
			Data: data,
		})
		if err != nil {
			err = fmt.Errorf("ring: joined delivery to %s failed: %v", newNode, err)
		}
	}
	if err != nil {
		// The new peer joined elsewhere or died before completing its join;
		// drop it.
		p.mu.Lock()
		if len(p.succ) > 0 && p.succ[0].Node.Addr == newNode.Addr {
			p.succ = p.succ[1:]
		}
		p.mu.Unlock()
		return err
	}
	// Stabilize immediately so the new successor becomes usable (STAB) fast.
	if !p.cfg.DisableAutoStabilize {
		go p.StabilizeOnce()
	}
	return nil
}

// appendWrapIfEmpty adds self as the final successor only when the list
// holds no JOINED peer: the ring-of-two bootstrap, where the inserter is the
// new peer's sole successor.
func appendWrapIfEmpty(list []Entry, self Node) []Entry {
	for _, e := range list {
		if e.State == EntryJoined {
			return list
		}
	}
	return append(list, Entry{Node: self, State: EntryJoined})
}

// abortInsert rolls back a timed-out insertion.
func (p *Peer) abortInsert(newNode Node) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.succ) > 0 && p.succ[0].Node.Addr == newNode.Addr && p.succ[0].State == EntryJoining {
		p.succ = p.succ[1:]
	}
	if p.state == StateInserting {
		p.state = StateJoined
	}
	p.joinAck = nil
}

// naiveInsertSucc is the baseline (Section 6.2): the joining peer simply
// becomes the successor with no propagation protocol; stale predecessors can
// skip over it, producing the incorrect results of Section 4.2.1.
func (p *Peer) naiveInsertSucc(ctx context.Context, newNode Node) error {
	p.mu.Lock()
	if p.departed {
		p.mu.Unlock()
		return ErrDeparted
	}
	if p.state != StateJoined {
		st := p.state
		p.mu.Unlock()
		return fmt.Errorf("%w: state %s", ErrBusy, st)
	}
	list := make([]Entry, len(p.succ), len(p.succ)+1)
	copy(list, p.succ)
	list = appendWrapIfEmpty(list, p.self)
	p.succ = append([]Entry{{Node: newNode, State: EntryJoined}}, p.succ...)
	p.succ, _ = p.normalizeLocked(p.succ)
	for i := range p.succ {
		p.succ[i].Stabilized = false
	}
	self := p.self
	p.mu.Unlock()

	var data any
	if p.cb.PrepareJoinData != nil {
		data = p.cb.PrepareJoinData(newNode)
	}
	_, err := methodJoined.CallBulk(ctx, p.net, self.Addr, newNode.Addr, joinedMsg{
		Self: newNode, Pred: self, List: list, Data: data,
	})
	if err != nil {
		p.mu.Lock()
		if len(p.succ) > 0 && p.succ[0].Node.Addr == newNode.Addr {
			p.succ = p.succ[1:]
		}
		p.mu.Unlock()
		return err
	}
	if !p.cfg.DisableAutoStabilize {
		go p.StabilizeOnce()
	}
	return nil
}

// handleJoinAck processes the acknowledgment that completes a PEPPER insert
// (received by the inserting peer from the farthest relevant predecessor).
func (p *Peer) handleJoinAck(_ transport.Addr, msg joinAckMsg) (transport.None, error) {
	p.mu.Lock()
	ch := p.joinAck
	pending := p.state == StateInserting && len(p.succ) > 0 &&
		p.succ[0].State == EntryJoining && p.succ[0].Node.Addr == msg.Joining.Addr
	if pending {
		p.joinAck = nil
	}
	p.mu.Unlock()
	if pending && ch != nil {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	return transport.None{}, nil
}

// handleJoined installs ring state on the joining peer (Algorithm 11) and
// raises the INSERTED event to higher layers.
func (p *Peer) handleJoined(_ transport.Addr, msg joinedMsg) (bool, error) {
	p.mu.Lock()
	if p.departed {
		p.mu.Unlock()
		return false, ErrDeparted
	}
	if p.state != StateFree && p.state != StateJoining {
		// Duplicate promotion (e.g. orphan adoption racing the inserter).
		p.mu.Unlock()
		return true, nil
	}
	p.state = StateJoined
	p.self = msg.Self
	p.pred = msg.Pred
	p.succ, _ = p.normalizeLocked(append([]Entry(nil), msg.List...))
	for i := range p.succ {
		p.succ[i].Stabilized = false
	}
	self := p.self
	p.mu.Unlock()

	if p.cb.OnJoined != nil {
		p.cb.OnJoined(self, msg.Pred, msg.Data)
	}
	p.start()
	if !p.cfg.DisableAutoStabilize {
		go p.StabilizeOnce()
	}
	return true, nil
}

// handleStabNow triggers an immediate stabilization round (the proactive
// contact optimization), cascading to our own predecessor while the join or
// leave being expedited is still unresolved in our list.
func (p *Peer) handleStabNow(transport.Addr, transport.None) (transport.None, error) {
	go func() {
		p.StabilizeOnce()
		p.mu.Lock()
		unresolved := false
		for _, e := range p.succ {
			if e.State == EntryJoining || e.State == EntryLeaving {
				unresolved = true
				break
			}
		}
		pred := p.pred
		self := p.self
		p.mu.Unlock()
		if unresolved && !pred.IsZero() && pred.Addr != self.Addr {
			methodStabNow.Send(p.net, self.Addr, pred.Addr, transport.None{})
		}
	}()
	return transport.None{}, nil
}

// --- PEPPER leave ---------------------------------------------------------

// Leave executes the graceful departure protocol (Section 5.1): enter the
// LEAVING state, let predecessors lengthen their successor lists via
// stabilization, and return once the farthest predecessor acknowledges. The
// caller then transfers its Data Store state and calls Depart. With Naive
// configured, Leave returns immediately (the baseline simply leaves).
func (p *Peer) Leave(ctx context.Context) error {
	p.mu.Lock()
	if p.departed {
		p.mu.Unlock()
		return ErrDeparted
	}
	if p.state != StateJoined {
		st := p.state
		p.mu.Unlock()
		return fmt.Errorf("%w: state %s", ErrBusy, st)
	}
	if p.cfg.Naive {
		p.state = StateLeaving
		p.mu.Unlock()
		return nil
	}
	p.state = StateLeaving
	ack := make(chan struct{}, 1)
	p.leaveAck = ack
	pred := p.pred
	self := p.self
	p.mu.Unlock()

	// Solo ring: no predecessors to inform.
	if pred.IsZero() || pred.Addr == self.Addr {
		return nil
	}

	// Proactively trigger stabilization at the predecessor (same
	// optimization as insertSucc).
	if !p.cfg.NoProactive {
		methodStabNow.Send(p.net, self.Addr, pred.Addr, transport.None{})
	}

	if err := p.awaitAck(ctx, ack, fmt.Sprintf("leave(%s)", self)); err != nil {
		p.revertLeave()
		return err
	}
	return nil
}

// revertLeave returns a timed-out leaver to JOINED.
func (p *Peer) revertLeave() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == StateLeaving {
		p.state = StateJoined
	}
	p.leaveAck = nil
}

// handleLeaveAck signals the leaving peer that it may depart.
func (p *Peer) handleLeaveAck(transport.Addr, transport.None) (transport.None, error) {
	p.mu.Lock()
	ch := p.leaveAck
	p.leaveAck = nil
	p.mu.Unlock()
	if ch != nil {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	return transport.None{}, nil
}

// Depart removes the peer from the network: it stops answering all traffic
// (pings from predecessors will now prune it) and halts its loops. After
// Depart the peer object is defunct; a new Peer must be constructed to
// rejoin (free peers re-enter through the Data Store's free pool).
func (p *Peer) Depart() {
	p.mu.Lock()
	p.departed = true
	p.state = StateFree
	addr := p.self.Addr
	p.mu.Unlock()
	transport.Deregister(p.net, addr)
	p.Stop()
}
