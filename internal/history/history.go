// Package history records an operation history and checks it against the
// paper's correctness definitions.
//
// The paper reasons about a history H = (O, ≤) of operations with a
// happened-before partial order (Definition 1). In a single test process we
// obtain a usable refinement of that order from a global sequence counter:
// every journaled event carries a sequence number drawn while the mutating
// peer holds its local critical section, so if op1 finished before op2
// started then seq(op1) < seq(op2). Operations with overlapping [start,end]
// sequence intervals are the concurrent ones.
//
// The journal tracks item placement (Definition 3: an item i is live in H iff
// some peer's Data Store contains it) and query executions, and offers
// checkers for:
//
//   - Correct Query Result (Definition 4): a result must contain every item
//     that satisfied the predicate and was live throughout the query, and
//     only items that satisfied the predicate and were live at some point
//     during the query.
//   - scanRange correctness (Definition 6): the per-peer sub-ranges visited
//     by one scan must be non-overlapping and union exactly to [lb, ub].
//
// The successor-pointer consistency check (Definition 5) lives in the ring
// package, next to the types it inspects.
package history

import (
	"fmt"
	"iter"
	"slices"
	"sort"
	"sync"

	"repro/internal/keyspace"
)

// Seq is a point in the global sequence order.
type Seq uint64

// EventKind enumerates journaled Data Store mutations.
type EventKind uint8

// Event kinds. Moved is a single atomic event for an item transfer between
// peers (split/merge/redistribute/revival), so liveness never shows a false
// gap or false overlap mid-transfer. RangeClaimed is an ownership-epoch
// transition: the peer claims (Lo, Hi] at Epoch — journaled at every epoch
// bump site (bootstrap, split, merge, redistribute, failure revival, lease
// adoption) so the audit can attribute each mutation to exactly one
// ownership incarnation.
const (
	ItemAdded EventKind = iota
	ItemRemoved
	ItemMoved
	PeerFailed
	RangeClaimed
	// Lease lifecycle events (see lease.go for the audit over them). A lease
	// is the time bound on a RangeClaimed incarnation: granted with the claim,
	// expired when a neighbor observes the owner's renewals lapse and adopts
	// the range, released when the owner gives the range up voluntarily,
	// handed off when a membership operation transfers part of it to another
	// peer with both sides still live. A renewal by the owner's replication
	// refresh is not journaled: it changes nothing the audit replays, and it
	// lands on every refresh. Kinds are never serialized, so their numbering
	// may change.
	LeaseGranted
	LeaseExpired
	LeaseReleased
	LeaseHandoff
)

func (k EventKind) String() string {
	switch k {
	case ItemAdded:
		return "add"
	case ItemRemoved:
		return "remove"
	case ItemMoved:
		return "move"
	case PeerFailed:
		return "fail"
	case RangeClaimed:
		return "claim"
	case LeaseGranted:
		return "lease-grant"
	case LeaseExpired:
		return "lease-expire"
	case LeaseReleased:
		return "lease-release"
	case LeaseHandoff:
		return "lease-handoff"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one journaled operation.
type Event struct {
	Seq  Seq
	Kind EventKind
	Key  keyspace.Key
	Peer string // peer performing / holding the item (destination for ItemMoved)
	From string // source peer for ItemMoved; empty otherwise

	// RangeClaimed only: the claimed range and its ownership epoch.
	Lo, Hi keyspace.Key
	Epoch  uint64
	// Recovered marks a claim re-entered from durable storage after a process
	// restart: the same incarnation resuming, not a new epoch.
	Recovered bool
}

// QueryRecord captures one range query execution for later checking.
type QueryRecord struct {
	ID       int
	Interval keyspace.Interval
	Start    Seq
	End      Seq
	Result   []keyspace.Key
}

// Log is a concurrency-safe journal of Data Store operations. One Log serves
// one standalone peer, or every peer of a simulated cluster.
type Log struct {
	mu      sync.Mutex
	nextSeq Seq
	j       journal
	queries []QueryRecord
	nextQID int
}

// NewLog returns an empty journal.
func NewLog() *Log { return &Log{j: newJournal()} }

// next must be called with l.mu held.
func (l *Log) next() Seq {
	l.nextSeq++
	return l.nextSeq
}

// Now returns a fresh sequence point strictly after all journaled events.
func (l *Log) Now() Seq {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next()
}

// append journals ev at a fresh sequence point.
func (l *Log) append(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev.Seq = l.next()
	l.j.add(ev)
}

// Added journals that peer's Data Store now contains key.
func (l *Log) Added(peer string, key keyspace.Key) {
	l.append(Event{Kind: ItemAdded, Key: key, Peer: peer})
}

// Removed journals that peer's Data Store no longer contains key.
func (l *Log) Removed(peer string, key keyspace.Key) {
	l.append(Event{Kind: ItemRemoved, Key: key, Peer: peer})
}

// Moved journals an atomic transfer of key from one peer's Data Store to
// another's. The item stays live across the move.
func (l *Log) Moved(from, to string, key keyspace.Key) {
	l.append(Event{Kind: ItemMoved, Key: key, Peer: to, From: from})
}

// Failed journals a fail-stop of peer: every item it held stops being live.
func (l *Log) Failed(peer string) {
	l.append(Event{Kind: PeerFailed, Peer: peer})
}

// Claimed journals an ownership-epoch transition: peer now serves the range
// r at the given epoch. Claims do not affect liveness (items move only via
// Added/Removed/Moved/Failed); they exist so the audit can attribute each
// mutation to exactly one ownership incarnation and check that epochs fence
// correctly (CheckClaims / CheckAddAttribution).
func (l *Log) Claimed(peer string, r keyspace.Range, epoch uint64) {
	l.append(Event{Kind: RangeClaimed, Peer: peer, Lo: r.Lo, Hi: r.Hi, Epoch: epoch})
}

// RecoveredClaim journals a claim re-entered from durable storage: after a
// crash and restart from the same data directory, the peer resumes serving
// the range at the epoch it last claimed — the same incarnation, not a bump.
// The audit treats it like any other claim at that epoch; the Recovered flag
// lets checks and reports distinguish a legal restart from a fresh claim.
func (l *Log) RecoveredClaim(peer string, r keyspace.Range, epoch uint64) {
	l.append(Event{Kind: RangeClaimed, Peer: peer, Lo: r.Lo, Hi: r.Hi, Epoch: epoch, Recovered: true})
}

// LeaseGranted journals that peer's claim of r at epoch carries a fresh
// lease. Granted together with the claim (Log.Claimed precedes it), so every
// leased incarnation pairs a RangeClaimed with a LeaseGranted at the same
// (peer, range, epoch).
func (l *Log) LeaseGranted(peer string, r keyspace.Range, epoch uint64) {
	l.append(Event{Kind: LeaseGranted, Peer: peer, Lo: r.Lo, Hi: r.Hi, Epoch: epoch})
}

// LeaseExpired journals that adopter observed holder's lease on r at epoch
// lapse past the lease duration and is about to adopt the range: from this
// event on, holder's live lease is void and an overlapping grant by the
// adopter is justified.
func (l *Log) LeaseExpired(holder, adopter string, r keyspace.Range, epoch uint64) {
	l.append(Event{Kind: LeaseExpired, Peer: holder, From: adopter, Lo: r.Lo, Hi: r.Hi, Epoch: epoch})
}

// LeaseReleased journals that peer voluntarily gave up its lease on r at
// epoch (step-down or merge departure); its live lease is void from here on.
func (l *Log) LeaseReleased(peer string, r keyspace.Range, epoch uint64) {
	l.append(Event{Kind: LeaseReleased, Peer: peer, Lo: r.Lo, Hi: r.Hi, Epoch: epoch})
}

// LeaseHandoff journals that giver is transferring the leased sub-range r to
// recipient with both sides live (split hand-offs journal no handoff — the
// giver's own re-grant shrinks its lease in the same critical section; this
// event covers merge and redistribute transfers, where the recipient's grant
// lands before the giver's release or re-grant reaches the journal). The
// lease audit treats a pending handoff as advance justification for the
// recipient's overlapping grant.
func (l *Log) LeaseHandoff(giver, recipient string, r keyspace.Range, epoch uint64) {
	l.append(Event{Kind: LeaseHandoff, Peer: giver, From: recipient, Lo: r.Lo, Hi: r.Hi, Epoch: epoch})
}

// BeginQuery opens a query record and returns its id and start point.
func (l *Log) BeginQuery(iv keyspace.Interval) (id int, start Seq) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextQID++
	return l.nextQID, l.next()
}

// EndQuery closes a query record with its result.
func (l *Log) EndQuery(id int, iv keyspace.Interval, start Seq, result []keyspace.Key) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := QueryRecord{ID: id, Interval: iv, Start: start, End: l.next()}
	rec.Result = append(rec.Result, result...)
	l.queries = append(l.queries, rec)
}

// Events returns a copy of all journaled events in sequence order.
func (l *Log) Events() []Event {
	j := l.snapshot()
	return slices.AppendSeq(make([]Event, 0, j.n), j.events)
}

// Len returns the number of journaled events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.j.n
}

// Bytes returns the memory the journaled events hold, in bytes: a peer's
// journal grows by about 32 bytes per item mutation.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.j.bytes()
}

// Queries returns a copy of all completed query records.
func (l *Log) Queries() []QueryRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]QueryRecord, len(l.queries))
	copy(out, l.queries)
	return out
}

// Interval is a closed sequence interval during which a condition held.
type Interval struct{ From, To Seq }

// maxSeq marks a condition that still holds at the end of the journal.
const maxSeq = Seq(^uint64(0))

// Liveness reconstructs, for each key, the sequence intervals during which
// the key was live (held by at least one peer, Definition 3).
type Liveness struct {
	intervals map[keyspace.Key][]Interval
}

// BuildLiveness replays the journal into per-key liveness timelines.
//
// A peer that failed stays failed forever (the paper's fail-stop model; the
// system never reuses a peer identifier), so events attributing an item to
// an already-failed peer are void. Such events are real: a handler that was
// mid-flight when its peer was killed can journal its Added after the
// journal recorded the PeerFailed — the mutation physically happened, but on
// a peer that is already dead, so the item is not live. Without this rule a
// single unlucky kill would leave a phantom item "live" forever and every
// later query would be flagged as missing it.
func BuildLiveness(events []Event) *Liveness {
	return buildLiveness(slices.Values(events))
}

func buildLiveness(events iter.Seq[Event]) *Liveness {
	type holding map[string]int // peer -> copies held (should be 0/1)
	holders := make(map[keyspace.Key]holding)
	lv := &Liveness{intervals: make(map[keyspace.Key][]Interval)}
	count := make(map[keyspace.Key]int)
	failed := make(map[string]bool) // peers that fail-stopped

	open := make(map[keyspace.Key]Seq) // key -> seq at which current live interval opened

	adjust := func(key keyspace.Key, seq Seq, delta int) {
		before := count[key]
		count[key] = before + delta
		switch {
		case before == 0 && count[key] > 0:
			open[key] = seq
		case before > 0 && count[key] <= 0:
			lv.intervals[key] = append(lv.intervals[key], Interval{From: open[key], To: seq})
			delete(open, key)
		}
	}

	for ev := range events {
		switch ev.Kind {
		case ItemAdded:
			if failed[ev.Peer] {
				continue // a dead peer's store holds nothing
			}
			h := holders[ev.Key]
			if h == nil {
				h = make(holding)
				holders[ev.Key] = h
			}
			if h[ev.Peer] == 0 {
				h[ev.Peer] = 1
				adjust(ev.Key, ev.Seq, 1)
			}
		case ItemRemoved:
			if h := holders[ev.Key]; h != nil && h[ev.Peer] > 0 {
				h[ev.Peer] = 0
				adjust(ev.Key, ev.Seq, -1)
			}
		case ItemMoved:
			h := holders[ev.Key]
			if h == nil {
				h = make(holding)
				holders[ev.Key] = h
			}
			// Atomic: destination gains before source loses, net count never
			// dips to zero during a move. A move to an already-failed peer
			// only loses the source copy: the destination is dead.
			if h[ev.Peer] == 0 && !failed[ev.Peer] {
				h[ev.Peer] = 1
				adjust(ev.Key, ev.Seq, 1)
			}
			if h[ev.From] > 0 {
				h[ev.From] = 0
				adjust(ev.Key, ev.Seq, -1)
			}
		case PeerFailed:
			failed[ev.Peer] = true
			for key, h := range holders {
				if h[ev.Peer] > 0 {
					h[ev.Peer] = 0
					adjust(key, ev.Seq, -1)
				}
			}
		}
	}
	for key, from := range open {
		lv.intervals[key] = append(lv.intervals[key], Interval{From: from, To: maxSeq})
	}
	return lv
}

// Keys returns every key that was ever live, in ascending order.
func (lv *Liveness) Keys() []keyspace.Key {
	out := make([]keyspace.Key, 0, len(lv.intervals))
	for k := range lv.intervals {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LiveAtSomePoint reports whether key was live at any sequence point in
// [from, to].
func (lv *Liveness) LiveAtSomePoint(key keyspace.Key, from, to Seq) bool {
	for _, iv := range lv.intervals[key] {
		if iv.From <= to && from <= iv.To {
			return true
		}
	}
	return false
}

// LiveThroughout reports whether key was live at every sequence point in
// [from, to].
func (lv *Liveness) LiveThroughout(key keyspace.Key, from, to Seq) bool {
	for _, iv := range lv.intervals[key] {
		if iv.From <= from && to <= iv.To {
			return true
		}
	}
	return false
}

// Violation describes one failure of a correctness check.
type Violation struct {
	QueryID int
	Key     keyspace.Key
	Reason  string
}

func (v Violation) String() string {
	return fmt.Sprintf("query %d key %d: %s", v.QueryID, v.Key, v.Reason)
}

// CheckQueryResult checks one query record against Definition 4 using the
// supplied liveness reconstruction. It returns all violations found.
func CheckQueryResult(lv *Liveness, q QueryRecord) []Violation {
	var out []Violation
	inResult := make(map[keyspace.Key]bool, len(q.Result))
	for _, k := range q.Result {
		if inResult[k] {
			out = append(out, Violation{QueryID: q.ID, Key: k, Reason: "duplicate item in result"})
		}
		inResult[k] = true
		if !q.Interval.Contains(k) {
			out = append(out, Violation{QueryID: q.ID, Key: k, Reason: "result item does not satisfy the predicate"})
			continue
		}
		if !lv.LiveAtSomePoint(k, q.Start, q.End) {
			out = append(out, Violation{QueryID: q.ID, Key: k, Reason: "result item was never live during the query"})
		}
	}
	for _, k := range lv.Keys() {
		if !q.Interval.Contains(k) || inResult[k] {
			continue
		}
		if lv.LiveThroughout(k, q.Start, q.End) {
			out = append(out, Violation{QueryID: q.ID, Key: k, Reason: "item live throughout the query is missing from the result"})
		}
	}
	return out
}

// CheckAllQueries replays the journal once and checks every completed query.
// The queries and the events are taken at one point, so every event up to a
// query's end is in the replay.
func (l *Log) CheckAllQueries() []Violation {
	l.mu.Lock()
	j, queries := l.j, l.queries
	l.mu.Unlock()
	lv := buildLiveness(j.events)
	var out []Violation
	for _, q := range queries {
		out = append(out, CheckQueryResult(lv, q)...)
	}
	return out
}

// ScanPiece is one handler invocation of a scanRange: the peer visited and
// the sub-interval it served.
type ScanPiece struct {
	Peer     string
	Interval keyspace.Interval
}

// CheckScanCover checks Definition 6 conditions (3) and (4) for one completed
// scan: the visited pieces must be pairwise non-overlapping and their union
// must be exactly the scanned interval. (Conditions (1) and (2) are enforced
// structurally by the scan implementation: the init operation precedes the
// completion, and each piece is computed under the visited peer's range lock
// as a subset of its range.)
func CheckScanCover(scanned keyspace.Interval, pieces []ScanPiece) error {
	if len(pieces) == 0 {
		return fmt.Errorf("scan of %v visited no peers", scanned)
	}
	sorted := make([]ScanPiece, len(pieces))
	copy(sorted, pieces)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Interval.First() < sorted[j].Interval.First()
	})
	cursor := scanned.First()
	for i, p := range sorted {
		if !p.Interval.Valid() {
			return fmt.Errorf("scan of %v: piece %d at %s is empty (%v)", scanned, i, p.Peer, p.Interval)
		}
		f := p.Interval.First()
		if f < cursor {
			return fmt.Errorf("scan of %v: piece %v at %s overlaps prior coverage (cursor %d)", scanned, p.Interval, p.Peer, cursor)
		}
		if f > cursor {
			return fmt.Errorf("scan of %v: gap before piece %v at %s (cursor %d)", scanned, p.Interval, p.Peer, cursor)
		}
		last := p.Interval.Last()
		if last == keyspace.MaxKey {
			cursor = keyspace.MaxKey
			if i != len(sorted)-1 {
				return fmt.Errorf("scan of %v: piece at %s reaches MaxKey but pieces remain", scanned, p.Peer)
			}
			break
		}
		cursor = last + 1
	}
	wantEnd := scanned.Last()
	if cursor == keyspace.MaxKey {
		if wantEnd != keyspace.MaxKey {
			return fmt.Errorf("scan of %v: coverage overshoots to MaxKey", scanned)
		}
		return nil
	}
	if cursor != wantEnd+1 {
		return fmt.Errorf("scan of %v: coverage ends at %d, want through %d", scanned, cursor-1, wantEnd)
	}
	return nil
}
