// Package scan is the one implementation of a routed index operation's
// attempt, run from wherever the operation originates — a ring member
// (core.Peer) or a dial-side client (internal/client): the pipelined
// range-scan planner of the read path (this file) and the routed insert and
// delete attempts of the write path (mutate.go). The two origins differ only
// in where routes come from (the Routes seam), which address they send from,
// how deep they pipeline, whether a dead primary's segment may be read from
// its replicas, and how many attempts they allow; everything else, the pause
// between attempts (Pacer) included, is here, once.
//
// The scan is origin-driven: instead of the hand-over-hand forwarding of
// Algorithm 4 (one hop at a time, results pushed back to the origin), the
// origin asks the owner of the lower bound for its piece AND its successor
// chain, then keeps up to Depth per-range segment scans in flight,
// reassembling pieces in key order.
//
// Correctness rests on the same rule as the hand-over-hand scan (Section
// 4.3.2, Algorithm 5): every segment is validated and snapshotted atomically
// at its target under the range read lock, so a piece is exactly the target's
// items for the piece interval at serve time. Pieces must then partition the
// query interval (history.CheckScanCover, Definition 6); any boundary
// movement between speculation and service surfaces as a NotOwner or
// StaleEpoch verdict or a continuity break, and the scan re-resolves the
// frontier. An item that is live throughout the query is, at the moment its
// key's piece is served, stored at the validated owner of that piece — so it
// is in the result, and Definition 4 holds without a continuous lock chain
// across peers. The serving side cannot tell one origin from another, so
// every origin inherits the argument wholesale.
package scan

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/datastore"
	"repro/internal/history"
	"repro/internal/keyspace"
	"repro/internal/replication"
	"repro/internal/ring"
	"repro/internal/routecache"
	"repro/internal/transport"
)

// Routes is the planner's view of an origin's routing state. Every route is
// a hint — segments and mutations validate ownership and epoch at their
// target — so an implementation may be as stale as it likes; it only has to
// forget what the planner proves wrong.
type Routes interface {
	// CachedEntry returns the cached, unvalidated route covering key.
	CachedEntry(key keyspace.Key) (routecache.Entry, bool)
	// Resolve returns a route to key's owner: the cached hint when there is
	// one, else a full lookup. ranged is false when the lookup yielded only
	// an address (ent then carries no range, epoch or replicas); a segment is
	// then planned as a probe whose end is unknown until it answers, and a
	// mutation goes unfenced.
	Resolve(ctx context.Context, key keyspace.Key) (ent routecache.Entry, ranged bool, err error)
	// Learn records that owner served rng at epoch, with chain its ring
	// successors (where its replicas live).
	Learn(rng keyspace.Range, owner transport.Addr, epoch uint64, chain []ring.Node)
	// InvalidateOwner forgets owner's route: it disclaimed the key, answered
	// for another incarnation, or stopped answering.
	InvalidateOwner(owner transport.Addr)
}

// Planner runs one origin's attempts: scans (Attempt) and routed mutations
// (InsertAttempt, DeleteAttempt). Depth and AllowReplica concern scans only.
type Planner struct {
	Net    transport.Transport
	From   transport.Addr // the address requests are sent from
	Routes Routes
	// Depth bounds how many segment scans are kept in flight; the effective
	// depth is also limited by the successor chain advertised with each piece.
	Depth int
	// AllowReplica lets a segment whose primary is unreachable be served by
	// the primary's replica holders, at the price of bounded staleness (one
	// replication refresh). Reads that answer to the Definition 4 audit must
	// leave it off.
	AllowReplica bool
}

// Stats reports how one attempt executed. ReplicaPieces, StaleRoutes and
// StaleEpochHints are filled in on failed attempts too, up to the point of
// failure; the rest describe a successful attempt.
type Stats struct {
	Pieces        int // pieces the interval was served in
	ReplicaPieces int // of those, pieces served by a replica holder
	// StaleRoutes counts typed proofs that a cached route was wrong (a
	// NotOwner or StaleEpoch segment verdict, or a replica holder refusing a
	// deposed chain); StaleEpochHints counts the StaleEpoch verdicts among
	// them. Each cost one probe and a re-resolve, never a wrong answer.
	StaleRoutes     int
	StaleEpochHints int
	// ScanTime is the duration of a successful attempt excluding the entry
	// owner lookup — the paper's Figure 21 methodology ("once the first peer
	// with items in the search range was found").
	ScanTime time.Duration
}

// maxScanSteps bounds one attempt against boundary thrash: each step either
// serves a piece or rebuilds the frontier, so a run this long means the ring
// is churning faster than the scan can advance and the attempt should fail
// (and be retried) rather than spin.
const maxScanSteps = 1024

// segPlan describes one per-range segment scan the origin intends to issue,
// derived from a route (the entry segment and re-resolved frontiers) or from
// successor chain metadata (all following segments).
type segPlan struct {
	cursor   keyspace.Key     // first key of the segment
	addr     transport.Addr   // believed owner
	epoch    uint64           // believed ownership epoch (0 = unfenced speculation)
	end      keyspace.Key     // believed last key of the segment (clipped to the query)
	endKnown bool             // end derived from range metadata (replica fallback needs it)
	final    bool             // believed to reach the interval's end
	replicas []transport.Addr // believed replica holders (the owner's successors)
}

// segCall is an issued segment scan.
type segCall struct {
	segPlan
	pend   *datastore.SegmentPending
	cancel context.CancelFunc
}

// planFromEntry builds the segment plan for cursor from a route entry.
func planFromEntry(cursor, last keyspace.Key, ent routecache.Entry) segPlan {
	end, final := ent.Range.ContiguousEnd(cursor, last)
	return segPlan{cursor: cursor, addr: ent.Addr, epoch: ent.Epoch, end: end, endKnown: true, final: final, replicas: ent.Replicas}
}

// plansFromChain derives the segments that follow a peer whose range ends at
// prevHi, from its successor chain: successor s_i owns (val(s_{i-1}),
// val(s_i)], so cursors and ends fall out of the advertised values. The
// replica candidates for each segment are the nodes after its owner in the
// same chain (a range's replicas live on its successors). Query intervals
// never wrap, so a chain value that wraps numerically means that successor's
// range runs through the top of the key space and must cover the rest of
// the interval.
func plansFromChain(prevHi, last keyspace.Key, chain []ring.Node) []segPlan {
	var out []segPlan
	prev := prevHi
	for i, n := range chain {
		if n.IsZero() || prev >= last {
			break
		}
		cursor := prev + 1
		pl := segPlan{cursor: cursor, addr: n.Addr, end: n.Val, endKnown: true}
		if n.Val < cursor || n.Val >= last {
			pl.end, pl.final = last, true
		}
		pl.replicas = ring.ChainAddrs(n.Addr, chain[i+1:])
		out = append(out, pl)
		if pl.final {
			break
		}
		prev = n.Val
	}
	return out
}

// resolve plans the segment starting at cursor from the origin's routes.
func (p Planner) resolve(ctx context.Context, cursor, last keyspace.Key) (segPlan, error) {
	ent, ranged, err := p.Routes.Resolve(ctx, cursor)
	if err != nil {
		return segPlan{}, err
	}
	if !ranged {
		return segPlan{cursor: cursor, addr: ent.Addr}, nil
	}
	return planFromEntry(cursor, last, ent), nil
}

// Attempt performs one pipelined scan attempt of the range query iv, which
// must be valid, returning the matching items sorted by key. ctx bounds the
// whole attempt. Callers retry a failed attempt: by then the planner has
// dropped every route the failure proved wrong.
func (p Planner) Attempt(ctx context.Context, iv keyspace.Interval) ([]datastore.Item, Stats, error) {
	first, last := iv.First(), iv.Last()
	var stats Stats

	// The entry segment goes to the hinted owner unprobed — the segment
	// handler validates at the target, so a warm query is a single round trip.
	entry, err := p.resolve(ctx, first, last)
	if err != nil {
		return nil, stats, fmt.Errorf("scan: owner lookup failed: %w", err)
	}
	scanStart := time.Now()

	var (
		pieces   []history.ScanPiece
		parts    [][]datastore.Item // each piece's items, in piece order
		nitems   int
		inflight []*segCall
		plan     []segPlan
		expected = first
		complete bool
	)
	issue := func(pl segPlan) {
		cctx, cancel := context.WithCancel(ctx)
		inflight = append(inflight, &segCall{
			segPlan: pl,
			pend:    datastore.ClientScanSegmentAsync(cctx, p.Net, p.From, pl.addr, iv, pl.cursor, pl.epoch),
			cancel:  cancel,
		})
	}
	discard := func() {
		for _, c := range inflight {
			c.cancel()
		}
		inflight = inflight[:0]
		plan = plan[:0]
	}
	defer discard()

	issue(entry)
	for steps := 0; !complete; steps++ {
		if steps > maxScanSteps {
			return nil, stats, fmt.Errorf("scan: exceeded %d steps at cursor %d", maxScanSteps, expected)
		}
		if err := ctx.Err(); err != nil {
			return nil, stats, fmt.Errorf("scan: attempt timed out: %w", err)
		}

		// A frontier mismatch means a boundary moved under the speculative
		// plan (the last piece ended short of — or past — the next issued
		// cursor): everything downstream is suspect.
		if len(inflight) > 0 && inflight[0].cursor != expected {
			discard()
		}
		for len(inflight) < p.Depth && len(plan) > 0 {
			issue(plan[0])
			plan = plan[1:]
		}
		if len(inflight) == 0 {
			// No metadata to speculate from: resolve the frontier's owner.
			pl, err := p.resolve(ctx, expected, last)
			if err != nil {
				return nil, stats, fmt.Errorf("scan: frontier lookup at %d failed: %w", expected, err)
			}
			issue(pl)
			continue
		}

		head := inflight[0]
		inflight = inflight[1:]
		res, err := head.pend.Result()
		head.cancel()
		switch {
		case err != nil && !errors.Is(err, transport.ErrUnreachable):
			// A handler or stream error from a live primary — typically
			// ErrLockBusy while maintenance holds the range write lock, or a
			// torn-down oversized response. The peer is not dead and its
			// route is not stale: a bounded-stale replica read would be wrong
			// here and invalidating the entry would evict a healthy route, so
			// just fail the attempt and let the retry ask the same (live)
			// primary again.
			return nil, stats, fmt.Errorf("scan: segment at %d via %s rejected: %w", head.cursor, head.addr, err)
		case err != nil:
			// The target is unreachable — the fail-stop signature (a dead
			// peer, or one that stopped answering within the deadline).
			// Later in-flight segments validate at their own targets, so
			// only this segment needs saving: try its replica holders, else
			// fail the attempt. The route cache may know this owner's segment
			// extent and replica candidates even when the plan did not (an
			// end-unknown probe, or a chain too short to name successors):
			// consult it before deciding the entry's fate.
			if ent, ok := p.Routes.CachedEntry(head.cursor); ok && ent.Addr == head.addr {
				if !head.endKnown {
					pl := planFromEntry(head.cursor, last, ent)
					head.end, head.endKnown, head.final = pl.end, true, pl.final
				}
				if head.epoch == 0 {
					head.epoch = ent.Epoch
				}
				head.replicas = mergeAddrs(head.replicas, ent.Replicas)
			}
			if p.AllowReplica && head.endKnown {
				seg := keyspace.ClosedInterval(head.cursor, min(head.end, last))
				ritems, rerr := p.replicaSegment(ctx, head, seg)
				if errors.Is(rerr, datastore.ErrStaleEpoch) {
					stats.StaleRoutes++
				}
				if rerr == nil {
					// The entry that named the dead owner stays cached: it
					// still carries the replica candidates that just served
					// this segment, so follow-up queries pay one fast failed
					// call instead of a doomed full lookup. Revival or
					// rebalance re-learns the region and prunes it.
					pieces = append(pieces, history.ScanPiece{Peer: string(head.addr), Interval: seg})
					parts, nitems = append(parts, ritems), nitems+len(ritems)
					stats.ReplicaPieces++
					if head.final || seg.Ub >= last {
						complete = true
					} else {
						expected = seg.Ub + 1
					}
					continue
				}
			}
			p.Routes.InvalidateOwner(head.addr)
			return nil, stats, fmt.Errorf("scan: segment at %d via %s failed: %w", head.cursor, head.addr, err)
		case res.NotOwner, res.StaleEpoch:
			// The boundary moved (the believed owner disclaims the cursor),
			// or the owner is right but the incarnation is not (a hand-off or
			// revival happened since the epoch was learned). Drop the stale
			// route and every speculative segment derived from the same
			// metadata; the next iteration re-resolves.
			stats.StaleRoutes++
			if res.StaleEpoch {
				stats.StaleEpochHints++
			}
			p.Routes.InvalidateOwner(head.addr)
			discard()
			continue
		}

		// One validated piece, served atomically under the target's range
		// read lock.
		if res.Piece.First() != head.cursor {
			return nil, stats, fmt.Errorf("scan: segment at %d answered misaligned piece %v", head.cursor, res.Piece)
		}
		p.Routes.Learn(res.Range, head.addr, res.Epoch, res.Chain)
		pieces = append(pieces, history.ScanPiece{Peer: string(head.addr), Interval: res.Piece})
		parts, nitems = append(parts, res.Items), nitems+len(res.Items)
		pieceEnd := res.Piece.Last()
		if res.Done || pieceEnd >= last || pieceEnd == keyspace.MaxKey {
			complete = true
			continue
		}
		expected = pieceEnd + 1
		plan = replan(inflight, plansFromChain(res.Range.Hi, last, res.Chain), expected)
	}

	if err := history.CheckScanCover(iv, pieces); err != nil {
		return nil, stats, fmt.Errorf("scan: cover check failed: %w", err)
	}
	stats.Pieces = len(pieces)
	stats.ScanTime = time.Since(scanStart)
	return join(parts, nitems), stats, nil
}

// join concatenates the pieces' items, n in all, into one slice of that size.
// Pieces partition the interval in key order and each is sorted, so the
// result is sorted with no key twice; only if it is not does join fall back
// to Dedupe.
func join(parts [][]datastore.Item, n int) []datastore.Item {
	out := make([]datastore.Item, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Key >= out[i].Key {
			return Dedupe(out)
		}
	}
	return out
}

// replan folds the freshest view of what lies ahead — the segments fresh,
// derived from the chain of the piece just served — into the pipeline. It
// refreshes the metadata of the segments already in flight (an earlier,
// shorter chain may have left them without an end or without replica
// candidates: a segment planned at the tail of a chain has no successors
// after it to name) and returns the segments to issue beyond them, in order.
// expected is the cursor following the piece just served.
func replan(inflight []*segCall, fresh []segPlan, expected keyspace.Key) []segPlan {
	for _, c := range inflight {
		for _, pl := range fresh {
			if pl.cursor == c.cursor && pl.addr == c.addr {
				c.end, c.endKnown, c.final = pl.end, pl.endKnown, pl.final
				c.replicas = mergeAddrs(c.replicas, pl.replicas)
			}
		}
	}
	frontier := expected
	if n := len(inflight); n > 0 {
		if !inflight[n-1].endKnown {
			// An end-unknown probe is in flight; let it resolve before
			// speculating past it.
			return nil
		}
		frontier = inflight[n-1].end + 1
	}
	var plan []segPlan
	for _, pl := range fresh {
		if pl.cursor == frontier || (len(plan) > 0 && pl.cursor == plan[len(plan)-1].end+1) {
			plan = append(plan, pl)
		}
	}
	return plan
}

// replicaSegment serves seg, the segment of head's dead primary, from its
// believed replica holders, in order. The answer is bounded-staleness: a
// replica lags its origin by at most one replication refresh. Requests carry
// the believed primary's ownership epoch: a holder that refuses with
// ErrStaleEpoch has seen a higher epoch asserted over the segment — the whole
// chain being consulted belongs to a deposed incarnation, so the fallback is
// abandoned with that error (the caller then drops the route) rather than
// tried against further holders of the same stale chain.
func (p Planner) replicaSegment(ctx context.Context, head *segCall, seg keyspace.Interval) ([]datastore.Item, error) {
	err := errors.New("scan: no replica candidates")
	for _, r := range head.replicas {
		if r == "" || r == head.addr {
			continue
		}
		var items []datastore.Item
		items, err = replication.ClientReplicaItems(ctx, p.Net, p.From, r, seg, head.epoch)
		if err == nil || errors.Is(err, datastore.ErrStaleEpoch) {
			return items, err
		}
	}
	return nil, err
}

// mergeAddrs appends the addresses of extra not already present in base,
// preserving order (existing candidates are tried first).
func mergeAddrs(base, extra []transport.Addr) []transport.Addr {
	for _, a := range extra {
		if a != "" && !slices.Contains(base, a) {
			base = append(base, a)
		}
	}
	return base
}

// Dedupe drops duplicate keys, keeping the first occurrence, and sorts by
// key.
func Dedupe(items []datastore.Item) []datastore.Item {
	seen := make(map[keyspace.Key]bool, len(items))
	out := make([]datastore.Item, 0, len(items))
	for _, it := range items {
		if seen[it.Key] {
			continue
		}
		seen[it.Key] = true
		out = append(out, it)
	}
	slices.SortFunc(out, func(a, b datastore.Item) int { return cmp.Compare(a.Key, b.Key) })
	return out
}
