package datastore

import (
	"context"
	"fmt"

	"repro/internal/keyspace"
	"repro/internal/ring"
	"repro/internal/transport"
)

// The naive application-level scan: the Section 6.2 baseline.

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

func (s *Store) handleNaiveStep(_ transport.Addr, req naiveStepReq) (naiveStepResp, error) {
	resp := naiveStepResp{NextCursor: req.Cursor}
	s.mu.Lock()
	resp.HasRange = s.hasRange
	if s.hasRange {
		resp.Items = s.itemsInLocked(req.Iv)
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
		step, err := methodNaiveStep.Call(ctx, s.net, s.Addr(), cur, naiveStepReq{Iv: iv, Cursor: cursor})
		if err != nil {
			return out, hops, err
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
