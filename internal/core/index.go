package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/datastore"
	"repro/internal/history"
	"repro/internal/keyspace"
	"repro/internal/scan"
)

// The P2P Index API (insertItem, deleteItem, findItems as a range query) is
// implemented on Peer — every operation routes from that peer, exactly what
// a standalone process does — and re-exposed on Cluster, which picks a
// random live entry peer per attempt, modelling clients spread across the
// system.

// InsertItem stores an item in the index (the P2P Index insertItem API).
// It routes from a random live entry peer to the owner of the item's search
// key value and retries through ownership movements until ctx expires.
func (c *Cluster) InsertItem(ctx context.Context, item datastore.Item) error {
	return c.retryRouted(ctx, func(entry *Peer) (bool, error) {
		return entry.planner(false).InsertAttempt(ctx, item)
	})
}

// DeleteItem removes an item from the index, reporting whether it existed.
func (c *Cluster) DeleteItem(ctx context.Context, key keyspace.Key) (bool, error) {
	var found bool
	err := c.retryRouted(ctx, func(entry *Peer) (stale bool, err error) {
		found, stale, err = entry.planner(false).DeleteAttempt(ctx, key)
		return stale, err
	})
	return found, err
}

// retryRouted applies one routed attempt from a fresh random entry peer,
// retrying while ownership is moving (splits, merges, failures).
func (c *Cluster) retryRouted(ctx context.Context, op func(entry *Peer) (staleRoute bool, err error)) error {
	return retryRouted(ctx, c.cfg.MaxQueryAttempts, routedBackoff, func() (bool, error) {
		entry, err := c.randomLive()
		if err != nil {
			return false, err
		}
		return op(entry)
	})
}

// InsertItem stores an item in the index, routing from this peer and
// retrying through ownership movements.
func (p *Peer) InsertItem(ctx context.Context, item datastore.Item) error {
	return retryRouted(ctx, p.cfg.MaxQueryAttempts, routedBackoff, func() (bool, error) {
		return p.planner(false).InsertAttempt(ctx, item)
	})
}

// DeleteItem removes an item from the index, reporting whether it existed.
func (p *Peer) DeleteItem(ctx context.Context, key keyspace.Key) (bool, error) {
	var found bool
	err := retryRouted(ctx, p.cfg.MaxQueryAttempts, routedBackoff, func() (stale bool, err error) {
		found, stale, err = p.planner(false).DeleteAttempt(ctx, key)
		return stale, err
	})
	return found, err
}

// routedBackoff is the pause after a routed attempt's transient failure.
const routedBackoff = 5 * time.Millisecond

// retryRouted retries op through ownership movements. An attempt whose route
// was proven stale is retried at once through a fresh route; any other
// failure, or a second stale verdict in a row, waits backoff (scan.Pacer).
func retryRouted(ctx context.Context, attempts int, backoff time.Duration, op func() (staleRoute bool, err error)) error {
	var lastErr error
	var stale bool
	pace := scan.Pacer{Backoff: backoff}
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			pace.Wait(ctx, stale)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		if stale, err = op(); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("core: routed operation failed after retries: %w", lastErr)
}

// planner is this peer as the origin of routed attempts (package scan), its
// Content Router the route seam. Scans and mutations alike go to the hinted
// owner unprobed — the target validates — so a warm operation is one round trip.
func (p *Peer) planner(allowReplica bool) scan.Planner {
	return scan.Planner{Net: p.tr, From: p.Addr, Routes: p.Router, Depth: scanDepth, AllowReplica: allowReplica}
}

// RangeQuery evaluates a range predicate from a random live entry peer,
// whose Content Router finds the owner of the query's lower bound. An
// entry peer can merge away while the query is in flight — its departed
// transport endpoint then refuses to send, so no retry from that peer can
// ever succeed — in which case the query re-enters from a fresh live peer,
// modelling a client reconnecting elsewhere.
func (c *Cluster) RangeQuery(ctx context.Context, iv keyspace.Interval) ([]datastore.Item, error) {
	if !iv.Valid() {
		return nil, fmt.Errorf("core: empty query interval %v", iv)
	}
	var lastErr error
	for entries := 0; entries < 3; entries++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		entry, err := c.randomLive()
		if err != nil {
			return nil, err
		}
		items, _, err := entry.RangeQueryStats(ctx, iv)
		if err == nil {
			return items, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// RangeQueryStats evaluates a range predicate issued at this peer with the
// pipelined scan planner, journaled for the Definition 4 audit.
func (p *Peer) RangeQueryStats(ctx context.Context, iv keyspace.Interval) ([]datastore.Item, scan.Stats, error) {
	return p.rangeQueryStats(ctx, iv, true)
}

// RangeQueryUnjournaled is RangeQueryStats without recording the query in
// the correctness journal. Operational probes (the CI cluster smoke) poll
// with it while a failure is being recovered: this process's journal never
// learns of a remote peer's death, so a journaled poll that observes the
// transient gap would read as a phantom Definition 4 violation. Unjournaled
// queries are also the only ones allowed to fall back to replica reads —
// the journaled path answers to the Definition 4 audit and therefore always
// reads primaries.
func (p *Peer) RangeQueryUnjournaled(ctx context.Context, iv keyspace.Interval) ([]datastore.Item, scan.Stats, error) {
	return p.rangeQueryStats(ctx, iv, false)
}

// scanDepth bounds how many per-range segment scans an in-ring range query
// keeps in flight; the successor chain advertised with each piece (the ring's
// successor list length plus one) limits the effective depth further.
const scanDepth = 4

// rangeQueryStats is the in-ring shell over the scan planner (package scan):
// it journals the query for the Definition 4 audit, bounds each attempt by
// QueryAttemptTimeout and retries failed attempts. Only unjournaled queries
// may read replicas.
func (p *Peer) rangeQueryStats(ctx context.Context, iv keyspace.Interval, journal bool) ([]datastore.Item, scan.Stats, error) {
	if !iv.Valid() {
		return nil, scan.Stats{}, fmt.Errorf("core: empty query interval %v", iv)
	}
	var logID int
	var start history.Seq
	if journal {
		logID, start = p.log.BeginQuery(iv)
	}
	planner := p.planner(!journal)
	var lastErr error = ErrQueryFailed
	for attempt := 1; attempt <= p.cfg.MaxQueryAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, scan.Stats{}, err
		}
		attemptCtx, cancel := context.WithTimeout(ctx, p.cfg.QueryAttemptTimeout)
		items, st, err := planner.Attempt(attemptCtx, iv)
		cancel()
		p.ReplicaReads.Add(uint64(st.ReplicaPieces))
		if err == nil {
			if journal {
				p.log.EndQuery(logID, iv, start, keysOf(items))
			}
			return items, st, nil
		}
		lastErr = err
		time.Sleep(2 * time.Millisecond)
	}
	return nil, scan.Stats{}, fmt.Errorf("%w: %v", ErrQueryFailed, lastErr)
}

// NaiveRangeQuery evaluates a range predicate issued at this peer with the
// Section 6.2 baseline — locate the first peer, then walk the ring without
// locks or continuation validation — the comparison arm of Figure 21 and of
// the incorrectness demonstrations. Pieces counts the peers it visited.
func (p *Peer) NaiveRangeQuery(ctx context.Context, iv keyspace.Interval) ([]datastore.Item, scan.Stats, error) {
	if !iv.Valid() {
		return nil, scan.Stats{}, fmt.Errorf("core: empty query interval %v", iv)
	}
	logID, start := p.log.BeginQuery(iv)
	var lastErr error
	for attempt := 1; attempt <= p.cfg.MaxQueryAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, scan.Stats{}, err
		}
		first, _, err := p.Router.FindOwner(ctx, iv.First())
		if err != nil {
			lastErr = err
			time.Sleep(2 * time.Millisecond)
			continue
		}
		scanStart := time.Now()
		items, hops, err := p.Store.NaiveScan(ctx, first, iv, 4096)
		if err != nil {
			lastErr = err
			time.Sleep(2 * time.Millisecond)
			continue
		}
		items = scan.Dedupe(items)
		p.log.EndQuery(logID, iv, start, keysOf(items))
		return items, scan.Stats{Pieces: hops + 1, ScanTime: time.Since(scanStart)}, nil
	}
	return nil, scan.Stats{}, fmt.Errorf("%w: %v", ErrQueryFailed, lastErr)
}

// keysOf projects items to their keys.
func keysOf(items []datastore.Item) []keyspace.Key {
	out := make([]keyspace.Key, len(items))
	for i, it := range items {
		out[i] = it.Key
	}
	return out
}
