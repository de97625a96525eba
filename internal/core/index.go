package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/datastore"
	"repro/internal/history"
	"repro/internal/keyspace"
	"repro/internal/scan"
	"repro/internal/transport"
)

// The P2P Index API (insertItem, deleteItem, findItems as a range query) is
// implemented on Peer — every operation routes from that peer, exactly what
// a standalone process does — and re-exposed on Cluster, which picks an
// entry peer per attempt (the last-known owner of the query's lower bound
// when the entry cache has one, else a random live peer), modelling clients
// spread across the system.

// InsertItem stores an item in the index (the P2P Index insertItem API).
// It routes from a random live entry peer to the owner of the item's search
// key value and retries through ownership movements until ctx expires.
func (c *Cluster) InsertItem(ctx context.Context, item datastore.Item) error {
	return c.retryRouted(ctx, func(entry *Peer) error {
		_, err := entry.planner(false).InsertAttempt(ctx, item)
		return err
	})
}

// DeleteItem removes an item from the index, reporting whether it existed.
func (c *Cluster) DeleteItem(ctx context.Context, key keyspace.Key) (bool, error) {
	var found bool
	err := c.retryRouted(ctx, func(entry *Peer) error {
		var err error
		found, _, err = entry.planner(false).DeleteAttempt(ctx, key)
		return err
	})
	return found, err
}

// retryRouted applies one routed attempt from a fresh random entry peer,
// retrying while ownership is moving (splits, merges, failures).
func (c *Cluster) retryRouted(ctx context.Context, op func(entry *Peer) error) error {
	return retryRouted(ctx, c.cfg.MaxQueryAttempts, func() error {
		entry, err := c.randomLive()
		if err != nil {
			return err
		}
		return op(entry)
	})
}

// InsertItem stores an item in the index, routing from this peer and
// retrying through ownership movements.
func (p *Peer) InsertItem(ctx context.Context, item datastore.Item) error {
	return retryRouted(ctx, p.cfg.MaxQueryAttempts, func() error {
		_, err := p.planner(false).InsertAttempt(ctx, item)
		return err
	})
}

// DeleteItem removes an item from the index, reporting whether it existed.
func (p *Peer) DeleteItem(ctx context.Context, key keyspace.Key) (bool, error) {
	var found bool
	err := retryRouted(ctx, p.cfg.MaxQueryAttempts, func() error {
		var err error
		found, _, err = p.planner(false).DeleteAttempt(ctx, key)
		return err
	})
	return found, err
}

// retryRouted retries op through ownership movements with a short backoff.
func retryRouted(ctx context.Context, attempts int, op func() error) error {
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := op(); err != nil {
			lastErr = err
			time.Sleep(5 * time.Millisecond)
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

// RangeQuery evaluates a range predicate from an entry peer: the last-known
// owner of the query's lower bound when the cluster's entry cache has one
// (so the owner lookup starts zero hops away), else a random live peer. An
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
		entry, cached, err := c.entryPeer(iv)
		if err != nil {
			return nil, err
		}
		items, stats, err := entry.RangeQueryStats(ctx, iv)
		if err == nil {
			c.learnEntry(stats)
			return items, nil
		}
		if cached {
			c.qcache.Invalidate(entry.Addr)
		}
		lastErr = err
	}
	return nil, lastErr
}

// entryPeer picks the peer a cluster-level query enters from: the cached
// owner of the query's lower bound when it is still a live ring member, else
// a random live peer. cached reports which path was taken so a failed query
// can invalidate the entry.
func (c *Cluster) entryPeer(iv keyspace.Interval) (entry *Peer, cached bool, err error) {
	if ent, ok := c.qcache.Lookup(iv.First()); ok {
		c.mu.Lock()
		p := c.peers[ent.Addr]
		c.mu.Unlock()
		if p != nil && c.net.Alive(p.Addr) {
			if _, serving := p.Store.Range(); serving {
				return p, true, nil
			}
		}
		c.qcache.Invalidate(ent.Addr)
	}
	p, err := c.randomLive()
	return p, false, err
}

// learnEntry records the peer that served the query's first piece as the
// future entry point for queries over the same region.
func (c *Cluster) learnEntry(stats QueryStats) {
	if stats.FirstOwner != "" {
		c.qcache.Learn(stats.FirstOwnerRange, stats.FirstOwner, stats.FirstOwnerEpoch, nil)
	}
}

// QueryStats reports how a range query executed.
type QueryStats struct {
	Hops     int           // ring hops of the successful scan (pieces visited - 1)
	Attempts int           // scan attempts including the successful one
	ScanTime time.Duration // duration of the successful scan, excluding the owner lookup (the Figure 21 metric)

	// FirstOwner identifies the peer that served the interval's first piece,
	// with FirstOwnerRange its responsibility range and FirstOwnerEpoch its
	// ownership epoch at serve time — the cluster's entry cache feeds on
	// these.
	FirstOwner      transport.Addr
	FirstOwnerRange keyspace.Range
	FirstOwnerEpoch uint64
	// ReplicaPieces counts pieces served by a replica instead of the primary
	// owner (bounded staleness; only unjournaled queries ever fall back).
	ReplicaPieces int
	// StaleEpochHints counts segments answered with a stale-epoch verdict
	// (the hint cost one probe and was re-resolved — never a wrong answer).
	StaleEpochHints int
}

// RangeQueryStatsFrom evaluates a range predicate issued at the given peer,
// returning the matching items and the execution statistics of the final
// (successful) scan.
func (c *Cluster) RangeQueryStatsFrom(ctx context.Context, origin *Peer, iv keyspace.Interval) ([]datastore.Item, QueryStats, error) {
	return origin.RangeQueryStats(ctx, iv)
}

// RangeQueryStats evaluates a range predicate issued at this peer. With
// NaiveQueries configured it uses the unlocked application-level scan of
// Section 6.2 instead of the pipelined scan.
func (p *Peer) RangeQueryStats(ctx context.Context, iv keyspace.Interval) ([]datastore.Item, QueryStats, error) {
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
func (p *Peer) RangeQueryUnjournaled(ctx context.Context, iv keyspace.Interval) ([]datastore.Item, QueryStats, error) {
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
func (p *Peer) rangeQueryStats(ctx context.Context, iv keyspace.Interval, journal bool) ([]datastore.Item, QueryStats, error) {
	if !iv.Valid() {
		return nil, QueryStats{}, fmt.Errorf("core: empty query interval %v", iv)
	}
	if p.cfg.NaiveQueries {
		return p.naiveRangeQuery(ctx, iv)
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
			return nil, QueryStats{}, err
		}
		attemptCtx, cancel := context.WithTimeout(ctx, p.cfg.QueryAttemptTimeout)
		items, st, err := planner.Attempt(attemptCtx, iv)
		cancel()
		p.ReplicaReads.Add(uint64(st.ReplicaPieces))
		if err == nil {
			if journal {
				p.log.EndQuery(logID, iv, start, keysOf(items))
			}
			return items, QueryStats{
				Hops:            st.Pieces - 1,
				Attempts:        attempt,
				ScanTime:        st.ScanTime,
				FirstOwner:      st.First.Addr,
				FirstOwnerRange: st.First.Range,
				FirstOwnerEpoch: st.First.Epoch,
				ReplicaPieces:   st.ReplicaPieces,
				StaleEpochHints: st.StaleEpochHints,
			}, nil
		}
		lastErr = err
		time.Sleep(2 * time.Millisecond)
	}
	return nil, QueryStats{}, fmt.Errorf("%w: %v", ErrQueryFailed, lastErr)
}

// NaiveQueryStatsFrom evaluates a range predicate with the Section 6.2
// naive application-level scan regardless of the cluster configuration —
// the comparison arm of Figure 21 and of the incorrectness demonstrations.
func (c *Cluster) NaiveQueryStatsFrom(ctx context.Context, origin *Peer, iv keyspace.Interval) ([]datastore.Item, QueryStats, error) {
	if !iv.Valid() {
		return nil, QueryStats{}, fmt.Errorf("core: empty query interval %v", iv)
	}
	return origin.naiveRangeQuery(ctx, iv)
}

// naiveRangeQuery is the Section 6.2 baseline: locate the first peer and
// walk the ring without locks or continuation validation.
func (p *Peer) naiveRangeQuery(ctx context.Context, iv keyspace.Interval) ([]datastore.Item, QueryStats, error) {
	logID, start := p.log.BeginQuery(iv)
	var lastErr error
	for attempt := 1; attempt <= p.cfg.MaxQueryAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, QueryStats{}, err
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
		return items, QueryStats{Hops: hops, Attempts: attempt, ScanTime: time.Since(scanStart)}, nil
	}
	return nil, QueryStats{}, fmt.Errorf("%w: %v", ErrQueryFailed, lastErr)
}

// keysOf projects items to their keys.
func keysOf(items []datastore.Item) []keyspace.Key {
	out := make([]keyspace.Key, len(items))
	for i, it := range items {
		out[i] = it.Key
	}
	return out
}
