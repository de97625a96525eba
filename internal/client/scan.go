package client

import (
	"context"
	"fmt"

	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/ring"
	"repro/internal/routecache"
	"repro/internal/scan"
	"repro/internal/transport"
)

// Query evaluates a range predicate, returning the matching items sorted by
// key. It runs the cluster's pipelined scan planner (package scan) from
// outside the ring, routed by the client's cache and seed descent. It is an
// unjournaled read: when a primary dies mid-scan the affected segment is
// served from its replica chain (bounded staleness of one replication
// refresh) instead of failing the query.
func (c *Client) Query(ctx context.Context, iv keyspace.Interval) ([]datastore.Item, error) {
	if !iv.Valid() {
		return nil, fmt.Errorf("client: empty query interval %v", iv)
	}
	ctx, release, err := c.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	planner := c.planner()
	var items []datastore.Item
	err = c.retry(ctx, func() error {
		var st scan.Stats
		var err error
		items, st, err = planner.Attempt(ctx, iv)
		c.staleRoutes.Add(uint64(st.StaleRoutes))
		c.replicaReads.Add(uint64(st.ReplicaPieces))
		return err
	})
	if err == nil {
		c.queries.Inc()
	}
	return items, err
}

// routes is the client as the scan planner's route seam: hints from the
// route cache, full lookups by greedy descent from a seed.
type routes Client

func (r *routes) CachedEntry(key keyspace.Key) (routecache.Entry, bool) {
	return r.cache.Lookup(key)
}

// Resolve returns the cached hint when present, else runs a full greedy
// descent (which learns the owner into the cache). Either way the route is
// ranged — a descent's final answer carries the owner's range, epoch and
// chain — and a hint: the target validates.
func (r *routes) Resolve(ctx context.Context, key keyspace.Key) (routecache.Entry, bool, error) {
	if ent, ok := r.cache.Lookup(key); ok {
		return ent, true, nil
	}
	ent, err := (*Client)(r).descend(ctx, key)
	return ent, true, err
}

func (r *routes) Learn(rng keyspace.Range, owner transport.Addr, epoch uint64, chain []ring.Node) {
	r.cache.Learn(rng, owner, epoch, ring.ChainAddrs(owner, chain))
}

func (r *routes) InvalidateOwner(owner transport.Addr) { r.cache.Invalidate(owner) }
