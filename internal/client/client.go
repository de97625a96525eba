// Package client is the smart client tier: a library that speaks the TCP
// transport directly to a running cluster, without being a peer — no ring
// membership, no handlers, just a dial-side endpoint with its own identity.
//
// The client owns a routecache.Cache, primed from every reply that carries
// ownership facts (mutation responses, scan segments, descent answers) and
// consulted before every operation. Exactly as inside the cluster, a cached
// entry is only ever a hint: ownership is validated at the target (the
// insert/delete handlers check the key against the serving range, the
// segment handler checks the cursor), so a stale entry costs the client one
// failed probe and a re-resolve — never a wrong answer — and the cache never
// regresses an entry to a lower ownership epoch. A warm cache turns an
// operation into one validated round trip; a cold one pays the greedy
// O(log n) descent from a seed peer, learning the owner for next time.
//
// Every operation is the attempt peers run (package scan), handed this
// client's cache and seed descent as its routes; the client itself is the
// shell around it — the in-flight window, the operation deadline, the retry
// loop and the counters. Mutations are stamped with the cached ownership
// epoch, so a deposed incarnation of an owner rejects them with ErrStaleEpoch
// instead of accepting a write it no longer has the right to serve; mutations
// never fall back to replicas. Range queries run the pipelined scan planner.
// They are unjournaled reads: when a primary is unreachable
// mid-scan the planner retries the segment through the replica chain the
// cluster advertised, accepting the bounded staleness of one replication
// refresh — the same contract the in-cluster unjournaled read path offers.
//
// Many user requests multiplex over a small pool of pipelined connections
// (the TCP transport's per-destination connection pool); a bounded in-flight
// window keeps a burst of arrivals from piling unbounded state on the
// sockets — late operations queue at the window, which an open-loop load
// harness observes as tail latency, not as a slowed arrival process.
package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/metrics"
	"repro/internal/ring"
	"repro/internal/routecache"
	"repro/internal/router"
	"repro/internal/scan"
	"repro/internal/transport"
)

// Config controls a Client.
type Config struct {
	// Seeds are the cluster addresses a cold descent may start from. At
	// least one is required; descents rotate through them so a dead seed
	// costs one failed probe, not every lookup.
	Seeds []transport.Addr
	// ID is the client's dial-side identity (the from-address its requests
	// carry). Defaults to "client".
	ID transport.Addr
	// OpTimeout bounds one public operation (resolution, retries and all)
	// when the caller's context carries no deadline. Default 15s.
	OpTimeout time.Duration
	// MaxHops bounds one greedy descent. Default 64.
	MaxHops int
	// MaxAttempts bounds the route-invalidate-and-retry loop of one
	// operation. Default 8.
	MaxAttempts int
	// ScanDepth is how many per-range segment scans a range query keeps in
	// flight. Default 3.
	ScanDepth int
	// MaxInflight bounds operations in flight across the whole client; a
	// full window queues callers. Default 128.
	MaxInflight int
	// RetryBackoff is the pause after a transient failure (unreachable
	// target, busy range lock, stalled descent) before the next attempt.
	// A stale-route verdict is re-resolved at once instead, unless the
	// attempt before it drew one too (scan.Pacer). Default 5ms.
	RetryBackoff time.Duration
}

func (c Config) withDefaults() Config {
	if c.ID == "" {
		c.ID = "client"
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 15 * time.Second
	}
	if c.MaxHops <= 0 {
		c.MaxHops = 64
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.ScanDepth <= 0 {
		c.ScanDepth = 3
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 128
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	return c
}

// Stats is a snapshot of a client's operation counters.
type Stats struct {
	Inserts  uint64 // successful inserts
	Deletes  uint64 // successful deletes
	Queries  uint64 // successful range queries
	Descents uint64 // cold owner lookups (cache misses or post-invalidate)
	Hops     uint64 // total greedy hops across all descents
	Retries  uint64 // operation attempts beyond the first
	// StaleRoutes counts typed rejections that proved a cached route wrong
	// (ErrNotOwner, ErrStaleEpoch, or their segment verdicts) — each cost
	// one probe and a re-resolve.
	StaleRoutes  uint64
	ReplicaReads uint64 // scan segments served by a replica holder
	Cache        routecache.Stats
}

// Client is a smart cluster client. Safe for concurrent use; many
// goroutines sharing one Client share its cache, its connection pool and its
// in-flight window.
type Client struct {
	net   transport.Transport
	ownsT bool // Close tears the transport down too
	cfg   Config
	cache *routecache.Cache

	window chan struct{}

	mu      sync.Mutex
	seedIdx int

	inserts      metrics.Counter
	deletes      metrics.Counter
	queries      metrics.Counter
	descents     metrics.Counter
	hops         metrics.Counter
	retries      metrics.Counter
	staleRoutes  metrics.Counter
	replicaReads metrics.Counter
	closed       atomic.Bool
}

// New returns a client speaking over the given transport, which must allow
// calls from unregistered addresses (the TCP transport does; pepperd -probe
// relies on the same property). The caller keeps ownership of the
// transport.
func New(net transport.Transport, cfg Config) (*Client, error) {
	if len(cfg.Seeds) == 0 {
		return nil, errors.New("client: at least one seed address required")
	}
	cfg = cfg.withDefaults()
	return &Client{
		net:    net,
		cfg:    cfg,
		cache:  routecache.New(routecache.DefaultCapacity),
		window: make(chan struct{}, cfg.MaxInflight),
	}, nil
}

// Close releases the client. It closes the transport only when the client
// created it (Dial).
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	if c.ownsT {
		return c.net.Close()
	}
	return nil
}

// Cache exposes the route cache for tests and operational introspection.
func (c *Client) Cache() *routecache.Cache { return c.cache }

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() Stats {
	return Stats{
		Inserts:      c.inserts.Value(),
		Deletes:      c.deletes.Value(),
		Queries:      c.queries.Value(),
		Descents:     c.descents.Value(),
		Hops:         c.hops.Value(),
		Retries:      c.retries.Value(),
		StaleRoutes:  c.staleRoutes.Value(),
		ReplicaReads: c.replicaReads.Value(),
		Cache:        c.cache.Stats(),
	}
}

// begin acquires an in-flight window slot and applies the default operation
// deadline when ctx carries none. The returned release func must be called
// when the operation completes.
func (c *Client) begin(ctx context.Context) (context.Context, func(), error) {
	select {
	case c.window <- struct{}{}:
	case <-ctx.Done():
		return ctx, nil, ctx.Err()
	}
	cancel := func() {}
	if _, has := ctx.Deadline(); !has {
		ctx, cancel = context.WithTimeout(ctx, c.cfg.OpTimeout)
	}
	var once sync.Once
	release := func() {
		once.Do(func() {
			cancel()
			<-c.window
		})
	}
	return ctx, release, nil
}

// nextSeed rotates through the configured seeds.
func (c *Client) nextSeed() transport.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.cfg.Seeds[c.seedIdx%len(c.cfg.Seeds)]
	c.seedIdx++
	return s
}

// descend runs one greedy owner lookup for key from a seed peer, hopping
// via the router's next-hop probe until a peer claims ownership. The
// owner's answer carries its range, epoch and successor chain, so the
// descent always yields a fully populated cache entry. Ownership is decided
// by each target's own range: a stale pointer along the way costs hops,
// never a wrong answer.
func (c *Client) descend(ctx context.Context, key keyspace.Key) (routecache.Entry, error) {
	c.descents.Inc()
	var lastErr error
	for s := 0; s < len(c.cfg.Seeds); s++ {
		cur := c.nextSeed()
		for hop := 0; hop < c.cfg.MaxHops; hop++ {
			if err := ctx.Err(); err != nil {
				return routecache.Entry{}, err
			}
			h, err := router.ClientNextHop(ctx, c.net, c.cfg.ID, cur, key)
			if err != nil {
				c.cache.Invalidate(cur)
				lastErr = err
				break // next seed
			}
			c.hops.Inc()
			if h.Owner {
				ent := routecache.Entry{
					Range:    h.Range,
					Addr:     cur,
					Epoch:    h.Epoch,
					Replicas: ring.ChainAddrs(cur, h.Chain),
				}
				c.cache.Learn(ent.Range, ent.Addr, ent.Epoch, ent.Replicas)
				return ent, nil
			}
			if !h.Valid {
				lastErr = fmt.Errorf("client: descent stalled at %s for key %d", cur, key)
				break
			}
			cur = h.Next.Addr
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("client: descent exceeded %d hops for key %d", c.cfg.MaxHops, key)
		}
	}
	return routecache.Entry{}, lastErr
}

// planner is this client as the origin of routed attempts (package scan):
// the same scan and mutation attempts peers run, from a dial-side identity,
// routed by the client's cache and seed descent.
func (c *Client) planner() scan.Planner {
	return scan.Planner{Net: c.net, From: c.cfg.ID, Routes: (*routes)(c), Depth: c.cfg.ScanDepth, AllowReplica: true}
}

// Insert stores item in the index. The write goes to the believed owner,
// stamped with the believed ownership epoch; typed rejections and dead
// primaries invalidate the route and retry through a fresh resolution.
// Mutations never touch replicas — only the validated primary may accept a
// write.
func (c *Client) Insert(ctx context.Context, item datastore.Item) error {
	return c.mutate(ctx, &c.inserts, func(ctx context.Context) (bool, error) {
		return c.planner().InsertAttempt(ctx, item)
	})
}

// Delete removes key from the index, reporting whether it existed. Same
// routing contract as Insert.
func (c *Client) Delete(ctx context.Context, key keyspace.Key) (found bool, err error) {
	err = c.mutate(ctx, &c.deletes, func(ctx context.Context) (stale bool, err error) {
		found, stale, err = c.planner().DeleteAttempt(ctx, key)
		return stale, err
	})
	return found, err
}

// mutate is the client's shell around a routed mutation attempt: the
// in-flight window and operation deadline, the retry loop, the counters.
func (c *Client) mutate(ctx context.Context, done *metrics.Counter, attempt func(ctx context.Context) (staleRoute bool, err error)) error {
	ctx, release, err := c.begin(ctx)
	if err != nil {
		return err
	}
	defer release()
	err = c.retry(ctx, func() (bool, error) {
		stale, err := attempt(ctx)
		if stale {
			c.staleRoutes.Inc()
		}
		return stale, err
	})
	if err == nil {
		done.Inc()
	}
	return err
}

// retry drives one operation through the invalidate-and-re-resolve loop:
// each attempt resolves a (possibly fresh) route and applies the operation,
// reporting whether a failure was a stale-route verdict. An attempt that
// follows one re-resolves at once; after any other failure, or a second
// stale verdict in a row, it waits RetryBackoff for the ownership movement
// to settle (scan.Pacer).
func (c *Client) retry(ctx context.Context, op func() (stale bool, err error)) error {
	var lastErr error
	var stale bool
	pace := scan.Pacer{Backoff: c.cfg.RetryBackoff}
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
			pace.Wait(ctx, stale)
		}
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("%w (last attempt: %v)", err, lastErr)
			}
			return err
		}
		var err error
		if stale, err = op(); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("client: operation failed after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}
