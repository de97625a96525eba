package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/gossip"
	"repro/internal/keyspace"
	"repro/internal/replication"
	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// tcpConfig tunes the stack for loopback TCP latencies.
func tcpConfig() Config {
	cfg := Config{
		Ring: ring.Config{
			SuccListLen: 4,
			StabPeriod:  20 * time.Millisecond,
			PingPeriod:  20 * time.Millisecond,
			CallTimeout: 500 * time.Millisecond,
			AckTimeout:  5 * time.Second,
		},
		Store: datastore.Config{
			StorageFactor:      5,
			CheckPeriod:        25 * time.Millisecond,
			CallTimeout:        500 * time.Millisecond,
			MaintenanceTimeout: 5 * time.Second,
		},
		Replication: replication.Config{
			Factor:        3,
			RefreshPeriod: 25 * time.Millisecond,
			CallTimeout:   500 * time.Millisecond,
		},
		Router: router.Config{
			RefreshPeriod: 30 * time.Millisecond,
			CallTimeout:   500 * time.Millisecond,
			MaxHops:       64,
		},
		QueryAttemptTimeout: 3 * time.Second,
		MaxQueryAttempts:    30,
		Seed:                5,
	}
	return cfg
}

// startStandalone binds a fresh loopback endpoint and assembles a peer
// stack on it, the way one pepperd -listen process does. Each node gets its
// own Transport instance, so all inter-peer traffic crosses real sockets.
func startStandalone(t *testing.T, cfg Config) *Standalone {
	t.Helper()
	tr := tcp.New(tcp.Config{DialTimeout: time.Second, CallTimeout: 2 * time.Second})
	t.Cleanup(func() { tr.Close() })
	// Bind an ephemeral port first so the stack can be assembled with its
	// final dialable identity.
	probe := tcp.New(tcp.Config{})
	bound, err := probe.Listen("127.0.0.1:0", func(transport.Addr, string, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()
	s, err := NewStandalone(tr, bound, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// Two OS-process-shaped peer stacks — separate transports, real loopback
// sockets — form a ring: the second process announces itself as a free peer,
// an overflow split on the first draws it in, and range queries span both.
// This is the multi-process deployment path of cmd/pepperd -listen/-join,
// exercised end to end.
func TestStandaloneClusterOverTCP(t *testing.T) {
	cfg := tcpConfig()
	boot := startStandalone(t, cfg)
	if err := boot.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	joiner := startStandalone(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := joiner.JoinAsFree(ctx, boot.CurrentPeer().Addr); err != nil {
		t.Fatal(err)
	}
	if boot.Pool.Len() != 1 {
		t.Fatalf("bootstrap pool has %d peers, want 1", boot.Pool.Len())
	}

	// Overflow the bootstrap peer (sf=5, so >10 items force a split); the
	// split must draw the remote process into the ring over TCP.
	for i := 1; i <= 14; i++ {
		if err := boot.CurrentPeer().InsertItem(ctx, datastore.Item{Key: keyspace.Key(i * 100), Payload: "x"}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := joiner.CurrentPeer().Store.Range(); ok && joiner.CurrentPeer().Ring.State() == ring.StateJoined {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, ok := joiner.CurrentPeer().Store.Range(); !ok {
		t.Fatal("remote peer never joined the ring (split did not reach it over TCP)")
	}
	if joiner.CurrentPeer().Store.ItemCount() == 0 {
		t.Fatal("remote peer joined but received no items")
	}

	// Range queries issued at either process must see the full item set.
	for name, origin := range map[string]*Peer{"bootstrap": boot.CurrentPeer(), "joiner": joiner.CurrentPeer()} {
		items, _, err := origin.RangeQueryStats(ctx, keyspace.ClosedInterval(0, 15*100))
		if err != nil {
			t.Fatalf("query from %s: %v", name, err)
		}
		if len(items) != 14 {
			t.Fatalf("query from %s returned %d items, want 14", name, len(items))
		}
	}

	// Inserts routed from the joiner land on whichever process owns the key.
	if err := joiner.CurrentPeer().InsertItem(ctx, datastore.Item{Key: 50, Payload: "late"}); err != nil {
		t.Fatal(err)
	}
	items, _, err := boot.CurrentPeer().RangeQueryStats(ctx, keyspace.Point(50))
	if err != nil || len(items) != 1 {
		t.Fatalf("point query for cross-process insert = %v, %v", items, err)
	}
}

// AddrPool.Release semantics: a lent-but-never-joined peer returns to the
// pool (a split whose insert failed), while a foreign address — the local
// peer reporting its own merge-away — is forwarded to OnMergedAway.
func TestAddrPoolReleaseSemantics(t *testing.T) {
	pool := &AddrPool{}
	var merged []transport.Addr
	pool.OnMergedAway = func(a transport.Addr) { merged = append(merged, a) }

	pool.Add("peer-a")
	pool.Add("peer-b")
	addr, err := pool.Acquire()
	if err != nil || addr != "peer-a" {
		t.Fatalf("Acquire = %v, %v", addr, err)
	}
	pool.Release(addr) // failed split insert: identity unused, back to the pool
	if pool.Len() != 2 {
		t.Fatalf("pool has %d peers after lent release, want 2", pool.Len())
	}
	if len(merged) != 0 {
		t.Fatalf("lent release reached OnMergedAway: %v", merged)
	}

	pool.Release("self-addr") // our own peer merged away
	if len(merged) != 1 || merged[0] != "self-addr" {
		t.Fatalf("merged-away release = %v, want [self-addr]", merged)
	}
	if pool.Len() != 2 {
		t.Fatalf("pool has %d peers after merged-away release, want 2 (defunct identity must not re-enter)", pool.Len())
	}
}

// A standalone process whose peer merges away must re-announce a fresh peer
// to its bootstrap on its own — no operator restart — and be drawable into
// the ring again by a later split. Full cycle over real TCP: join, split in,
// merge out, rejoin, split in again.
func TestStandaloneRejoinAfterMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process churn cycle is slow")
	}
	cfg := tcpConfig()
	boot := startStandalone(t, cfg)
	if err := boot.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	joiner := startStandalone(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := joiner.JoinAsFree(ctx, boot.CurrentPeer().Addr); err != nil {
		t.Fatal(err)
	}

	// Overflow the bootstrap so a split draws the joiner into the ring.
	for i := 1; i <= 14; i++ {
		if err := boot.CurrentPeer().InsertItem(ctx, datastore.Item{Key: keyspace.Key(i * 100), Payload: "x"}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	waitJoined := func(s *Standalone, what string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			p := s.CurrentPeer()
			if _, ok := p.Store.Range(); ok && p.Ring.State() == ring.StateJoined {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("%s never joined the ring", what)
	}
	waitJoined(joiner, "joiner")
	oldAddr := joiner.CurrentPeer().Addr

	// Drain the joiner's range: the underflow eventually merges it into the
	// bootstrap, its identity is spent, and the process must rebuild and
	// re-announce a fresh peer by itself.
	drainDeadline := time.Now().Add(60 * time.Second)
	for {
		items := joiner.CurrentPeer().Store.LocalItems()
		if len(items) == 0 || joiner.CurrentPeer().Addr != oldAddr {
			break
		}
		if time.Now().After(drainDeadline) {
			t.Fatal("joiner never drained")
		}
		if _, err := boot.CurrentPeer().DeleteItem(ctx, items[0].Key); err != nil {
			time.Sleep(50 * time.Millisecond) // mid-merge churn; retry
		}
	}
	select {
	case <-joiner.Rejoins():
	case <-time.After(60 * time.Second):
		t.Fatal("joiner never rejoined after merging away")
	}
	if err := joiner.RejoinErr(); err != nil {
		t.Fatalf("rejoin reported failure: %v", err)
	}
	fresh := joiner.CurrentPeer()
	if fresh.Addr == oldAddr {
		t.Fatalf("rejoined peer reused identity %s (the paper's model forbids re-entering with the same identifier)", oldAddr)
	}
	if fresh.Ring.State() != ring.StateFree {
		t.Fatalf("rejoined peer state = %v, want FREE", fresh.Ring.State())
	}
	if boot.Pool.Len() != 1 {
		t.Fatalf("bootstrap pool has %d peers after rejoin, want 1 (the fresh announce)", boot.Pool.Len())
	}

	// The fresh peer must be fully functional: another overflow split has to
	// draw it back into the ring.
	for i := 1; i <= 14; i++ {
		if err := boot.CurrentPeer().InsertItem(ctx, datastore.Item{Key: keyspace.Key(i*100 + 50), Payload: "y"}); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
	}
	waitJoined(joiner, "rejoined peer")
	if joiner.CurrentPeer().Store.ItemCount() == 0 {
		t.Fatal("rejoined peer joined but received no items")
	}
}

// A split at a non-bootstrap process must be able to borrow a free peer
// from the bootstrap's pool: free peers announce only to the bootstrap, so
// without the remote-acquire path an overflowed non-bootstrap peer could
// never split (the cluster-smoke churn cycle hits exactly this after a
// failure revival re-homes a range away from the bootstrap).
func TestAcquireBorrowsFreePeerFromBootstrap(t *testing.T) {
	cfg := tcpConfig()
	cfg.Store.DisableMaintenance = true
	boot := startStandalone(t, cfg)
	if err := boot.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	member := startStandalone(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := member.JoinAsFree(ctx, boot.CurrentPeer().Addr); err != nil {
		t.Fatal(err)
	}

	// The member's own pool is empty, so Acquire must reach across to the
	// bootstrap's pool (which holds the member's own announced address).
	addr, err := member.Acquire()
	if err != nil {
		t.Fatalf("Acquire found no free peer despite one pooled at the bootstrap: %v", err)
	}
	if addr != member.CurrentPeer().Addr {
		t.Fatalf("Acquire returned %s, want the announced %s", addr, member.CurrentPeer().Addr)
	}
	if boot.Pool.Len() != 0 {
		t.Fatalf("bootstrap pool still holds %d peers after the remote acquire", boot.Pool.Len())
	}
	// A failed split releases the borrowed address: it must re-pool locally
	// (the lent bookkeeping), not vanish or be mistaken for a merge-away.
	member.Release(addr)
	if member.Pool.Len() != 1 {
		t.Fatalf("released borrowed peer not re-pooled locally (len=%d)", member.Pool.Len())
	}
}

// A locally pooled address that the gossip directory has since seen
// advertise a range is a spent identity and must never be handed to a
// split. Regression for a livelock: two members race for the same gossiped
// free entry, the loser's failed insert Releases the already-joined address
// back into its local pool, and every subsequent split would re-acquire it
// first and wedge in INSERTING forever (the joined node never acks a second
// join). A merged-away peer re-announces under a fresh identity, so
// dropping the spent address loses nothing.
func TestAcquireSkipsPooledPeerThatJoinedElsewhere(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig())
	defer net.Close()

	cfg := tcpConfig()
	cfg.Gossip = gossip.Config{Interval: time.Hour, Fanout: 2, CallTimeout: 200 * time.Millisecond, Seed: 1}
	s, err := NewStandalone(net, "node-0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// "stale-owner" once announced to this process, then joined the ring
	// through someone else; its signedless range advert arrives via gossip.
	mux := simnet.NewMux()
	owner := gossip.New(net, mux, "stale-owner", gossip.Config{Fanout: 2, CallTimeout: 200 * time.Millisecond, Seed: 7})
	if err := net.Register("stale-owner", mux.Dispatch); err != nil {
		t.Fatal(err)
	}
	owner.SelfAdvert = func() (keyspace.Range, uint64, bool) {
		return keyspace.Range{Lo: 0, Hi: 100}, 2, true
	}
	owner.AddMember("node-0")

	s.Pool.Add("stale-owner")
	s.Pool.Add("fresh-peer")

	deadline := time.Now().Add(5 * time.Second)
	for !s.CurrentPeer().Gossip.OwnsRange("stale-owner") {
		if time.Now().After(deadline) {
			t.Fatal("range advert never reached the local directory")
		}
		owner.RunRound(context.Background())
		time.Sleep(5 * time.Millisecond)
	}

	addr, err := s.Acquire()
	if err != nil || addr != "fresh-peer" {
		t.Fatalf("Acquire = %v, %v; want fresh-peer (stale-owner's identity is spent)", addr, err)
	}
	if addr, err := s.Acquire(); err == nil {
		t.Fatalf("Acquire handed out %s; the spent identity must not re-enter circulation", addr)
	}
}
