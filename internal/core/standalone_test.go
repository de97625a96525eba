package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/ops"
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
	if n := boot.CurrentPeer().Gossip.FreeCount(); n != 1 {
		t.Fatalf("bootstrap directory has %d free peers, want 1", n)
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

	// A probe over the wire reports the bootstrap's own journal: at least
	// its 14 adds, at 32 bytes or more each.
	st, err := Probe(ctx, joiner.tr, joiner.CurrentPeer().Addr, boot.CurrentPeer().Addr, ops.ProbeRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if n := boot.Log.Len(); st.JournalEvents < 14 || st.JournalEvents > n {
		t.Errorf("journal_events = %d, want 14..%d", st.JournalEvents, n)
	}
	if st.JournalBytes < 32*int64(st.JournalEvents) {
		t.Errorf("journal_bytes = %d for %d events, want at least 32 each", st.JournalBytes, st.JournalEvents)
	}
}

// A Standalone's two hand-backs: the peer of a failed split is free again in
// the peer's directory, while the process's own peer retiring (merged away or
// stepped down) reaches the rejoin and never the directory — a spent identity
// must not re-enter circulation, and the rebuilt directory keeps the free
// peers the old one knew. Retiring a foreign address rebuilds nothing.
func TestDirectoryReleaseSemantics(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig())
	defer net.Close()
	s, err := NewStandalone(net, "node-0", tcpConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	free := func() int { return s.CurrentPeer().Gossip.FreeCount() }
	s.CurrentPeer().Gossip.MarkFree("peer-a")
	addr, err := s.Acquire()
	if err != nil || addr != "peer-a" {
		t.Fatalf("Acquire = %v, %v", addr, err)
	}
	s.CurrentPeer().Gossip.MarkFree("peer-b")
	s.Release(addr) // failed split: the peer is free again
	if n := free(); n != 2 {
		t.Fatalf("directory has %d free peers after a failed split's release, want 2", n)
	}

	s.Retire("peer-b") // not this process's peer
	self := s.CurrentPeer().Addr
	s.Retire(self) // our own peer merged away
	select {
	case <-s.Rejoins():
	case <-time.After(10 * time.Second):
		t.Fatal("retiring our own peer never reached the rejoin")
	}
	if err := s.RejoinErr(); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	select {
	case <-s.Rejoins():
		t.Fatal("two rejoins; retiring a foreign address must rebuild nothing")
	default:
	}
	if fresh := s.CurrentPeer().Addr; fresh == self {
		t.Fatalf("rejoined under the spent identity %s", self)
	}
	if n := free(); n != 2 {
		t.Fatalf("directory has %d free peers after the retire, want 2 (a spent identity must not re-enter)", n)
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
	if n := boot.CurrentPeer().Gossip.FreeCount(); n != 1 {
		t.Fatalf("bootstrap directory has %d free peers after rejoin, want 1 (the fresh announce)", n)
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
// from the bootstrap's directory: without gossip rounds a free peer is known
// only where it announced, so without the remote-acquire path an overflowed
// non-bootstrap peer could never split (the cluster-smoke churn cycle hits exactly this after a
// failure revival re-homes a range away from the bootstrap). A borrowed peer
// whose split fails is released into the borrower's own directory, which
// lends it next.
func TestAcquireBorrowsFreePeerFromBootstrap(t *testing.T) {
	cfg := tcpConfig()
	boot := startStandalone(t, cfg)
	boot.CurrentPeer().Store.Stop() // no balance loop: nothing splits
	if err := boot.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	announce := func() *Standalone {
		s := startStandalone(t, cfg)
		s.CurrentPeer().Store.Stop()
		if err := s.JoinAsFree(ctx, boot.CurrentPeer().Addr); err != nil {
			t.Fatal(err)
		}
		return s
	}
	member := announce()
	localFree := func() int { return member.CurrentPeer().Gossip.FreeCount() }

	// The member's own directory holds only itself, which it never lends, so
	// Acquire must reach across to the bootstrap's (which holds the member's
	// announced address).
	if n := localFree(); n != 0 {
		t.Fatalf("member's directory lends %d free peers before any release, want 0", n)
	}
	addr, err := member.Acquire()
	if err != nil {
		t.Fatalf("Acquire found no free peer despite one pooled at the bootstrap: %v", err)
	}
	if addr != member.CurrentPeer().Addr {
		t.Fatalf("Acquire returned %s, want the announced %s", addr, member.CurrentPeer().Addr)
	}
	if n := boot.CurrentPeer().Gossip.FreeCount(); n != 0 {
		t.Fatalf("bootstrap directory still holds %d free peers after the remote acquire", n)
	}

	// A second free peer announces to the bootstrap; the member borrows it.
	other := announce().CurrentPeer().Addr
	addr, err = member.Acquire()
	if err != nil || addr != other {
		t.Fatalf("Acquire = %v, %v; want the bootstrap's %s", addr, err, other)
	}
	if n := boot.CurrentPeer().Gossip.FreeCount(); n != 0 {
		t.Fatalf("bootstrap directory still holds %d free peers after the second remote acquire", n)
	}
	// A failed split releases the borrowed address: it must be free in the
	// local directory, not vanish or be mistaken for a merge-away, and the
	// next Acquire takes it from there.
	member.Release(addr)
	if n := localFree(); n != 1 {
		t.Fatalf("released borrowed peer not free in the local directory (free=%d, want 1)", n)
	}
	if again, err := member.Acquire(); err != nil || again != other {
		t.Fatalf("Acquire after the release = %v, %v; want %s from the local directory", again, err, other)
	}
	if n := localFree(); n != 0 {
		t.Fatalf("local directory still lends %d free peers after the re-acquire", n)
	}
}

// A free-listed address that has since joined the ring elsewhere refuses
// the split's reservation. The split changes nothing and does not hand the
// address back, so it cannot wedge the directory; the next split draws the
// free peer marked after it.
func TestAcquireSkipsPooledPeerThatJoinedElsewhere(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig())
	defer net.Close()
	cfg := tcpConfig()
	start := func(addr transport.Addr) *Standalone {
		s, err := NewStandalone(net, addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		s.CurrentPeer().Store.Stop() // the test runs CheckBalance by hand
		return s
	}
	s := start("node-0")
	elsewhere := start("elsewhere")
	fresh := start("fresh-peer")
	for _, b := range []*Standalone{s, elsewhere} {
		if err := b.Bootstrap(); err != nil {
			t.Fatal(err)
		}
	}
	dir := s.CurrentPeer().Gossip
	dir.MarkFree("elsewhere")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p := s.CurrentPeer()
	for i := 1; i <= 11; i++ {
		if err := p.InsertItem(ctx, datastore.Item{Key: keyspace.Key(i * 100), Payload: "x"}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	p.Store.CheckBalance() // draws "elsewhere", which refuses
	if n := p.Store.Splits.Load(); n != 0 {
		t.Fatalf("split into a joined peer succeeded (%d splits)", n)
	}
	dir.MarkFree("fresh-peer")
	if n := dir.FreeCount(); n != 1 || p.Ring.State() != ring.StateJoined || len(p.Ring.SuccessorList()) != 0 {
		t.Fatalf("after the refused split: %d free, state %s, successors %v; want the free peer only, JOINED, alone",
			n, p.Ring.State(), p.Ring.SuccessorList())
	}
	if rng, ok := elsewhere.CurrentPeer().Store.Range(); !ok || !rng.IsFull() {
		t.Fatalf("the joined peer's range changed to %v (%v)", rng, ok)
	}

	p.Store.CheckBalance() // draws the free peer
	if n, free := p.Store.Splits.Load(), dir.FreeCount(); n != 1 || free != 0 {
		t.Fatalf("second split: %d splits, %d free; want 1 and none", n, free)
	}
	if fp := fresh.CurrentPeer(); fp.Ring.State() != ring.StateJoined || fp.Store.ItemCount() == 0 {
		t.Fatalf("fresh peer after the split: %s with %d items", fp.Ring.State(), fp.Store.ItemCount())
	}
}

// An announce does not make a peer free when the directory knows better: an
// announced address whose range advert has reached the directory is serving
// somewhere, and Acquire never draws it. It draws the free peer announced
// beside it instead.
func TestAcquireSkipsAnnouncedPeerTheDirectoryKnowsIsServing(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig())
	defer net.Close()
	cfg := tcpConfig()
	cfg.Gossip.Interval = time.Hour // no test outlasts it: every round is a RunRound
	start := func(addr transport.Addr) *Standalone {
		s, err := NewStandalone(net, addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	s := start("node-0")
	serving := start("serving")
	start("fresh-peer")
	if err := serving.Bootstrap(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	g := serving.CurrentPeer().Gossip
	g.AddMember("node-0")
	g.RunRound(ctx) // carries serving's range advert to node-0
	// The announces land after the advert, so the announced entry is free
	// and only the advert says otherwise.
	for _, a := range []transport.Addr{"serving", "fresh-peer"} {
		if _, err := methodAnnounceFree.Call(ctx, net, a, "node-0", announceMsg{Addr: a}); err != nil {
			t.Fatalf("announce %s: %v", a, err)
		}
	}

	var drawn []transport.Addr
	for {
		addr, err := s.Acquire()
		if err != nil {
			break
		}
		if addr == "serving" {
			t.Fatal("Acquire drew a peer whose range advert the directory holds")
		}
		drawn = append(drawn, addr)
	}
	if len(drawn) != 1 || drawn[0] != "fresh-peer" {
		t.Fatalf("Acquire drew %v, want [fresh-peer]", drawn)
	}
}
