package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/ring"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// durableStandalone assembles a standalone peer whose storage factory is
// rooted at dir, bound to addr ("" = fresh ephemeral loopback port). It
// returns the node, its address, and the transport (which the CALLER closes —
// crash simulation needs to close it without stopping the peer cleanly).
func durableStandalone(t *testing.T, dir string, addr transport.Addr, cfg Config) (*Standalone, transport.Addr, *tcp.Transport) {
	t.Helper()
	cfg.Storage = storage.DiskFactory{Dir: dir}
	tr := tcp.New(tcp.Config{DialTimeout: time.Second, CallTimeout: 2 * time.Second})
	if addr == "" {
		probe := tcp.New(tcp.Config{})
		bound, err := probe.Listen("127.0.0.1:0", func(transport.Addr, string, any) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		probe.Close()
		addr = bound
	}
	s, err := NewStandalone(tr, addr, cfg)
	if err != nil {
		tr.Close()
		t.Fatal(err)
	}
	return s, addr, tr
}

// A SIGKILLed bootstrap process restarted on the same data directory resumes
// its last claimed (range, epoch) — the same epoch, it is the old incarnation
// with provable identity — serves its recovered items, keeps accepting
// writes, and passes both the Definition 4 query audit and the epoch claim
// audit.
func TestStandaloneCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := tcpConfig()
	s1, addr, tr1 := durableStandalone(t, dir, "", cfg)
	if err := s1.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Stay under the split threshold (sf=5): this test is about recovery, not
	// membership change, and there are no free peers to split to anyway.
	const n = 9
	for i := 1; i <= n; i++ {
		if err := s1.CurrentPeer().InsertItem(ctx, datastore.Item{Key: keyspace.Key(i * 100), Payload: "durable"}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if _, err := s1.CurrentPeer().DeleteItem(ctx, keyspace.Key(100)); err != nil {
		t.Fatal(err)
	}
	rngBefore, epochBefore, has := s1.CurrentPeer().Store.RangeEpoch()
	if !has {
		t.Fatal("bootstrap peer has no range")
	}
	itemsBefore := s1.CurrentPeer().Store.ItemCount()

	// The crash: background work halts, the backend is NOT closed (nothing
	// flushes), the socket drops. Anything fsynced must survive; with sync
	// interval zero that is every append.
	s1.CurrentPeer().Abandon()
	tr1.Close()

	s2, _, tr2 := durableStandalone(t, dir, addr, cfg)
	t.Cleanup(func() { tr2.Close() })
	t.Cleanup(s2.Close)
	resumed, err := s2.Resume()
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if !resumed {
		t.Fatal("Resume found no durable claim to restart into")
	}
	rng, epoch, has := s2.CurrentPeer().Store.RangeEpoch()
	if !has || rng != rngBefore || epoch != epochBefore {
		t.Fatalf("recovered (range, epoch) = (%v, %d), want (%v, %d)", rng, epoch, rngBefore, epochBefore)
	}
	if got := s2.CurrentPeer().Store.ItemCount(); got != itemsBefore {
		t.Fatalf("recovered %d items, want %d", got, itemsBefore)
	}
	if rec, cnt := s2.Recovered(); !rec || cnt != itemsBefore {
		t.Fatalf("Recovered() = (%v, %d), want (true, %d)", rec, cnt, itemsBefore)
	}

	// The recovered incarnation serves: journaled reads see every surviving
	// item (the deleted one stays deleted), and writes land.
	items, _, err := s2.CurrentPeer().RangeQueryStats(ctx, keyspace.ClosedInterval(0, (n+1)*100))
	if err != nil {
		t.Fatalf("post-recovery query: %v", err)
	}
	if len(items) != itemsBefore {
		t.Fatalf("post-recovery query returned %d items, want %d", len(items), itemsBefore)
	}
	for _, it := range items {
		if it.Key == 100 {
			t.Fatal("pre-crash delete resurrected by recovery")
		}
	}
	if err := s2.CurrentPeer().InsertItem(ctx, datastore.Item{Key: 950, Payload: "post-crash"}); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}

	// Both audits must be clean: queries against Definition 4, and the claim
	// journal — where the recovery shows up as a legal resumption of the last
	// incarnation, not an illegal duplicate claim.
	if v := s2.Log.CheckAllQueries(); len(v) != 0 {
		t.Fatalf("query audit after recovery: %v", v)
	}
	if v := s2.Log.CheckEpochAudit(); len(v) != 0 {
		t.Fatalf("epoch audit after recovery: %v", v)
	}
}

// A second crash-restart cycle on the same directory must also resume — the
// recovered claim is re-journaled to the WAL, so recovery is idempotent
// across repeated failures.
func TestStandaloneCrashRecoveryTwice(t *testing.T) {
	dir := t.TempDir()
	cfg := tcpConfig()
	s1, addr, tr1 := durableStandalone(t, dir, "", cfg)
	if err := s1.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s1.CurrentPeer().InsertItem(ctx, datastore.Item{Key: 500, Payload: "v"}); err != nil {
		t.Fatal(err)
	}
	_, epoch0, _ := s1.CurrentPeer().Store.RangeEpoch()
	s1.CurrentPeer().Abandon()
	tr1.Close()

	s2, _, tr2 := durableStandalone(t, dir, addr, cfg)
	if resumed, err := s2.Resume(); err != nil || !resumed {
		t.Fatalf("first Resume = (%v, %v)", resumed, err)
	}
	if err := s2.CurrentPeer().InsertItem(ctx, datastore.Item{Key: 600, Payload: "between-crashes"}); err != nil {
		t.Fatal(err)
	}
	s2.CurrentPeer().Abandon()
	tr2.Close()

	s3, _, tr3 := durableStandalone(t, dir, addr, cfg)
	t.Cleanup(func() { tr3.Close() })
	t.Cleanup(s3.Close)
	if resumed, err := s3.Resume(); err != nil || !resumed {
		t.Fatalf("second Resume = (%v, %v)", resumed, err)
	}
	_, epoch2, _ := s3.CurrentPeer().Store.RangeEpoch()
	if epoch2 != epoch0 {
		t.Fatalf("epoch drifted across restarts: %d -> %d (a restart is the same incarnation)", epoch0, epoch2)
	}
	if got := s3.CurrentPeer().Store.ItemCount(); got != 2 {
		t.Fatalf("second recovery has %d items, want 2 (both crash generations)", got)
	}
	if v := s3.Log.CheckEpochAudit(); len(v) != 0 {
		t.Fatalf("epoch audit after double recovery: %v", v)
	}
}

// The multi-process shape the CI recovery smoke drives, in-repo: a joiner is
// split into the ring, crashes, restarts from its directory, re-enters the
// ring through its remembered bootstrap contact, and the whole key space is
// servable again with clean audits on both processes.
func TestStandaloneJoinerCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash cycle is slow")
	}
	cfg := tcpConfig()
	bootDir, joinDir := t.TempDir(), t.TempDir()
	boot, bootAddr, btr := durableStandalone(t, bootDir, "", cfg)
	t.Cleanup(func() { btr.Close() })
	t.Cleanup(boot.Close)
	if err := boot.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Load the FULL item set before the joiner exists, so every insert is
	// journaled at the bootstrap: journals are per-process, and the final
	// Definition 4 audit is sound only at a process whose journal saw every
	// item's liveness (the same ordering the CI smoke scripts use).
	const n = 14
	for i := 1; i <= n; i++ {
		if err := boot.CurrentPeer().InsertItem(ctx, datastore.Item{Key: keyspace.Key(i * 100), Payload: "x"}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	// The overflowed bootstrap splits as soon as a free peer announces.
	joiner, joinAddr, jtr := durableStandalone(t, joinDir, "", cfg)
	if err := joiner.JoinAsFree(ctx, bootAddr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := joiner.CurrentPeer().Store.Range(); ok && joiner.CurrentPeer().Ring.State() == ring.StateJoined {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	jrng, jepoch, has := joiner.CurrentPeer().Store.RangeEpoch()
	if !has {
		t.Fatal("joiner never received a range")
	}
	jitems := joiner.CurrentPeer().Store.ItemCount()
	if jitems == 0 {
		t.Fatal("joiner joined with no items")
	}
	// As the bootstrap's only successor the joiner also holds its replicas.
	for joiner.CurrentPeer().Rep.ReplicaCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	jreps := joiner.CurrentPeer().Rep.ReplicaCount()
	if jreps == 0 {
		t.Fatal("joiner never received the bootstrap's replicas")
	}

	// Crash the joiner and restart it promptly from the same directory —
	// before failure detection declares it dead and revives the range
	// elsewhere, the operational window the recovery path is for.
	joiner.CurrentPeer().Abandon()
	jtr.Close()
	revived, _, jtr2 := durableStandalone(t, joinDir, joinAddr, cfg)
	t.Cleanup(func() { jtr2.Close() })
	t.Cleanup(revived.Close)
	walBefore := revived.CurrentPeer().Backend.Stats().Records
	resumed, err := revived.Resume()
	if err != nil {
		t.Fatalf("joiner Resume: %v", err)
	}
	if !resumed {
		t.Fatal("joiner Resume found no durable claim")
	}
	// Resume installs what the backend just replayed and writes none of it
	// again: not the claim, not the owned items, not the held replicas (at
	// sync interval zero that was one fsync per record before serving).
	if got := revived.CurrentPeer().Backend.Stats().Records - walBefore; got != 0 {
		t.Fatalf("Resume journaled %d records, want 0 (the claim, %d items and %d replicas are already durable)", got, jitems, jreps)
	}
	if got := revived.CurrentPeer().Rep.ReplicaCount(); got != jreps {
		t.Fatalf("joiner recovered %d replicas, want %d", got, jreps)
	}
	rng2, epoch2, _ := revived.CurrentPeer().Store.RangeEpoch()
	if rng2 != jrng || epoch2 != jepoch {
		t.Fatalf("joiner recovered (%v, %d), want (%v, %d)", rng2, epoch2, jrng, jepoch)
	}
	if got := revived.CurrentPeer().Store.ItemCount(); got != jitems {
		t.Fatalf("joiner recovered %d items, want %d", got, jitems)
	}

	// The full key space must be servable again from either process. These
	// availability polls stay unjournaled: the joiner's fresh journal never
	// saw the bootstrap-held items' liveness, so journaling a full-range
	// query there would read as a phantom violation (journals are
	// per-process; see ROADMAP item 11).
	queryAll := func(s *Standalone, what string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			items, _, err := s.CurrentPeer().RangeQueryUnjournaled(ctx, keyspace.ClosedInterval(0, (n+1)*100))
			if err == nil && len(items) == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("full query from %s after recovery: %d items, err=%v (want %d)", what, len(items), err, n)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	queryAll(boot, "bootstrap")
	queryAll(revived, "recovered joiner")

	// The audited journaled query runs at the bootstrap — the one journal
	// that witnessed every item's full liveness history.
	if items, _, err := boot.CurrentPeer().RangeQueryStats(ctx, keyspace.ClosedInterval(0, (n+1)*100)); err != nil || len(items) != n {
		t.Fatalf("journaled audit query at bootstrap: %d items, err=%v", len(items), err)
	}
	if v := boot.Log.CheckAllQueries(); len(v) != 0 {
		t.Fatalf("bootstrap query audit: %v", v)
	}
	for name, s := range map[string]*Standalone{"bootstrap": boot, "joiner": revived} {
		if v := s.Log.CheckEpochAudit(); len(v) != 0 {
			t.Fatalf("%s epoch audit: %v", name, v)
		}
	}
}

// refusingFactory opens backends that refuse every append — a data directory
// that cannot be written.
type refusingFactory struct{}

type refusingBackend struct{ *storage.Memory }

var errAppendRefused = errors.New("test: append refused")

func (refusingFactory) Open(transport.Addr) (storage.Backend, error) {
	return refusingBackend{storage.NewMemory()}, nil
}
func (refusingBackend) Append(storage.Record) error        { return errAppendRefused }
func (refusingBackend) AppendBatch([]storage.Record) error { return errAppendRefused }

// A process whose identity record cannot be persisted must not enter the
// cluster: a restart from that directory would find no identity or bootstrap
// contact and resume as a single-member ring instead of re-announcing. Both
// entry points report the refused append, and the joiner reports it before
// announcing itself to anyone.
func TestIdentityRecordErrorIsReturned(t *testing.T) {
	cfg := tcpConfig()
	cfg.Storage = refusingFactory{}
	net := simnet.New(simnet.Config{Seed: 1})
	t.Cleanup(func() { net.Close() })

	boot, err := NewStandalone(net, "boot", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(boot.Close)
	if err := boot.Bootstrap(); !errors.Is(err, errAppendRefused) {
		t.Fatalf("Bootstrap = %v, want the refused append", err)
	}
	if _, serving := boot.CurrentPeer().Store.Range(); serving {
		t.Error("Bootstrap claimed a range although its identity record was refused")
	}

	joiner, err := NewStandalone(net, "joiner", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(joiner.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := joiner.JoinAsFree(ctx, "boot"); !errors.Is(err, errAppendRefused) {
		t.Fatalf("JoinAsFree = %v, want the refused append", err)
	}
	if n := boot.CurrentPeer().Gossip.FreeCount(); n != 0 {
		t.Errorf("bootstrap directory holds %d free peers, want 0: the joiner announced before persisting", n)
	}
}
