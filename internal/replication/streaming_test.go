package replication

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/history"
	"repro/internal/keyspace"
	"repro/internal/ring"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// Bulk state transfer under the replication protocol itself: a push that is
// lost leaves the receiving replica store provably unchanged, and a range
// bigger than one transport frame replicates over the TCP transport's chunked
// stream.

// TestLostPushLeavesReplicaRangeUnchanged loses one replica push in flight
// and proves the holder's replica range is byte-for-byte unchanged: no pushed
// item appears, and a stale replica that a landed push would have reconciled
// away is still there. The next refresh, undisturbed, repairs the range.
func TestLostPushLeavesReplicaRangeUnchanged(t *testing.T) {
	var lose atomic.Bool
	netCfg := simnet.Config{
		DeadCallDelay: time.Millisecond,
		Seed:          5,
		Fault: func(m simnet.Msg) simnet.Verdict {
			if m.Method == methodPush.Name() && lose.CompareAndSwap(true, false) {
				return simnet.Lose
			}
			return simnet.Deliver
		},
	}
	h := newRepHarnessNet(t, netCfg)
	cfg := Config{Factor: 1, CallTimeout: 10 * time.Second}
	mgrs, stores, rings := h.bootRing(2, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	payload := strings.Repeat("p", 3<<10)
	const items = 8
	for i := 0; i < items; i++ {
		it := datastore.Item{Key: keyspace.Key(10 + uint64(i)), Payload: payload}
		if err := insertAt(ctx, h, stores[0], it); err != nil {
			t.Fatal(err)
		}
	}
	waitRep(t, 5*time.Second, "successors", func() bool { return len(rings[0].Successors()) >= 1 })
	succ := rings[0].Successors()[0]
	rcv := h.mgrs[succ.Addr]

	// Seed a stale replica inside the origin's range (0, 100], attributed to
	// the origin: a push that lands reconciles it away (the origin holds no
	// item at key 90). If the lost push were applied at all, this replica
	// would vanish.
	staleMsg := pushMsg{
		From:  rings[0].Self(),
		Range: keyspace.NewRange(0, 100),
		Items: []datastore.Item{{Key: 90, Payload: "stale"}},
	}
	if _, err := rcv.handlePush(rings[0].Self().Addr, staleMsg); err != nil {
		t.Fatal(err)
	}
	held := func() []datastore.Item {
		reps := rcv.HeldReplicas()
		sort.Slice(reps, func(i, j int) bool { return reps[i].Key < reps[j].Key })
		return reps
	}
	before := held()
	if len(before) != 1 {
		t.Fatalf("seeded replica count = %d, want 1", len(before))
	}

	lose.Store(true)
	mgrs[0].RefreshOnce() // its one push is lost

	if lose.Load() {
		t.Fatal("fault injection never fired; the test proved nothing")
	}
	if st := h.net.Stats(); st.Lost != 1 {
		t.Fatalf("Lost = %d, want 1", st.Lost)
	}
	if after := held(); !reflect.DeepEqual(after, before) {
		t.Fatalf("a lost push changed the replica range: %d replicas held, want only the stale one at key 90", len(after))
	}

	// The next refresh lands: all items arrive and the stale replica
	// reconciles away in the same push.
	mgrs[0].RefreshOnce()
	if got := rcv.ReplicaCount(); got != items {
		t.Fatalf("replica count after the repairing refresh = %d, want %d", got, items)
	}
	for _, it := range rcv.HeldReplicas() {
		if it.Key == 90 {
			t.Fatal("stale replica survived a reconciling push")
		}
	}
}

// TestPushOversizedRangeOverTCP pushes a >16 MiB replica range end to end
// over real TCP loopback: the wire-level proof that the chunked stream, not
// a single bounded frame, carries bulk state between OS processes.
func TestPushOversizedRangeOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("moves >17 MiB over loopback TCP; exercised in the full suite")
	}
	tr := tcp.New(tcp.Config{DialTimeout: 2 * time.Second, CallTimeout: 60 * time.Second})
	t.Cleanup(func() { tr.Close() })

	// Receiver: a full replication stack on a TCP endpoint.
	log := history.NewLog()
	mux := transport.NewMux()
	rCfg := ring.Config{SuccListLen: 4, StabPeriod: time.Hour, PingPeriod: time.Hour, CallTimeout: 2 * time.Second, AckTimeout: 10 * time.Second}
	rp := ring.NewPeer(tr, mux, rCfg, ring.Node{Addr: "rcv"}, ring.Callbacks{})
	st := datastore.New(tr, mux, rp, log, datastore.Config{})
	rcv := New(tr, mux, rp, st, Config{})
	t.Cleanup(func() { rp.Stop(); st.Stop(); rcv.Stop() })
	rcvAddr, err := tr.Listen("127.0.0.1:0", mux.Dispatch)
	if err != nil {
		t.Fatal(err)
	}
	sndAddr, err := tr.Listen("127.0.0.1:0", func(transport.Addr, string, any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}

	payload := strings.Repeat("t", 1<<20)
	const items = 18 // ~18 MiB encoded: over the 16 MiB frame limit
	msg := pushMsg{From: ring.Node{Addr: sndAddr, Val: 100}, Range: keyspace.NewRange(100, 300)}
	for i := 0; i < items; i++ {
		msg.Items = append(msg.Items, datastore.Item{Key: keyspace.Key(110 + uint64(i)), Payload: payload})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	resp, err := transport.CallBulk(tr, ctx, sndAddr, rcvAddr, methodPush.Name(), msg)
	if err != nil {
		t.Fatalf("oversized push over TCP: %v", err)
	}
	if pr, ok := resp.(pushResp); !ok || pr.Deposed {
		t.Fatalf("push response = %v, want an accepting pushResp", resp)
	}
	if got := rcv.ReplicaCount(); got != items {
		t.Fatalf("replica count = %d, want %d", got, items)
	}
	for _, it := range rcv.HeldReplicas() {
		if len(it.Payload) != len(payload) {
			t.Fatalf("replica %d payload truncated to %d bytes", it.Key, len(it.Payload))
		}
	}

	// Read the same >16 MiB range back with a tiny replica scan: the
	// response chunks over the wire (kindRespChunk) — the replica fallback a
	// client's read of a dead primary depends on.
	read, err := ClientReplicaItems(ctx, tr, sndAddr, rcvAddr, keyspace.ClosedInterval(100, 300), 0)
	if err != nil {
		t.Fatalf("oversized replica scan over TCP: %v", err)
	}
	if len(read) != items {
		t.Fatalf("replica scan read %d items, want %d", len(read), items)
	}
	for _, it := range read {
		if len(it.Payload) != len(payload) {
			t.Fatalf("scanned item %d truncated to %d bytes", it.Key, len(it.Payload))
		}
	}
}
