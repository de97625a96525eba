package replication

import (
	"context"
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

// The chunked streaming transfer under the replication protocol itself:
// ranges bigger than one transport frame replicate correctly, and a transfer
// that loses a chunk mid-stream leaves the receiving replica store provably
// unchanged (the atomic-commit property of ISSUE 3 / acceptance criteria).

// TestPushStreamsOversizedRangeStrict replicates a range whose encoding
// exceeds transport.MaxFrameSize under strict serialization: before chunked
// streaming this exact push died with ErrFrameTooLarge at the frame boundary.
func TestPushStreamsOversizedRangeStrict(t *testing.T) {
	if testing.Short() {
		t.Skip("replicates >17 MiB per push; exercised in the full suite")
	}
	h := newRepHarnessNet(t, simnet.Config{DeadCallDelay: time.Millisecond, Seed: 5, StrictSerialization: true})
	cfg := Config{Factor: 1, DisableAutoRefresh: true, CallTimeout: 30 * time.Second}
	mgrs, stores, rings := h.bootRing(2, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// 18 items of 1 MiB each: the push message encodes past the 16 MiB frame
	// limit, so it must travel as a chunked stream.
	payload := strings.Repeat("s", 1<<20)
	const items = 18
	for i := 0; i < items; i++ {
		it := datastore.Item{Key: keyspace.Key(10 + uint64(i)), Payload: payload}
		if err := insertAt(ctx, h, stores[0], it); err != nil {
			t.Fatal(err)
		}
	}
	waitRep(t, 5*time.Second, "successors", func() bool { return len(rings[0].Successors()) >= 1 })
	mgrs[0].RefreshOnce()

	succ := rings[0].Successors()[0]
	if got := h.mgrs[succ.Addr].ReplicaCount(); got != items {
		t.Fatalf("replica count after oversized push = %d, want %d", got, items)
	}
	for _, it := range h.mgrs[succ.Addr].HeldReplicas() {
		if len(it.Payload) != len(payload) {
			t.Fatalf("replica %d payload truncated to %d bytes", it.Key, len(it.Payload))
		}
	}
	if serr := h.net.StrictErr(); serr != nil {
		t.Fatalf("StrictErr = %v", serr)
	}
	if st := h.net.Stats(); st.Chunks < items {
		t.Fatalf("Chunks = %d, want a chunked transfer (>= %d)", st.Chunks, items)
	}

	// The pull direction: a tiny pull request answered with the same
	// oversized range must cross strict simnet too (the response is not
	// frame-bounded — real transports chunk it back).
	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	resp, err := transport.CallBulk(h.net, ctx2, stores[0].Addr(), succ.Addr, methodPull.Name(), pullReq{Range: keyspace.NewRange(0, 100)})
	if err != nil {
		t.Fatalf("oversized pull: %v", err)
	}
	pulled, ok := resp.(pullResp)
	if !ok {
		t.Fatalf("pull response type %T", resp)
	}
	if len(pulled.Items) != items {
		t.Fatalf("pulled %d items, want %d", len(pulled.Items), items)
	}
}

// TestChunkDropLeavesReplicaRangeUnchanged injects a fault that drops the
// Nth chunk of every push and proves the receiver's replica store is
// bit-for-bit unchanged: no pushed item appears, and a stale replica that a
// successful push would have reconciled away is still there. Disarming the
// fault lets the identical refresh commit.
func TestChunkDropLeavesReplicaRangeUnchanged(t *testing.T) {
	var arm atomic.Bool
	netCfg := simnet.Config{
		DeadCallDelay: time.Millisecond,
		Seed:          5,
		ChunkBytes:    4 << 10,
		ChunkFault: func(_ simnet.Addr, method string, seq int) bool {
			return arm.Load() && method == methodPush.Name() && seq == 3
		},
	}
	h := newRepHarnessNet(t, netCfg)
	cfg := Config{Factor: 1, DisableAutoRefresh: true, CallTimeout: 10 * time.Second}
	mgrs, stores, rings := h.bootRing(2, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	payload := strings.Repeat("p", 3<<10) // ~3 KiB items, ~4 KiB chunks: several chunks per push
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
	// the origin: a push that commits reconciles it away (the origin holds no
	// item at key 90). If the dropped-chunk transfer were applied at all,
	// this replica would vanish.
	staleMsg := pushMsg{
		From:  rings[0].Self(),
		Range: keyspace.NewRange(0, 100),
		Items: []datastore.Item{{Key: 90, Payload: "stale"}},
	}
	if _, err := rcv.handlePush(rings[0].Self().Addr, staleMsg); err != nil {
		t.Fatal(err)
	}
	if rcv.ReplicaCount() != 1 {
		t.Fatalf("seeded replica count = %d, want 1", rcv.ReplicaCount())
	}

	arm.Store(true)
	mgrs[0].RefreshOnce() // every push loses its 4th chunk

	if got := rcv.ReplicaCount(); got != 1 {
		t.Fatalf("replica count after dropped transfer = %d, want 1 (unchanged)", got)
	}
	if reps := rcv.HeldReplicas(); len(reps) != 1 || reps[0].Key != 90 || reps[0].Payload != "stale" {
		t.Fatalf("stale replica mutated by a dropped transfer: %+v", reps)
	}
	if st := h.net.Stats(); st.ChunkDrops == 0 {
		t.Fatal("fault injection never fired; the test proved nothing")
	}

	// Disarm: the identical refresh now commits atomically — all items land
	// and the stale replica reconciles away in the same commit.
	arm.Store(false)
	mgrs[0].RefreshOnce()
	if got := rcv.ReplicaCount(); got != items {
		t.Fatalf("replica count after committed refresh = %d, want %d", got, items)
	}
	for _, it := range rcv.HeldReplicas() {
		if it.Key == 90 {
			t.Fatal("stale replica survived a committed reconciling push")
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
	st := datastore.New(tr, mux, rp, log, datastore.Config{DisableMaintenance: true})
	rcv := New(tr, mux, rp, st, Config{DisableAutoRefresh: true})
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

	// Pull the same >16 MiB range back with a tiny request: the response
	// chunks over the wire (kindRespChunk) — the revival path an orphaned
	// peer depends on.
	resp, err = transport.CallBulk(tr, ctx, sndAddr, rcvAddr, methodPull.Name(), pullReq{Range: keyspace.NewRange(100, 300)})
	if err != nil {
		t.Fatalf("oversized pull over TCP: %v", err)
	}
	pulled, ok := resp.(pullResp)
	if !ok {
		t.Fatalf("pull response type %T", resp)
	}
	if len(pulled.Items) != items {
		t.Fatalf("pulled %d items, want %d", len(pulled.Items), items)
	}
	for _, it := range pulled.Items {
		if len(it.Payload) != len(payload) {
			t.Fatalf("pulled item %d truncated to %d bytes", it.Key, len(it.Payload))
		}
	}
}
