package datastore

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/keyspace"
	"repro/internal/ring"
)

// CheckStorageBalance verifies the P-Ring Data Store invariant (Section 2.3)
// on a quiescent system: every serving peer holds between sf and 2·sf items,
// except a lone peer or a peer whose neighbours cannot absorb more.
func checkStorageBalance(h *harness, sf int) (under, over int) {
	serving := h.serving()
	if len(serving) <= 1 {
		return 0, 0
	}
	for _, st := range serving {
		n := st.ItemCount()
		if n < sf {
			under++
		}
		if n > 2*sf {
			over++
		}
	}
	return under, over
}

// After a large load the balancer must settle with no overfull peer and at
// most transiently underfull ones.
func TestStorageBalanceAfterLoad(t *testing.T) {
	h := newHarness(t, Config{}, ring.Config{})
	// Worst case: 80 items at storage factor 5 can occupy up to 16 peers
	// (a peer splits past 2·sf = 10 items); with fewer free peers the pool
	// can drain, leaving an overfull peer legitimately unable to split.
	first := h.boot(20)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := 1; i <= 80; i++ {
		key := keyspace.Key(i * 50)
		inserted := false
		for attempt := 0; attempt < 400 && !inserted; attempt++ {
			addr := ownerOf(h, key)
			if addr == "" {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			if err := insertAt(ctx, first, addr, Item{Key: key}); err == nil {
				inserted = true
			} else {
				time.Sleep(10 * time.Millisecond)
			}
		}
		if !inserted {
			t.Fatalf("could not insert %d", key)
		}
	}
	settled := false
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		// Nudge: drive the balance check directly on overfull peers, so a
		// lost kick or a backed-off retry cannot stall the test.
		for _, st := range h.serving() {
			if st.ItemCount() > 10 {
				st.CheckBalance()
			}
		}
		_, over := checkStorageBalance(h, 5)
		if over == 0 && len(h.serving()) >= 5 {
			settled = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !settled {
		dumpBalance(t, h)
		t.Fatal("balance never settled")
	}
	if under, _ := checkStorageBalance(h, 5); under > 1 {
		t.Errorf("%d peers underfull after settling", under)
	}
}

// dumpBalance logs every peer's state, for wedge diagnostics.
func dumpBalance(t *testing.T, h *harness) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	for addr, st := range h.stores {
		rng, ok := st.Range()
		t.Logf("%s alive=%v state=%s range=%v(%v) items=%d free=%d",
			addr, h.net.Alive(addr), h.rings[addr].State(), rng, ok, st.ItemCount(), len(h.free))
	}
}

// A split must wait for an in-flight scan: the PrepareJoinData carve takes
// the range write lock, so a scan holding the read lock delays the hand-off
// and no item can vanish from under the scan (the split-side counterpart of
// TestScanRangeBlocksRedistribute).
func TestScanRangeBlocksSplitCarve(t *testing.T) {
	h := newHarness(t, Config{DisableMaintenance: true}, ring.Config{})
	first := h.boot(2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for i := 1; i <= 11; i++ {
		if err := insertAt(ctx, first, first.Addr(), Item{Key: keyspace.Key(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}

	// Slow scan over the full range.
	gate := make(chan struct{})
	var mu sync.Mutex
	var got []Item
	first.RegisterHandler("slow", func(items []Item, piece keyspace.Interval, param any) any {
		mu.Lock()
		got = append(got, items...)
		mu.Unlock()
		<-gate
		return param
	})
	if err := first.StartScan(ctx, first.Addr(), keyspace.ClosedInterval(10, 110), "slow", nil); err != nil {
		t.Fatal(err)
	}

	// Trigger the split while the scan handler is stalled: the ring insert
	// completes (PEPPER ack does not need the range lock), but the data
	// carve in PrepareJoinData must block until the scan releases.
	splitDone := make(chan error, 1)
	go func() { splitDone <- first.split() }()

	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != 11 {
		t.Fatalf("scan saw %d items before the split, want all 11", n)
	}
	select {
	case err := <-splitDone:
		// The split may legitimately finish only if the carve happened after
		// the handler ran — but the handler is still gated, so finishing now
		// means the carve did not wait.
		t.Fatalf("split completed while the scan held the range lock: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case err := <-splitDone:
		if err != nil {
			t.Fatalf("split failed after scan release: %v", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("split never completed")
	}
	if len(h.serving()) != 2 {
		t.Fatalf("serving peers = %d, want 2", len(h.serving()))
	}
}

// Concurrent scans in shared mode do not block each other.
func TestConcurrentScansShareLock(t *testing.T) {
	h := newHarness(t, Config{DisableMaintenance: true}, ring.Config{})
	first := h.boot(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 1; i <= 5; i++ {
		if err := insertAt(ctx, first, first.Addr(), Item{Key: keyspace.Key(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	const scans = 6
	started := make(chan struct{}, scans)
	release := make(chan struct{})
	first.RegisterHandler("hold", func(items []Item, piece keyspace.Interval, param any) any {
		started <- struct{}{}
		<-release
		return param
	})
	for s := 0; s < scans; s++ {
		if err := first.StartScan(ctx, first.Addr(), keyspace.ClosedInterval(10, 50), "hold", s); err != nil {
			t.Fatal(err)
		}
	}
	// All handlers must be running simultaneously (shared read lock).
	deadline := time.After(5 * time.Second)
	for s := 0; s < scans; s++ {
		select {
		case <-started:
		case <-deadline:
			t.Fatalf("only %d of %d scans started concurrently", s, scans)
		}
	}
	close(release)
}
