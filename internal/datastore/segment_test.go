package datastore

import (
	"context"
	"testing"
	"time"

	"repro/internal/keyspace"
	"repro/internal/ring"
)

func TestScanSegmentServesValidatedPiece(t *testing.T) {
	h := newHarness(t, Config{DisableMaintenance: true}, ring.Config{})
	first := h.boot(1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 1; i <= 5; i++ {
		if err := insertAt(ctx, first, first.Addr(), Item{Key: keyspace.Key(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	iv := keyspace.ClosedInterval(15, 45)
	res, err := ClientScanSegmentAsync(ctx, h.net, first.Addr(), first.Addr(), iv, 15, 0).Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.NotOwner {
		t.Fatal("owner disclaimed its own cursor")
	}
	if !res.Done {
		t.Errorf("full-range owner did not finish the interval: %+v", res)
	}
	if res.Piece.Lb != 15 || res.Piece.Ub != 45 {
		t.Errorf("piece = %v, want [15, 45]", res.Piece)
	}
	if len(res.Items) != 3 {
		t.Errorf("segment found %d items, want 3 (20,30,40)", len(res.Items))
	}
	for i := 1; i < len(res.Items); i++ {
		if res.Items[i-1].Key >= res.Items[i].Key {
			t.Errorf("segment items not sorted: %v", res.Items)
		}
	}
	if !res.Range.IsFull() {
		t.Errorf("reported range = %v, want the full ring", res.Range)
	}
}

// A segment request whose cursor the target does not own must be rejected —
// the stale-route-hint case — not served with wrong data. The rejection is
// validated at the target exactly like Algorithm 5's continuation check.
func TestScanSegmentRejectsForeignCursor(t *testing.T) {
	h := newHarness(t, Config{DisableMaintenance: true}, ring.Config{})
	first := h.boot(1)
	first.mu.Lock()
	first.rng = keyspace.NewRange(100, 200)
	first.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	before := first.ScanAborts.Load()
	res, err := ClientScanSegmentAsync(ctx, h.net, first.Addr(), first.Addr(), keyspace.ClosedInterval(300, 400), 300, 0).Result()
	if err != nil {
		t.Fatal(err)
	}
	if !res.NotOwner {
		t.Fatalf("foreign cursor was served: %+v", res)
	}
	if first.ScanAborts.Load() == before {
		t.Error("rejected segment not counted as a scan abort")
	}
}

// A piece must stop at the serving peer's range boundary and report the
// successor chain so the origin can pipeline the rest.
func TestScanSegmentClipsToRangeAndReportsChain(t *testing.T) {
	h := newHarness(t, Config{DisableMaintenance: true}, ring.Config{})
	first := h.boot(1)
	first.mu.Lock()
	first.rng = keyspace.NewRange(900, 50) // wrapped: owns (900, max] and [0, 50]
	first.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := ClientScanSegmentAsync(ctx, h.net, first.Addr(), first.Addr(), keyspace.ClosedInterval(10, 400), 10, 0).Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.NotOwner {
		t.Fatal("owner disclaimed cursor 10")
	}
	if res.Done {
		t.Error("segment claimed to finish an interval extending past its range")
	}
	if res.Piece.Lb != 10 || res.Piece.Ub != 50 {
		t.Errorf("piece = %v, want [10, 50] (clipped at range end)", res.Piece)
	}
	// The single ring member's successor is itself; what matters is that the
	// chain metadata travels at all.
	if res.Chain == nil {
		t.Log("note: single-peer ring reported no successors (acceptable)")
	}
}
