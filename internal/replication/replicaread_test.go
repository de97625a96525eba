package replication

import (
	"context"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/keyspace"
)

// A replica holder must answer interval reads from its replica store plus
// its own items — the availability fallback of the pipelined read path.
func TestReplicaItemsServesHeldReplicasAndOwnItems(t *testing.T) {
	h := newRepHarness(t)
	cfg := Config{Factor: 2, RefreshPeriod: 5 * time.Millisecond, CallTimeout: 40 * time.Millisecond, DisableAutoRefresh: true}
	mgrs, stores, rings := h.bootRing(4, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Peer 0 owns the wrap range (300, 100]; give it items and replicate.
	for _, k := range []uint64{20, 40, 60} {
		if err := insertAt(ctx, h, stores[0], datastore.Item{Key: keyspace.Key(k)}); err != nil {
			t.Fatal(err)
		}
	}
	waitRep(t, 5*time.Second, "successors", func() bool {
		return len(rings[0].Successors()) >= 2
	})
	mgrs[0].RefreshOnce()
	succ := rings[0].Successors()[0]

	// Read peer 0's segment from its first successor, as the scan path does
	// when the primary is dead. The successor holds replicas of 20/40/60 and
	// owns none of those keys itself.
	items, err := ClientReplicaItems(ctx, h.net, stores[0].Addr(), succ.Addr, keyspace.ClosedInterval(30, 70), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0].Key != 40 || items[1].Key != 60 {
		t.Fatalf("replica read returned %v, want keys 40, 60 sorted", items)
	}
	h.mu.Lock()
	served := h.mgrs[succ.Addr].ReplicaServes.Load()
	h.mu.Unlock()
	if served == 0 {
		t.Error("replica serve not counted")
	}

	// The holder's own items are part of the answer too: ask the successor
	// for an interval inside its own range.
	if err := insertAt(ctx, h, stores[1], datastore.Item{Key: 150}); err != nil {
		t.Fatal(err)
	}
	items, err = ClientReplicaItems(ctx, h.net, stores[0].Addr(), stores[1].Addr(), keyspace.ClosedInterval(140, 160), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Key != 150 {
		t.Fatalf("replica read of own-range interval returned %v, want key 150", items)
	}
}
