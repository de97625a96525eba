package datastore

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/keyspace"
	"repro/internal/ring"
)

// Fencing at the mutation handlers: a request stamped with any epoch other
// than the serving peer's current one fails with the typed ErrStaleEpoch and
// leaves the store untouched; epoch 0 (unfenced) and the current epoch are
// accepted.
func TestMutationEpochFencing(t *testing.T) {
	h := newHarness(t, Config{}, ring.Config{})
	first := h.boot(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	epoch := first.Epoch()
	if epoch == 0 {
		t.Fatalf("first peer has epoch 0, want a claimed epoch")
	}
	insert := func(item Item, epoch uint64) error {
		_, err := ClientInsert(ctx, h.net, first.Addr(), first.Addr(), item, epoch)
		return err
	}
	del := func(key keyspace.Key, epoch uint64) (bool, error) {
		found, _, err := ClientDelete(ctx, h.net, first.Addr(), first.Addr(), key, epoch)
		return found, err
	}

	if err := insert(Item{Key: 10}, epoch); err != nil {
		t.Fatalf("current-epoch insert: %v", err)
	}
	if err := insert(Item{Key: 20}, 0); err != nil {
		t.Fatalf("unfenced insert: %v", err)
	}
	if err := insert(Item{Key: 30}, epoch+7); err == nil {
		t.Fatal("higher-epoch insert accepted, want ErrStaleEpoch")
	} else if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("higher-epoch insert error = %v, want ErrStaleEpoch", err)
	}
	if epoch > 1 {
		if err := insert(Item{Key: 30}, epoch-1); !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("lower-epoch insert error = %v, want ErrStaleEpoch", err)
		}
	}
	if first.ItemCount() != 2 {
		t.Fatalf("item count = %d after fenced rejections, want 2", first.ItemCount())
	}

	if _, err := del(10, epoch+1); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale delete error = %v, want ErrStaleEpoch", err)
	}
	if found, err := del(10, epoch); err != nil || !found {
		t.Fatalf("current-epoch delete = (%v, %v), want (true, nil)", found, err)
	}
	if got := first.StaleEpochRejects.Load(); got < 2 {
		t.Fatalf("StaleEpochRejects = %d, want >= 2", got)
	}
}

// A fenced segment scan is answered with a StaleEpoch verdict (one probe,
// never a wrong piece) when the epoch mismatches, and reports the serving
// epoch so the caller can re-learn.
func TestScanSegmentEpochFencing(t *testing.T) {
	h := newHarness(t, Config{}, ring.Config{})
	first := h.boot(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for i := 1; i <= 3; i++ {
		if err := insertAt(ctx, first, first.Addr(), Item{Key: keyspace.Key(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	epoch := first.Epoch()
	iv := keyspace.ClosedInterval(0, 100)

	res, err := ClientScanSegmentAsync(ctx, h.net, first.Addr(), first.Addr(), iv, 0, epoch).Result()
	if err != nil || res.NotOwner || res.StaleEpoch {
		t.Fatalf("current-epoch segment = %+v, %v", res, err)
	}
	if res.Epoch != epoch {
		t.Fatalf("segment epoch = %d, want %d", res.Epoch, epoch)
	}
	if len(res.Items) != 3 {
		t.Fatalf("segment items = %d, want 3", len(res.Items))
	}

	res, err = ClientScanSegmentAsync(ctx, h.net, first.Addr(), first.Addr(), iv, 0, epoch+3).Result()
	if err != nil {
		t.Fatalf("stale-epoch segment errored: %v", err)
	}
	if !res.StaleEpoch || len(res.Items) != 0 {
		t.Fatalf("stale-epoch segment = %+v, want StaleEpoch verdict with no items", res)
	}
	if res.Epoch != epoch {
		t.Fatalf("stale verdict reports epoch %d, want serving epoch %d", res.Epoch, epoch)
	}
}

// Epochs advance across the maintenance protocols: a split hands the new
// peer a strictly higher epoch than the pre-split claim and bumps the
// splitter too, and the journal's claim audit holds throughout.
func TestSplitBumpsEpochs(t *testing.T) {
	h := newHarness(t, Config{}, ring.Config{})
	first := h.boot(2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	before := first.Epoch()
	for i := 1; i <= 12; i++ {
		if err := insertAt(ctx, first, first.Addr(), Item{Key: keyspace.Key(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	hWaitUntil(t, 10*time.Second, "split", func() bool { return len(h.serving()) == 2 })

	for _, st := range h.serving() {
		if st.Epoch() <= before {
			t.Errorf("peer %s epoch = %d after split, want > %d", st.Addr(), st.Epoch(), before)
		}
	}
	if v := h.log.CheckEpochAudit(); len(v) != 0 {
		for _, viol := range v {
			t.Errorf("epoch audit: %v", viol)
		}
	}
}

// StepDown resigns a deposed incarnation: the range and items drop (journaled
// as removals) and the peer departs. The verdict names the incarnation it
// judged, and one that has moved on — another range, another epoch — stays.
func TestStepDownResignsRange(t *testing.T) {
	h := newHarness(t, Config{}, ring.Config{})
	first := h.boot(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := insertAt(ctx, first, first.Addr(), Item{Key: 50}); err != nil {
		t.Fatal(err)
	}
	rng, epoch, _ := first.RangeEpoch()

	first.StepDown(rng, epoch-1) // an earlier incarnation
	first.StepDown(keyspace.NewRange(rng.Lo, rng.Lo+10), epoch)
	if _, ok := first.Range(); !ok {
		t.Fatal("StepDown against another incarnation resigned the range")
	}

	first.StepDown(rng, epoch)
	if _, ok := first.Range(); ok {
		t.Fatal("StepDown against the current incarnation left the range in place")
	}
	if first.ItemCount() != 0 {
		t.Fatalf("deposed peer still holds %d items", first.ItemCount())
	}
	if got := first.StepDowns.Load(); got != 1 {
		t.Fatalf("StepDowns = %d, want 1", got)
	}
	if h.rings[first.Addr()].State() != ring.StateFree {
		t.Fatalf("deposed peer ring state = %s, want FREE (departed)", h.rings[first.Addr()].State())
	}
}
