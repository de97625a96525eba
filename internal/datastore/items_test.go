package datastore

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/keyspace"
	"repro/internal/ring"
	"repro/internal/storage"
)

// The item-set seam, driven directly: one store over a recording backend (or
// a real disk), its hand-off entry points called the way the ring and the
// neighbouring peer call them. No cluster forms and nothing waits.

// recBackend is a storage.Memory that records every Append/AppendBatch call
// as one batch, and refuses appends when refuse is set.
type recBackend struct {
	*storage.Memory
	mu      sync.Mutex
	batches [][]storage.Record
	refuse  error
}

func newRecBackend() *recBackend { return &recBackend{Memory: storage.NewMemory()} }

func (b *recBackend) Append(rec storage.Record) error { return b.AppendBatch([]storage.Record{rec}) }

func (b *recBackend) AppendBatch(recs []storage.Record) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.refuse != nil {
		return b.refuse
	}
	b.batches = append(b.batches, append([]storage.Record(nil), recs...))
	return nil
}

// wal renders the batches recorded since the last call, one string per
// batch, and forgets them.
func (b *recBackend) wal() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for _, batch := range b.batches {
		var recs []string
		for _, r := range batch {
			switch r.Kind {
			case storage.RecClaim:
				recs = append(recs, fmt.Sprintf("claim (%d,%d]@%d", r.Lo, r.Hi, r.Epoch))
			case storage.RecPut, storage.RecDelete:
				recs = append(recs, fmt.Sprintf("%s %d@%d", r.Kind, r.Key, r.Epoch))
			case storage.RecLease:
				recs = append(recs, fmt.Sprintf("lease@%d", r.Epoch))
			default:
				recs = append(recs, r.Kind.String())
			}
		}
		out = append(out, strings.Join(recs, " "))
	}
	b.batches = nil
	return out
}

// journal renders the history events after the first skip ones.
func journal(log *history.Log, skip int) []string {
	var out []string
	for _, ev := range log.Events()[skip:] {
		switch ev.Kind {
		case history.ItemAdded, history.ItemRemoved:
			out = append(out, fmt.Sprintf("%s %d", ev.Kind, ev.Key))
		case history.ItemMoved:
			out = append(out, fmt.Sprintf("move %d %s>%s", ev.Key, ev.From, ev.Peer))
		case history.RangeClaimed:
			out = append(out, fmt.Sprintf("claim (%d,%d]@%d", ev.Lo, ev.Hi, ev.Epoch))
		default:
			out = append(out, ev.Kind.String())
		}
	}
	return out
}

func itemsOf(keys ...keyspace.Key) []Item {
	out := make([]Item, len(keys))
	for i, k := range keys {
		out[i] = Item{Key: k, Payload: fmt.Sprintf("v%d", k)}
	}
	return out
}

// loneStore assembles one free peer's store over backend; its address is
// "d1". lease > 0 turns leases on.
func loneStore(t *testing.T, backend storage.Backend, lease time.Duration) (*harness, *Store) {
	t.Helper()
	h := newHarness(t, Config{StorageFactor: 5, LeaseDuration: lease}, ring.Config{})
	h.manual = true
	st, _ := h.addPeer()
	st.SetBackend(backend)
	return h, st
}

// handOff is one way items enter a store together with the claim that covers
// them. Every case but the joins starts from a store that joined as
// (100,200] at epoch 3 holding key 150.
type handOff struct {
	name   string
	lease  bool
	fresh  bool // run on a free peer: the hand-off is the join itself
	run    func(t *testing.T, st *Store)
	wal    []string // the batches the hand-off appends, in order
	events []string // the history events it emits, in order
	items  []keyspace.Key
	rng    keyspace.Range
	epoch  uint64
}

var joinAs100to200 = func(_ *testing.T, st *Store) {
	st.OnJoined(ring.Node{Addr: st.Addr(), Val: 200}, ring.Node{Addr: "pred", Val: 100},
		joinData{Range: keyspace.NewRange(100, 200), Epoch: 3, Items: itemsOf(150)})
}

var handOffs = []handOff{
	{
		name: "join install", fresh: true,
		run: func(_ *testing.T, st *Store) {
			st.OnJoined(ring.Node{Addr: st.Addr(), Val: 200}, ring.Node{Addr: "pred", Val: 100},
				joinData{Range: keyspace.NewRange(100, 200), Epoch: 3, Items: itemsOf(120, 150, 180)})
		},
		// The splitter journaled the moves as it carved them.
		wal:    []string{"claim (100,200]@3", "put 120@3 put 150@3 put 180@3"},
		events: []string{"claim (100,200]@3"},
		items:  []keyspace.Key{120, 150, 180}, rng: keyspace.NewRange(100, 200), epoch: 3,
	},
	{
		name: "join install, leased", fresh: true, lease: true,
		run:    joinAs100to200,
		wal:    []string{"claim (100,200]@3", "lease@3", "put 150@3"},
		events: []string{"claim (100,200]@3", "lease-grant"},
		items:  []keyspace.Key{150}, rng: keyspace.NewRange(100, 200), epoch: 3,
	},
	{
		name: "redistribute install",
		run: func(t *testing.T, st *Store) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			rb := rebalanceResp{Redistribute: true, Items: itemsOf(210, 220), NewBoundary: 220, Epoch: 7}
			if err := st.applyRedistribute(ctx, rb); err != nil {
				t.Fatal(err)
			}
		},
		// Above both our epoch (3) and the successor's post-shrink one (7);
		// the successor journaled the moves as it carved them.
		wal:    []string{"claim (100,220]@8", "put 210@8 put 220@8"},
		events: []string{"claim (100,220]@8"},
		items:  []keyspace.Key{150, 210, 220}, rng: keyspace.NewRange(100, 220), epoch: 8,
	},
	{
		name: "merge-in",
		run: func(t *testing.T, st *Store) {
			req := mergeInReq{From: ring.Node{Addr: "pred", Val: 100}, Range: keyspace.NewRange(50, 100), Epoch: 5, Items: itemsOf(60, 70)}
			if _, err := st.handleMergeIn("pred", req); err != nil {
				t.Fatal(err)
			}
		},
		wal:    []string{"claim (50,200]@6", "put 60@6 put 70@6"},
		events: []string{"claim (50,200]@6", "move 60 pred>d1", "move 70 pred>d1"},
		items:  []keyspace.Key{60, 70, 150}, rng: keyspace.NewRange(50, 200), epoch: 6,
	},
	{
		name: "revival",
		run: func(_ *testing.T, st *Store) {
			// The replica store holds more than the revived range (40,100]:
			// only what falls inside it is installed.
			st.rep.(*fakeRep).revive = itemsOf(30, 60, 90, 150)
			st.OnPredChanged(ring.Node{Addr: "newpred", Val: 40}, ring.Node{Addr: "pred", Val: 100}, true)
		},
		wal:    []string{"claim (40,200]@4", "put 60@4 put 90@4"},
		events: []string{"claim (40,200]@4", "add 60", "add 90"},
		items:  []keyspace.Key{60, 90, 150}, rng: keyspace.NewRange(40, 200), epoch: 4,
	},
	{
		name: "revival, leased", lease: true,
		run: func(_ *testing.T, st *Store) {
			st.rep.(*fakeRep).revive = itemsOf(60)
			st.OnPredChanged(ring.Node{Addr: "newpred", Val: 40}, ring.Node{Addr: "pred", Val: 100}, true)
		},
		wal:    []string{"claim (40,200]@4", "lease@4", "put 60@4"},
		events: []string{"lease-expire", "claim (40,200]@4", "lease-grant", "add 60"},
		items:  []keyspace.Key{60, 150}, rng: keyspace.NewRange(40, 200), epoch: 4,
	},
}

// start brings st to the hand-off's starting state and returns how many
// history events that took.
func (c handOff) start(t *testing.T, h *harness, st *Store) (skip int) {
	if !c.fresh {
		joinAs100to200(t, st)
	}
	return h.log.Len()
}

func (c handOff) leaseDuration() time.Duration {
	if c.lease {
		return time.Hour
	}
	return 0
}

func keysOf(items []Item) []keyspace.Key {
	out := make([]keyspace.Key, len(items))
	for i, it := range items {
		out[i] = it.Key
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func wantSame[T any](t *testing.T, what string, got, want T) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

// Every hand-off install writes its claim (and lease), then ONE batch holding
// every installed item at the claimed epoch — however many items — and emits
// the history events it always did, in the same order.
func TestHandOffInstallIsOneBatch(t *testing.T) {
	for _, c := range handOffs {
		t.Run(c.name, func(t *testing.T) {
			rec := newRecBackend()
			h, st := loneStore(t, rec, c.leaseDuration())
			skip := c.start(t, h, st)
			rec.wal()
			kicks := st.rep.(*fakeRep).changed

			c.run(t, st)

			wantSame(t, "WAL batches", rec.wal(), c.wal)
			wantSame(t, "history events", journal(h.log, skip), c.events)
			wantSame(t, "items", keysOf(st.LocalItems()), c.items)
			rng, epoch, _ := st.RangeEpoch()
			wantSame(t, "range", rng, c.rng)
			wantSame(t, "epoch", epoch, c.epoch)
			wantSame(t, "replication kicks", st.rep.(*fakeRep).changed-kicks, 1)
		})
	}
}

// The same hand-offs over a real disk: what a restart replays is the
// installed item set under the claimed (range, epoch).
func TestHandOffInstallReplaysFromDisk(t *testing.T) {
	for _, c := range handOffs {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			disk, err := storage.OpenDisk(dir, storage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			h, st := loneStore(t, disk, c.leaseDuration())
			c.start(t, h, st)
			c.run(t, st)
			want := make(map[keyspace.Key]string)
			for _, it := range st.LocalItems() {
				want[it.Key] = it.Payload
			}
			if err := disk.Close(); err != nil {
				t.Fatal(err)
			}

			reopened, err := storage.OpenDisk(dir, storage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			got, err := reopened.Load()
			if err != nil {
				t.Fatal(err)
			}
			wantSame(t, "replayed items", got.Items, want)
			wantSame(t, "replayed keys", len(got.Items), len(c.items))
			wantSame(t, "replayed range", got.Range, c.rng)
			wantSame(t, "replayed epoch", got.Epoch, c.epoch)
			if c.lease && got.LeaseRenewedAt == 0 {
				t.Error("the lease record did not survive the claim's replay")
			}
		})
	}
}

// A hand-off cannot abort halfway: a refused append degrades durability, the
// items are installed and journaled all the same.
func TestHandOffInstallSurvivesRefusedAppend(t *testing.T) {
	rec := newRecBackend()
	h, st := loneStore(t, rec, 0)
	rec.refuse = errors.New("disk full")
	joinAs100to200(t, st)
	wantSame(t, "items", keysOf(st.LocalItems()), []keyspace.Key{150})
	wantSame(t, "history events", journal(h.log, 0), []string{"claim (100,200]@3"})
}

// A revival that finds every item already held changes nothing and writes
// nothing.
func TestRevivalOfHeldKeysAppendsNothing(t *testing.T) {
	rec := newRecBackend()
	h, st := loneStore(t, rec, 0)
	skip := handOff{}.start(t, h, st)
	rec.wal()
	st.adoptRevived(keyspace.NewRange(100, 200), itemsOf(150))
	wantSame(t, "WAL batches", rec.wal(), []string(nil))
	wantSame(t, "history events", journal(h.log, skip), []string(nil))
	if got := st.LocalItems(); len(got) != 1 || got[0].Payload != "v150" {
		t.Errorf("items = %v, want the held v150", got)
	}
}

// Revival claims the failed predecessor's range, then reads the held replicas
// into it. Until they are in, the range write lock keeps scans and mutations
// out, as it does for every hand-off: a scan in between would find the
// revived region empty, and a delete acknowledged there would be undone when
// the replica lands.
func TestRevivalKeepsScansOutUntilItsItemsLand(t *testing.T) {
	_, st := loneStore(t, newRecBackend(), 0)
	rep := &fakeRep{revive: itemsOf(90)}
	st.SetDeps(rep, nil)
	joinAs100to200(t, st)
	readerGotIn := false
	rep.reviving = func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // a reader that would have to wait gives up at once
		if st.rangeLock.RLock(ctx) == nil {
			readerGotIn = true
			st.rangeLock.RUnlock()
		}
	}
	st.OnPredChanged(ring.Node{Addr: "newpred", Val: 80}, ring.Node{Addr: "pred", Val: 100}, true)
	if rng, _ := st.Range(); rng != keyspace.NewRange(80, 200) {
		t.Fatalf("range after revival = %v, want (80, 200]", rng)
	}
	if readerGotIn {
		t.Error("a scan or mutation could run between the revival's claim and its items")
	}
	wantSame(t, "items", keysOf(st.LocalItems()), []keyspace.Key{90, 150})
}

// A carve that cannot take the range write lock before MaintenanceTimeout
// refuses with ErrLockBusy and changes nothing: the range, epoch, items, WAL
// and journal stay as they were, so the ring can fail the insert.
func TestCarveThatCannotLockRefuses(t *testing.T) {
	rec := newRecBackend()
	h := newHarness(t, Config{StorageFactor: 5, MaintenanceTimeout: 20 * time.Millisecond}, ring.Config{})
	h.manual = true
	st, rp := h.addPeer()
	st.SetBackend(rec)
	joinAs100to200(t, st)
	rp.SetVal(120) // split() lowers the value before the ring insert
	rec.wal()
	skip := h.log.Len()

	if err := st.rangeLock.RLock(context.Background()); err != nil {
		t.Fatal(err)
	}
	data, err := st.PrepareJoinData(ring.Node{Addr: "new", Val: 200})
	st.rangeLock.RUnlock()
	if !errors.Is(err, ErrLockBusy) || data != nil {
		t.Fatalf("carve under a held read lock = (%v, %v), want (nil, ErrLockBusy)", data, err)
	}
	rng, epoch, _ := st.RangeEpoch()
	wantSame(t, "range", rng, keyspace.NewRange(100, 200))
	wantSame(t, "epoch", epoch, uint64(3))
	wantSame(t, "items", keysOf(st.LocalItems()), []keyspace.Key{150})
	wantSame(t, "WAL batches", rec.wal(), []string(nil))
	wantSame(t, "history events", journal(h.log, skip), []string(nil))
}

// The giving side of a split and of a redistribute journals the moves, then
// the shrunken claim; the claim's record is all it writes — its replay prunes
// the carved items.
func TestCarveJournalsMovesThenClaim(t *testing.T) {
	boot := func(t *testing.T) (*harness, *Store, *recBackend, int) {
		rec := newRecBackend()
		h := newHarness(t, Config{StorageFactor: 5}, ring.Config{})
		h.manual = true
		first := h.boot(1) // serves the full ring (0,0] at epoch 1
		first.SetBackend(rec)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, it := range itemsOf(10, 20, 30, 40, 50, 60, 70, 80) {
			if err := insertAt(ctx, first, first.Addr(), it); err != nil {
				t.Fatal(err)
			}
		}
		rec.wal()
		return h, first, rec, h.log.Len()
	}

	t.Run("split", func(t *testing.T) {
		h, first, rec, skip := boot(t)
		h.rings[first.Addr()].SetVal(60) // split() lowers the value before the ring insert
		data, err := first.PrepareJoinData(ring.Node{Addr: "new", Val: 0})
		if err != nil {
			t.Fatal(err)
		}
		jd := data.(joinData)
		wantSame(t, "handed range", jd.Range, keyspace.NewRange(60, 0))
		wantSame(t, "handed epoch", jd.Epoch, uint64(2))
		wantSame(t, "handed items", keysOf(jd.Items), []keyspace.Key{70, 80})
		wantSame(t, "WAL batches", rec.wal(), []string{"claim (0,60]@2"})
		events := journal(h.log, skip)
		sort.Strings(events[:2]) // the carve walks a map
		wantSame(t, "history events", events, []string{"move 70 d1>new", "move 80 d1>new", "claim (0,60]@2"})
		wantSame(t, "kept items", keysOf(first.LocalItems()), []keyspace.Key{10, 20, 30, 40, 50, 60})
	})

	t.Run("redistribute", func(t *testing.T) {
		h, first, rec, skip := boot(t)
		// 8 here + 3 at the underflowing predecessor: give it our 2 lowest.
		rb, err := first.handleRebalance("pred", rebalanceReq{From: ring.Node{Addr: "pred", Val: 0}, FromCount: 3})
		if err != nil {
			t.Fatal(err)
		}
		wantSame(t, "given items", keysOf(rb.Items), []keyspace.Key{10, 20})
		wantSame(t, "boundary", rb.NewBoundary, keyspace.Key(20))
		wantSame(t, "WAL batches", rec.wal(), []string{"claim (20,0]@2"})
		wantSame(t, "history events", journal(h.log, skip), []string{"move 10 d1>pred", "move 20 d1>pred", "claim (20,0]@2"})
		wantSame(t, "kept items", keysOf(first.LocalItems()), []keyspace.Key{30, 40, 50, 60, 70, 80})
	})

	t.Run("step-down", func(t *testing.T) {
		h, first, rec, skip := boot(t)
		rng, epoch, _ := first.RangeEpoch()
		first.StepDown(rng, epoch)
		wantSame(t, "WAL batches", rec.wal(), []string{"release"})
		events := journal(h.log, skip)
		sort.Strings(events)
		wantSame(t, "history events", events, []string{"remove 10", "remove 20", "remove 30", "remove 40", "remove 50", "remove 60", "remove 70", "remove 80"})
		wantSame(t, "kept items", first.ItemCount(), 0)
	})
}

// A client mutation writes exactly one record before it is applied; one that
// changes nothing writes nothing; a refused append refuses the mutation and
// leaves the item set, the history log and the replication kick untouched.
func TestClientMutationWritesOneRecord(t *testing.T) {
	rec := newRecBackend()
	h := newHarness(t, Config{StorageFactor: 5}, ring.Config{})
	h.manual = true
	first := h.boot(1)
	first.SetBackend(rec)
	rep := first.rep.(*fakeRep)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	skip := h.log.Len()
	want := func(what string, wal, events []string, kicks int) {
		t.Helper()
		wantSame(t, what+": WAL batches", rec.wal(), wal)
		wantSame(t, what+": history events", journal(h.log, skip), events)
		wantSame(t, what+": replication kicks", rep.changed, kicks)
		skip = h.log.Len()
		rep.changed = 0
	}

	meta, err := ClientInsert(ctx, h.net, first.Addr(), first.Addr(), Item{Key: 10, Payload: "a"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSame(t, "insert reply", meta, OwnerMeta{Range: keyspace.FullRange(0), Epoch: 1})
	want("insert", []string{"put 10@1"}, []string{"add 10"}, 1)

	found, _, err := ClientDelete(ctx, h.net, first.Addr(), first.Addr(), 99, 1)
	if err != nil || found {
		t.Fatalf("delete of a missing key = %v, %v", found, err)
	}
	want("delete of a missing key", nil, nil, 0)

	rec.refuse = errors.New("disk full")
	if _, err := ClientInsert(ctx, h.net, first.Addr(), first.Addr(), Item{Key: 20}, 1); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("insert over a refusing backend = %v, want the append error", err)
	}
	if found, _, err := ClientDelete(ctx, h.net, first.Addr(), first.Addr(), 10, 1); err == nil || found {
		t.Fatalf("delete over a refusing backend = %v, %v, want the append error", found, err)
	}
	want("refused mutations", nil, nil, 0)
	wantSame(t, "items after refused mutations", first.LocalItems(), []Item{{Key: 10, Payload: "a"}})
	rec.refuse = nil

	found, _, err = ClientDelete(ctx, h.net, first.Addr(), first.Addr(), 10, 1)
	if err != nil || !found {
		t.Fatalf("delete = %v, %v", found, err)
	}
	want("delete", []string{"delete 10@1"}, []string{"remove 10"}, 1)
}
