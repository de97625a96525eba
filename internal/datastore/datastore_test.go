package datastore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/keyspace"
	"repro/internal/ring"
	"repro/internal/simnet"
)

// harness wires N datastore peers over a real ring for package-level tests.
type harness struct {
	t      *testing.T
	net    *simnet.Network
	log    *history.Log
	mu     sync.Mutex
	stores map[simnet.Addr]*Store
	rings  map[simnet.Addr]*ring.Peer
	free   []simnet.Addr
	nextID int
	dsCfg  Config
	rCfg   ring.Config
}

// fakeRep is a no-op Replicator for tests that do not exercise replication.
type fakeRep struct {
	mu      sync.Mutex
	revive  []Item
	leaves  int
	changed int
	// reviving, when set, runs at the start of every Revive.
	reviving func()
}

func (f *fakeRep) ItemsChanged() {
	f.mu.Lock()
	f.changed++
	f.mu.Unlock()
}
func (f *fakeRep) BeforeLeave(context.Context) error {
	f.mu.Lock()
	f.leaves++
	f.mu.Unlock()
	return nil
}
func (f *fakeRep) Revive(r keyspace.Range) []Item {
	if f.reviving != nil {
		f.reviving()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []Item
	for _, it := range f.revive {
		if r.Contains(it.Key) {
			out = append(out, it)
		}
	}
	return out
}
func (f *fakeRep) PullRange(context.Context, keyspace.Range) ([]Item, uint64) { return nil, 0 }
func (f *fakeRep) MaxAdvertisedEpoch(keyspace.Range) uint64                   { return 0 }
func (f *fakeRep) AdvertInfo(simnet.Addr) (keyspace.Range, uint64, time.Time, bool) {
	return keyspace.Range{}, 0, time.Time{}, false
}

func newHarness(t *testing.T, dsCfg Config, rCfg ring.Config) *harness {
	t.Helper()
	if rCfg.SuccListLen == 0 {
		rCfg = ring.Config{
			SuccListLen: 4,
			StabPeriod:  5 * time.Millisecond,
			PingPeriod:  5 * time.Millisecond,
			CallTimeout: 40 * time.Millisecond,
			AckTimeout:  3 * time.Second,
		}
	}
	if dsCfg.StorageFactor == 0 {
		dsCfg = Config{
			StorageFactor:      5,
			CheckPeriod:        10 * time.Millisecond,
			CallTimeout:        40 * time.Millisecond,
			MaintenanceTimeout: 3 * time.Second,
			DisableMaintenance: dsCfg.DisableMaintenance,
		}
	}
	return &harness{
		t:      t,
		net:    simnet.New(simnet.Config{DeadCallDelay: time.Millisecond, Seed: 3}),
		log:    history.NewLog(),
		stores: make(map[simnet.Addr]*Store),
		rings:  make(map[simnet.Addr]*ring.Peer),
		dsCfg:  dsCfg,
		rCfg:   rCfg,
	}
}

// pool implements FreePool over the harness.
type pool harness

func (pl *pool) Acquire() (simnet.Addr, error) {
	h := (*harness)(pl)
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.free) == 0 {
		return "", errors.New("pool empty")
	}
	a := h.free[0]
	h.free = h.free[1:]
	return a, nil
}

// Release returns a never-joined peer to the pool (a join that timed out);
// departed peers are not reusable (the paper's model forbids re-entering
// with the same identifier).
func (pl *pool) Release(addr simnet.Addr) {
	h := (*harness)(pl)
	h.mu.Lock()
	defer h.mu.Unlock()
	rp := h.rings[addr]
	if rp != nil && rp.State() == ring.StateFree && h.net.Alive(addr) {
		h.free = append(h.free, addr)
	}
}

// addPeer constructs a full ring+store stack.
func (h *harness) addPeer() (*Store, *ring.Peer) {
	h.t.Helper()
	h.mu.Lock()
	h.nextID++
	addr := simnet.Addr(fmt.Sprintf("d%d", h.nextID))
	h.mu.Unlock()
	mux := simnet.NewMux()
	var st *Store
	cb := ring.Callbacks{
		PrepareJoinData: func(j ring.Node) any { return st.PrepareJoinData(j) },
		OnJoined: func(self, pred ring.Node, data any) {
			st.OnJoined(self, pred, data)
		},
		OnPredChanged: func(newPred, prev ring.Node, failed bool) {
			st.OnPredChanged(newPred, prev, failed)
		},
	}
	rp := ring.NewPeer(h.net, mux, h.rCfg, ring.Node{Addr: addr}, cb)
	st = New(h.net, mux, rp, h.log, h.dsCfg)
	st.SetDeps(&fakeRep{}, (*pool)(h))
	if err := h.net.Register(addr, mux.Dispatch); err != nil {
		h.t.Fatal(err)
	}
	h.mu.Lock()
	h.stores[addr] = st
	h.rings[addr] = rp
	h.mu.Unlock()
	h.t.Cleanup(func() { rp.Stop(); st.Stop() })
	return st, rp
}

// boot starts a ring with one serving peer and n-1 free peers.
func (h *harness) boot(n int) *Store {
	h.t.Helper()
	first, rp := h.addPeer()
	if err := rp.InitRing(); err != nil {
		h.t.Fatal(err)
	}
	first.InitFirstPeer()
	first.Start()
	for i := 1; i < n; i++ {
		st, _ := h.addPeer()
		h.mu.Lock()
		h.free = append(h.free, st.Addr())
		h.mu.Unlock()
	}
	return first
}

func hWaitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// serving returns stores that currently own a range. LEAVING and INSERTING
// peers still serve their range (a leave keeps serving until the Data Store
// hand-off), so they count.
func (h *harness) serving() []*Store {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []*Store
	for addr, st := range h.stores {
		if !h.net.Alive(addr) {
			continue
		}
		switch h.rings[addr].State() {
		case ring.StateJoined, ring.StateLeaving, ring.StateInserting:
		default:
			continue
		}
		if _, ok := st.Range(); ok {
			out = append(out, st)
		}
	}
	return out
}

func TestInsertDeleteLocal(t *testing.T) {
	h := newHarness(t, Config{DisableMaintenance: true}, ring.Config{})
	first := h.boot(1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if err := insertAt(ctx, first, first.Addr(), Item{Key: 10, Payload: "x"}); err != nil {
		t.Fatal(err)
	}
	if got := first.ItemCount(); got != 1 {
		t.Fatalf("ItemCount = %d", got)
	}
	found, err := deleteAt(ctx, first, first.Addr(), 10)
	if err != nil || !found {
		t.Fatalf("delete = %v, %v", found, err)
	}
	found, err = deleteAt(ctx, first, first.Addr(), 10)
	if err != nil || found {
		t.Fatalf("double delete = %v, %v", found, err)
	}
}

func TestInsertRejectedByNonOwner(t *testing.T) {
	h := newHarness(t, Config{DisableMaintenance: true}, ring.Config{})
	first := h.boot(2)
	// Manually give the first peer a bounded range so a key outside it is
	// rejected.
	first.mu.Lock()
	first.rng = keyspace.NewRange(0, 100)
	first.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := insertAt(ctx, first, first.Addr(), Item{Key: 500})
	if !errors.Is(err, ErrNotOwner) {
		t.Fatalf("err = %v, want ErrNotOwner", err)
	}
}

func TestSplitOnOverflow(t *testing.T) {
	h := newHarness(t, Config{}, ring.Config{})
	first := h.boot(3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// sf = 5: the 11th item overflows the peer and triggers a split, which
	// moves the boundary under the remaining inserts — hence routed.
	for i := 1; i <= 12; i++ {
		if err := insertRetry(ctx, h, first, keyspace.Key(i*10)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	hWaitUntil(t, 5*time.Second, "split", func() bool { return len(h.serving()) == 2 })

	total := 0
	for _, st := range h.serving() {
		n := st.ItemCount()
		if n < 1 {
			t.Errorf("peer %s holds %d items after split", st.Addr(), n)
		}
		total += n
	}
	if total != 12 {
		t.Errorf("items after split = %d, want 12", total)
	}
	// Ranges must partition: ring consistency implies ranges chain; verify
	// every key is owned by exactly one serving peer.
	for i := 1; i <= 12; i++ {
		owners := 0
		for _, st := range h.serving() {
			if rng, ok := st.Range(); ok && rng.Contains(keyspace.Key(i*10)) {
				owners++
			}
		}
		if owners != 1 {
			t.Errorf("key %d owned by %d peers", i*10, owners)
		}
	}
}

func TestRedistributeOnUnderflow(t *testing.T) {
	h := newHarness(t, Config{}, ring.Config{})
	first := h.boot(3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for i := 1; i <= 24; i++ {
		if err := insertRetry(ctx, h, first, keyspace.Key(i*10)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	hWaitUntil(t, 10*time.Second, "splits", func() bool { return len(h.serving()) >= 2 })

	// Delete items from the lowest-range peer until it underflows while its
	// successor stays rich: a redistribute (not a merge) must follow.
	stores := h.serving()
	var low *Store
	for _, st := range stores {
		if rng, _ := st.Range(); rng.Contains(10) {
			low = st
		}
	}
	if low == nil {
		t.Fatal("no owner of key 10")
	}
	before := low.Redistributes.Load() + totalRedis(h)
	items := low.LocalItems()
	// The deletes themselves trigger the redistribute (or merge) that moves
	// low's boundary, so they are routed to whoever owns the key by then.
	for i := 0; i < len(items)-1; i++ {
		if err := deleteRetry(ctx, h, items[i].Key); err != nil {
			t.Fatalf("delete: %v", err)
		}
	}
	hWaitUntil(t, 5*time.Second, "redistribute or merge", func() bool {
		return totalRedis(h) > before || totalMerges(h) > 0
	})
}

func totalRedis(h *harness) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n uint64
	for _, st := range h.stores {
		n += st.Redistributes.Load()
	}
	return n
}

func totalMerges(h *harness) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n uint64
	for _, st := range h.stores {
		n += st.Merges.Load()
	}
	return n
}

// insertAt and deleteAt issue one unfenced mutation at the peer at addr
// through the dial bridges, sent from via's own address.
func insertAt(ctx context.Context, via *Store, addr simnet.Addr, item Item) error {
	_, err := ClientInsert(ctx, via.net, via.Addr(), addr, item, 0)
	return err
}

func deleteAt(ctx context.Context, via *Store, addr simnet.Addr, key keyspace.Key) (bool, error) {
	found, _, err := ClientDelete(ctx, via.net, via.Addr(), addr, key, 0)
	return found, err
}

// ownerOf finds the serving peer owning key (test-side routing).
func ownerOf(h *harness, key keyspace.Key) simnet.Addr {
	for _, st := range h.serving() {
		if rng, ok := st.Range(); ok && rng.Contains(key) {
			return st.Addr()
		}
	}
	return ""
}

// insertRetry inserts through test-side routing, retrying while ownership is
// in flight between peers. The RPC is issued from the owner's own stack so a
// departed entry peer cannot poison the retries.
func insertRetry(ctx context.Context, h *harness, _ *Store, key keyspace.Key) error {
	var lastErr error = ErrNoRange
	for attempt := 0; attempt < 200; attempt++ {
		addr := ownerOf(h, key)
		if addr == "" {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		h.mu.Lock()
		via := h.stores[addr]
		h.mu.Unlock()
		if err := insertAt(ctx, via, addr, Item{Key: key}); err == nil {
			return nil
		} else {
			lastErr = err
		}
		time.Sleep(5 * time.Millisecond)
	}
	return lastErr
}

// deleteRetry is insertRetry's twin for deletes.
func deleteRetry(ctx context.Context, h *harness, key keyspace.Key) error {
	var lastErr error = ErrNoRange
	for attempt := 0; attempt < 200; attempt++ {
		addr := ownerOf(h, key)
		if addr == "" {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		h.mu.Lock()
		via := h.stores[addr]
		h.mu.Unlock()
		if _, err := deleteAt(ctx, via, addr, key); err == nil {
			return nil
		} else {
			lastErr = err
		}
		time.Sleep(5 * time.Millisecond)
	}
	return lastErr
}

func TestScanRangeSinglePeer(t *testing.T) {
	h := newHarness(t, Config{DisableMaintenance: true}, ring.Config{})
	first := h.boot(1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 1; i <= 5; i++ {
		if err := insertAt(ctx, first, first.Addr(), Item{Key: keyspace.Key(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var got []Item
	var pieces []keyspace.Interval
	first.RegisterHandler("collect", func(items []Item, piece keyspace.Interval, param any) any {
		mu.Lock()
		got = append(got, items...)
		pieces = append(pieces, piece)
		mu.Unlock()
		return param
	})
	if err := first.StartScan(ctx, first.Addr(), keyspace.ClosedInterval(15, 45), "collect", nil); err != nil {
		t.Fatal(err)
	}
	hWaitUntil(t, 2*time.Second, "handler run", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(pieces) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Errorf("scan found %d items, want 3 (20,30,40)", len(got))
	}
}

// The scan must abort (not silently return wrong data) when started at a
// peer that does not own the lower bound.
func TestScanRejectsWrongFirstPeer(t *testing.T) {
	h := newHarness(t, Config{DisableMaintenance: true}, ring.Config{})
	first := h.boot(1)
	first.mu.Lock()
	first.rng = keyspace.NewRange(100, 200)
	first.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := first.StartScan(ctx, first.Addr(), keyspace.ClosedInterval(300, 400), "none", nil)
	if !errors.Is(err, ErrNotOwner) {
		t.Fatalf("err = %v, want ErrNotOwner", err)
	}
	if first.ScanAborts.Load() == 0 {
		t.Error("abort not counted")
	}
}

// Section 4.2.2, deterministic: a redistribution between two naive-scan
// steps moves an item from the not-yet-visited peer to the already-visited
// peer, so the naive scan misses it even though it was live throughout.
func TestNaiveScanMissesDuringRedistribute(t *testing.T) {
	h := newHarness(t, Config{DisableMaintenance: true}, ring.Config{})
	first := h.boot(3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Manually split so we control the boundary: A owns (0,100], B owns
	// (100,0]; items 50 at A; 120, 180 at B... we need a redistribution
	// moving 120 from B to A between the scan's two steps. Build via real
	// maintenance: temporarily enable balancing by inserting past overflow.
	// Simpler: drive the split by hand using the maintenance entry points.
	for i := 1; i <= 11; i++ {
		if err := insertAt(ctx, first, first.Addr(), Item{Key: keyspace.Key(i * 20)}); err != nil {
			t.Fatal(err)
		}
	}
	// Manual split (maintenance disabled): call the balance check directly.
	first.CheckBalance()
	hWaitUntil(t, 5*time.Second, "split", func() bool { return len(h.serving()) == 2 })

	var a, b *Store // a = low range, b = high range (a's successor)
	for _, st := range h.serving() {
		rng, _ := st.Range()
		if rng.Contains(20) {
			a = st
		} else {
			b = st
		}
	}
	if a == nil || b == nil {
		t.Fatal("split did not produce two owners")
	}
	hWaitUntil(t, 2*time.Second, "stabilized successor at a", func() bool {
		_, ok := a.ring.FirstStabilizedSuccessor()
		return ok
	})
	// Enrich b so the underflow at a resolves by redistribution rather than
	// merge: the combined load must exceed 2·sf.
	for i := 0; i < 7; i++ {
		if err := insertAt(ctx, first, b.Addr(), Item{Key: keyspace.Key(300 + i*20)}); err != nil {
			t.Fatal(err)
		}
	}
	aRange, _ := a.Range()
	bItems := b.LocalItems()
	if len(bItems) == 0 {
		t.Fatal("successor holds nothing")
	}
	target := bItems[0] // the lowest item of b: a redistribute moves it to a

	iv := keyspace.ClosedInterval(20, 220)
	logID, start := h.log.BeginQuery(iv)

	// Naive scan step 1: read a.
	step1, err := methodNaiveStep.Call(ctx, h.net, a.Addr(), a.Addr(), naiveStepReq{Iv: iv, Cursor: 20})
	if err != nil {
		t.Fatal(err)
	}

	// Concurrently: a redistribution moves b's lowest items down to a.
	// Delete a's items until underflow, then run its balance check once.
	for _, it := range a.LocalItems()[1:] {
		if _, err := deleteAt(ctx, a, a.Addr(), it.Key); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.underflow(); err != nil {
		t.Fatalf("underflow handling: %v", err)
	}
	newARange, _ := a.Range()
	if newARange == aRange {
		t.Fatal("redistribution did not move the boundary")
	}
	moved := false
	for _, it := range a.LocalItems() {
		if it.Key == target.Key {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("item %d did not move to a during redistribution", target.Key)
	}

	// Naive scan step 2: continue at b — the moved item is gone from b.
	step2, err := methodNaiveStep.Call(ctx, h.net, a.Addr(), b.Addr(), naiveStepReq{Iv: iv, Cursor: step1.NextCursor})
	if err != nil {
		t.Fatal(err)
	}

	var keys []keyspace.Key
	for _, it := range append(step1.Items, step2.Items...) {
		keys = append(keys, it.Key)
	}
	h.log.EndQuery(logID, iv, start, keys)

	violations := h.log.CheckAllQueries()
	found := false
	for _, v := range violations {
		if v.Key == target.Key {
			found = true
		}
	}
	if !found {
		t.Errorf("naive scan should have missed item %d (violations: %v)", target.Key, violations)
	}
}

// The PEPPER counterpart: the same interleaving cannot occur, because the
// scan holds the range read lock until the hand-off — the redistribution
// blocks until the scan has moved past, and the result is complete.
func TestScanRangeBlocksRedistribute(t *testing.T) {
	h := newHarness(t, Config{DisableMaintenance: true}, ring.Config{})
	first := h.boot(3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for i := 1; i <= 11; i++ {
		if err := insertAt(ctx, first, first.Addr(), Item{Key: keyspace.Key(i * 20)}); err != nil {
			t.Fatal(err)
		}
	}
	first.CheckBalance()
	hWaitUntil(t, 5*time.Second, "split", func() bool { return len(h.serving()) == 2 })

	var a, b *Store
	for _, st := range h.serving() {
		rng, _ := st.Range()
		if rng.Contains(20) {
			a = st
		} else {
			b = st
		}
	}
	if a == nil || b == nil {
		t.Fatal("split did not produce two owners")
	}
	hWaitUntil(t, 2*time.Second, "stabilized successor at a", func() bool {
		_, ok := a.ring.FirstStabilizedSuccessor()
		return ok
	})

	// Slow handler at a: while it runs, a's range lock is held, so the
	// redistribution must wait; once the scan reaches b, b's lock blocks the
	// carve there too. Either way no item can cross the scan frontier.
	gate := make(chan struct{})
	var mu sync.Mutex
	var got []Item
	handler := func(items []Item, piece keyspace.Interval, param any) any {
		mu.Lock()
		got = append(got, items...)
		mu.Unlock()
		if piece.Contains(20) { // only the first peer stalls
			<-gate
		}
		return param
	}
	a.RegisterHandler("slow", handler)
	b.RegisterHandler("slow", handler)

	iv := keyspace.ClosedInterval(20, 220)
	if err := a.StartScan(ctx, a.Addr(), iv, "slow", nil); err != nil {
		t.Fatal(err)
	}

	// While the scan handler stalls at a, make a underflow and try to
	// redistribute: it must not complete until the scan moves on.
	for _, it := range a.LocalItems()[1:] {
		if _, err := deleteAt(ctx, a, a.Addr(), it.Key); err != nil {
			t.Fatal(err)
		}
	}
	redisDone := make(chan error, 1)
	go func() { redisDone <- a.underflow() }()
	select {
	case err := <-redisDone:
		t.Fatalf("redistribution completed while the scan held the lock: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate) // scan proceeds to b, locks released in order

	select {
	case <-redisDone:
	case <-time.After(5 * time.Second):
		t.Fatal("redistribution never completed after the scan moved on")
	}
	// The scan must have seen every item that existed when it passed:
	// 1 item left at a (key 20) plus all of b's items.
	hWaitUntil(t, 2*time.Second, "scan completion", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 6
	})
}

func TestScanAbortNotifiesOrigin(t *testing.T) {
	h := newHarness(t, Config{DisableMaintenance: true}, ring.Config{})
	first := h.boot(1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	aborts := make(chan any, 1)
	first.OnScanAbort(func(param any) { aborts <- param })

	// Scan an interval extending past the peer's range with no successor to
	// forward to (solo "ring" with a bounded range): the forward fails and
	// the origin must be notified.
	first.mu.Lock()
	first.rng = keyspace.NewRange(0, 100)
	first.mu.Unlock()
	if err := first.StartScan(ctx, first.Addr(), keyspace.ClosedInterval(50, 500), "none", "tag"); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-aborts:
		if p != "tag" {
			t.Errorf("abort param = %v, want tag", p)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("abort never delivered")
	}
}

func TestMergeTransfersEverything(t *testing.T) {
	h := newHarness(t, Config{}, ring.Config{})
	first := h.boot(3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for i := 1; i <= 14; i++ {
		if err := insertRetry(ctx, h, first, keyspace.Key(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	hWaitUntil(t, 5*time.Second, "split", func() bool { return len(h.serving()) == 2 })
	// Delete down to 4 total: one peer must merge away. Ownership can be in
	// flight while balancing runs, so resolve-and-delete with retry.
	for i := 1; i <= 10; i++ {
		key := keyspace.Key(i * 10)
		deleted := false
		for attempt := 0; attempt < 400 && !deleted; attempt++ {
			addr := ownerOf(h, key)
			if addr == "" {
				if attempt%100 == 99 {
					t.Logf("delete %d attempt %d: no owner", key, attempt)
				}
				time.Sleep(10 * time.Millisecond)
				continue
			}
			// Issue the delete from the owner's own stack: the original
			// entry peer may itself have merged away by now.
			h.mu.Lock()
			via := h.stores[addr]
			h.mu.Unlock()
			if _, err := deleteAt(ctx, via, addr, key); err == nil {
				deleted = true
			} else {
				if attempt%100 == 99 {
					t.Logf("delete %d attempt %d at %s: %v", key, attempt, addr, err)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		if !deleted {
			h.mu.Lock()
			for addr, st := range h.stores {
				rng, ok := st.Range()
				t.Logf("%s alive=%v state=%s range=%v(%v) items=%d",
					addr, h.net.Alive(addr), h.rings[addr].State(), rng, ok, st.ItemCount())
			}
			h.mu.Unlock()
			t.Fatalf("could not delete %d", key)
		}
	}
	hWaitUntil(t, 8*time.Second, "merge", func() bool { return len(h.serving()) == 1 })
	// The final range extension can still be applying when the peer count
	// drops; wait for the survivor to own everything.
	hWaitUntil(t, 8*time.Second, "survivor owning the full ring", func() bool {
		s := h.serving()
		if len(s) != 1 {
			return false
		}
		rng, ok := s[0].Range()
		return ok && rng.IsFull() && s[0].ItemCount() == 4
	})
}

func TestRangeLockContextTimeout(t *testing.T) {
	var l RangeLock
	ctx := context.Background()
	if err := l.Lock(ctx); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := l.RLock(short); err == nil {
		t.Fatal("RLock should time out while writer holds the lock")
	}
	l.Unlock()
	if err := l.RLock(ctx); err != nil {
		t.Fatal(err)
	}
	short2, cancel2 := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel2()
	if err := l.Lock(short2); err == nil {
		t.Fatal("Lock should time out while a reader holds the lock")
	}
	l.RUnlock()
}

func TestRangeLockSharedReaders(t *testing.T) {
	var l RangeLock
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := l.RLock(ctx); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		lockCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		done <- l.Lock(lockCtx)
	}()
	for i := 0; i < 5; i++ {
		time.Sleep(time.Millisecond)
		l.RUnlock()
	}
	if err := <-done; err != nil {
		t.Fatalf("writer never acquired after readers released: %v", err)
	}
	l.Unlock()
}

func TestRangeLockPanicsOnBadUnlock(t *testing.T) {
	var l RangeLock
	defer func() {
		if recover() == nil {
			t.Error("RUnlock without RLock must panic")
		}
	}()
	l.RUnlock()
}
