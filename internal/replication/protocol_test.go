package replication

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/transport"
)

// The versioned push protocol, tested against its invariant rather than
// soaked: if holder h records version v for origin o at (range, epoch), then
// h's replicas inside range equal o's item set at v. Every test drives peer 0
// as the origin by hand (no manager's loop is started), counts what each
// holder journals (its manager owns a record-counting storage.Memory), and
// re-checks the invariant after every refresh.

// protoRig is a booted ring whose peer 0 is the origin under test.
type protoRig struct {
	t       testing.TB
	h       *repHarness
	origin  *Manager
	store   *datastore.Store
	holders []*Manager // the origin's first k successors, in ring order
	far     *Manager   // a peer beyond k, nil when the ring has none
	// sets remembers the origin's item set at every version it reached, so a
	// holder lagging behind is still checked against the set of ITS version.
	sets map[uint64]map[keyspace.Key]string
}

func bootProto(t testing.TB, h *repHarness, peers, k int) *protoRig {
	t.Helper()
	cfg := Config{Factor: k, CallTimeout: 2 * time.Second}
	mgrs, stores, rings := h.bootRing(peers, cfg)
	waitRep(t, 5*time.Second, "successors", func() bool { return len(rings[0].Successors()) >= peers-1 })
	r := &protoRig{t: t, h: h, origin: mgrs[0], store: stores[0], sets: make(map[uint64]map[keyspace.Key]string)}
	succs := rings[0].Successors()
	for _, s := range succs[:k] {
		r.holders = append(r.holders, h.mgrs[s.Addr])
	}
	if len(succs) > k {
		r.far = h.mgrs[succs[k].Addr]
	}
	return r
}

func (r *protoRig) put(k uint64, payload string) {
	r.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := insertAt(ctx, r.h, r.store, datastore.Item{Key: keyspace.Key(k), Payload: payload}); err != nil {
		r.t.Fatal(err)
	}
}

func (r *protoRig) del(k uint64) {
	r.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := deleteAt(ctx, r.h, r.store, keyspace.Key(k)); err != nil {
		r.t.Fatal(err)
	}
}

// refresh runs one origin refresh and checks the invariant at every holder.
func (r *protoRig) refresh() {
	r.t.Helper()
	r.origin.RefreshOnce()
	r.origin.pushMu.Lock()
	set := make(map[keyspace.Key]string, len(r.origin.origin.set))
	for k, rep := range r.origin.origin.set {
		set[k] = rep.Payload
	}
	r.sets[r.origin.origin.version] = set
	r.origin.pushMu.Unlock()
	r.checkInvariant()
}

func (r *protoRig) checkInvariant() {
	r.t.Helper()
	for _, hm := range r.h.mgrs {
		hm.mu.Lock()
		a, ok := hm.adverts[r.store.Addr()]
		if ok && a.Version != 0 {
			want, known := r.sets[a.Version]
			if !known {
				r.t.Errorf("holder %s records version %d the origin never reached", hm.ring.Self().Addr, a.Version)
			}
			got := make(map[keyspace.Key]string)
			for k, rep := range hm.replicas {
				if a.Range.Contains(k) {
					got[k] = rep.Payload
				}
			}
			if len(got) != len(want) {
				r.t.Errorf("holder %s at version %d holds %d replicas in %v, origin's set had %d",
					hm.ring.Self().Addr, a.Version, len(got), a.Range, len(want))
			}
			for k, p := range want {
				if gp, ok := got[k]; !ok || gp != p {
					r.t.Errorf("holder %s at version %d: key %d = %q (held %v), origin's set had %q",
						hm.ring.Self().Addr, a.Version, k, gp, ok, p)
				}
			}
		}
		hm.mu.Unlock()
	}
}

// version is the version a holder records for the origin (0 = none).
func (r *protoRig) version(holder *Manager) uint64 {
	holder.mu.Lock()
	defer holder.mu.Unlock()
	return holder.adverts[r.store.Addr()].Version
}

func journaled(m *Manager) uint64 { return m.backend.Stats().Records }

// pushCounts is a snapshot of the origin's per-shape push counters.
type pushCounts struct{ delta, heartbeat, full, needFull uint64 }

func (r *protoRig) counts() pushCounts {
	return pushCounts{r.origin.DeltaPushes.Load(), r.origin.HeartbeatPushes.Load(), r.origin.FullPushes.Load(), r.origin.NeedFulls.Load()}
}

func (c pushCounts) minus(b pushCounts) pushCounts {
	return pushCounts{c.delta - b.delta, c.heartbeat - b.heartbeat, c.full - b.full, c.needFull - b.needFull}
}

// Steady state: after the first (full) push, every mutation costs each holder
// exactly one journaled replica record, carried by a delta; a refresh with
// nothing to say is a heartbeat and journals nothing.
func TestSteadyStateJournalsOneRecordPerMutationPerHolder(t *testing.T) {
	r := bootProto(t, newRepHarness(t), 4, 2)
	for k := uint64(10); k < 20; k++ {
		r.put(k, "v1")
	}
	r.refresh()
	if c := r.counts(); c != (pushCounts{full: 2}) {
		t.Fatalf("first refresh sent %+v, want 2 full pushes", c)
	}
	for _, hm := range r.holders {
		if got := journaled(hm); got != 10 {
			t.Fatalf("holder journaled %d records for the first full push, want 10", got)
		}
	}

	mutations := []func(){
		func() { r.put(50, "new") },
		func() { r.put(12, "v2") }, // payload change of a held key
		func() { r.del(13) },
		func() { r.put(13, "back") },
		func() { r.del(50) },
	}
	for i, mutate := range mutations {
		before, recs := r.counts(), []uint64{journaled(r.holders[0]), journaled(r.holders[1])}
		mutate()
		r.refresh()
		if d := r.counts().minus(before); d != (pushCounts{delta: 2}) {
			t.Fatalf("mutation %d: refresh sent %+v, want 2 deltas", i, d)
		}
		for j, hm := range r.holders {
			if got := journaled(hm) - recs[j]; got != 1 {
				t.Fatalf("mutation %d: holder %d journaled %d records, want exactly 1", i, j, got)
			}
			if got, want := hm.ReplicaRecords.Load(), journaled(hm); got != want {
				t.Fatalf("ReplicaRecords = %d, backend counted %d", got, want)
			}
		}
	}

	before, recs := r.counts(), []uint64{journaled(r.holders[0]), journaled(r.holders[1])}
	for i := 0; i < 3; i++ {
		r.refresh()
	}
	if d := r.counts().minus(before); d != (pushCounts{heartbeat: 6}) {
		t.Fatalf("idle refreshes sent %+v, want 6 heartbeats", d)
	}
	for j, hm := range r.holders {
		if got := journaled(hm) - recs[j]; got != 0 {
			t.Fatalf("holder %d journaled %d records on heartbeats, want 0", j, got)
		}
		if got := hm.ReplicaCount(); got != 10 {
			t.Fatalf("holder %d holds %d replicas, want 10", j, got)
		}
	}
	if got := r.far.ReplicaCount(); got != 0 {
		t.Fatalf("a peer beyond k holds %d replicas", got)
	}
}

// A delta the network drops leaves the origin not knowing what the holder
// has, so the next push to it is the full set — which journals only the
// change the holder missed. A delta that reaches a holder lacking its base is
// answered NeedFull and touches nothing.
func TestDroppedDeltaIsRepairedByFullPush(t *testing.T) {
	var cut atomic.Value // transport.Addr no push reaches
	cut.Store(transport.Addr(""))
	h := newRepHarnessNet(t, simnet.Config{DeadCallDelay: time.Millisecond, Seed: 5,
		Fault: func(m simnet.Msg) simnet.Verdict {
			if m.Method == methodPush.Name() && m.To == cut.Load().(transport.Addr) {
				return simnet.Lose
			}
			return simnet.Deliver
		}})
	r := bootProto(t, h, 3, 2)
	r.put(10, "a")
	r.put(11, "b")
	r.refresh()

	lagging := r.holders[0]
	cut.Store(lagging.ring.Self().Addr)
	r.put(12, "c")
	r.refresh() // the delta to the lagging holder is dropped
	cut.Store(transport.Addr(""))
	if got := lagging.ReplicaCount(); got != 2 {
		t.Fatalf("cut-off holder has %d replicas, want the 2 it had", got)
	}
	if got := r.holders[1].ReplicaCount(); got != 3 {
		t.Fatalf("reachable holder has %d replicas, want 3", got)
	}

	r.put(13, "d")
	before, recs := r.counts(), journaled(lagging)
	r.refresh()
	if d := r.counts().minus(before); d != (pushCounts{delta: 1, full: 1}) {
		t.Fatalf("repair refresh sent %+v, want one delta and one full push", d)
	}
	if got := journaled(lagging) - recs; got != 2 {
		t.Fatalf("full push journaled %d records at the lagging holder, want the 2 it missed", got)
	}
	for _, hm := range r.holders {
		if got, want := r.version(hm), r.origin.origin.version; got != want {
			t.Fatalf("holder records version %d, origin is at %d", got, want)
		}
	}

	// A delta onto a base the holder does not record: NeedFull, untouched.
	rng, epoch, _ := r.store.RangeEpoch()
	recs = journaled(lagging)
	resp, err := lagging.handlePush(r.store.Addr(), pushMsg{
		From: r.origin.ring.Self(), Range: rng, Epoch: epoch,
		Base: 9000, Version: 9001, Items: []datastore.Item{{Key: 14, Payload: "e"}}, Count: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pr := resp; !pr.NeedFull || pr.Deposed {
		t.Fatalf("delta onto an unknown base answered %+v, want NeedFull", pr)
	}
	if journaled(lagging) != recs || lagging.ReplicaCount() != 4 {
		t.Fatal("a delta onto an unknown base was applied")
	}
	if got, want := r.version(lagging), r.origin.origin.version; got != want {
		t.Fatalf("refused delta changed the recorded version to %d, want %d", got, want)
	}
}

// A push that lands but whose reply is lost: the origin cannot tell, so its
// next push to that holder is the full set — and because the holder diffs
// before journaling, that full push writes nothing.
func TestLostReplyIsFollowedByFullPushThatJournalsNothing(t *testing.T) {
	var lose atomic.Bool
	h := newRepHarness(t)
	h.loseReply = func(_ transport.Addr, method string) bool { return method == methodPush.Name() && lose.Load() }
	r := bootProto(t, h, 2, 1)
	r.put(10, "a")
	r.refresh()
	holder := r.holders[0]

	lose.Store(true)
	r.put(11, "b")
	recs := journaled(holder)
	r.refresh() // the delta is applied; its acknowledgement never arrives
	lose.Store(false)
	if got := journaled(holder) - recs; got != 1 {
		t.Fatalf("the delta whose reply was lost journaled %d records, want 1", got)
	}

	before, recs := r.counts(), journaled(holder)
	r.refresh()
	if d := r.counts().minus(before); d != (pushCounts{full: 1}) {
		t.Fatalf("refresh after a lost reply sent %+v, want one full push", d)
	}
	if got := journaled(holder) - recs; got != 0 {
		t.Fatalf("full push onto an up-to-date holder journaled %d records, want 0", got)
	}
	before = r.counts()
	r.refresh()
	if d := r.counts().minus(before); d != (pushCounts{heartbeat: 1}) {
		t.Fatalf("refresh after the repair sent %+v, want a heartbeat", d)
	}
}

// A holder that crashes and recovers its replicas from the WAL has lost the
// version it recorded: it answers the origin's next push NeedFull, the full
// set follows in the same refresh, and — the replicas having survived —
// nothing is journaled, neither by the recovery nor by the full push.
func TestHolderRestartFromWALConvergesWithoutRewriting(t *testing.T) {
	r := bootProto(t, newRepHarness(t), 2, 1)
	holder := r.holders[0]
	dir := t.TempDir()
	disk, err := storage.OpenDisk(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	holder.SetBackend(disk)
	for k := uint64(10); k < 15; k++ {
		r.put(k, "v")
	}
	r.refresh()
	r.del(10)
	r.refresh()

	// kill -9 and restart: the old backend is abandoned unclosed, the
	// directory reopened, and a manager with empty tables restored from it.
	reopened, err := storage.OpenDisk(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reopened.Close() })
	st, err := reopened.Load()
	if err != nil {
		t.Fatal(err)
	}
	var recovered []datastore.Item
	for k, p := range st.Replicas {
		recovered = append(recovered, datastore.Item{Key: k, Payload: p})
	}
	if len(recovered) != 4 {
		t.Fatalf("WAL recovered %d replicas, want 4", len(recovered))
	}
	holder.mu.Lock()
	holder.replicas = make(map[keyspace.Key]replica)
	holder.adverts = make(map[transport.Addr]advert)
	holder.sums = make(map[transport.Addr]*heldSum)
	holder.mu.Unlock()
	holder.SetBackend(reopened)
	recs := journaled(holder)
	holder.RestoreReplicas(recovered)
	if got := journaled(holder) - recs; got != 0 {
		t.Fatalf("RestoreReplicas re-journaled %d recovered replicas", got)
	}

	before := r.counts()
	r.refresh()
	if d := r.counts().minus(before); d != (pushCounts{heartbeat: 1, needFull: 1, full: 1}) {
		t.Fatalf("refresh onto a restarted holder sent %+v, want heartbeat, NeedFull, full", d)
	}
	if got := journaled(holder) - recs; got != 0 {
		t.Fatalf("full push onto the recovered replicas journaled %d records, want 0", got)
	}
	if got, want := r.version(holder), r.origin.origin.version; got != want {
		t.Fatalf("restarted holder records version %d, origin is at %d", got, want)
	}
}

// The three things that make what a successor holds unknowable — a new
// (range, epoch) by epoch bump, by range change, and a successor that was not
// pushed to before — each force a full push, and none of them rewrites
// replicas the holder already has.
func TestNewIncarnationOrSuccessorForcesFullPush(t *testing.T) {
	h := newRepHarness(t)
	r := bootProto(t, h, 3, 1)
	r.put(50, "a")
	r.put(60, "b")
	r.refresh()
	holder := r.holders[0]

	_, epoch, _ := r.store.RangeEpoch()
	r.store.SetEpochForTesting(epoch + 1)
	before, recs := r.counts(), journaled(holder)
	r.refresh()
	if d := r.counts().minus(before); d != (pushCounts{full: 1}) {
		t.Fatalf("refresh after an epoch bump sent %+v, want one full push", d)
	}
	if _, got, _, _ := holder.AdvertInfo(r.store.Addr()); got != epoch+1 {
		t.Fatalf("holder's advert epoch = %d, want %d", got, epoch+1)
	}

	rng, _ := r.store.Range()
	r.store.SetRangeForTesting(keyspace.NewRange(rng.Lo+5, rng.Hi))
	before = r.counts()
	r.refresh()
	if d := r.counts().minus(before); d != (pushCounts{full: 1}) {
		t.Fatalf("refresh after a range change sent %+v, want one full push", d)
	}
	if got := journaled(holder) - recs; got != 0 {
		t.Fatalf("new incarnations with unchanged items journaled %d records, want 0", got)
	}

	// The holder dies; the ring's next successor takes its place.
	h.net.Kill(holder.ring.Self().Addr)
	next := r.far
	waitRep(t, 5*time.Second, "ring repair", func() bool {
		s := r.origin.ring.Successors()
		return len(s) > 0 && s[0].Addr == next.ring.Self().Addr
	})
	before = r.counts()
	r.refresh()
	if d := r.counts().minus(before); d != (pushCounts{full: 1}) {
		t.Fatalf("refresh to a new successor sent %+v, want one full push", d)
	}
	if got := next.ReplicaCount(); got != 2 {
		t.Fatalf("new successor holds %d replicas, want 2", got)
	}
}

// A key merged into a holder behind the origin's back (what a departing
// peer's raw held-replica merge can leave) breaks the count+digest check of
// the next heartbeat: the holder forgets its version, answers NeedFull, and
// the full push that follows reconciles the key away.
func TestStaleMergedKeyIsRemovedOnNextHeartbeat(t *testing.T) {
	r := bootProto(t, newRepHarness(t), 3, 2)
	r.put(50, "a")
	r.put(60, "b")
	r.refresh()
	holder := r.holders[0]

	// The raw merge of BeforeLeave: epoch 0, puts only, nothing reconciled.
	stale := pushMsg{From: r.holders[1].ring.Self(), Items: []datastore.Item{{Key: 70, Payload: "deleted long ago"}}}
	if _, err := holder.handlePush(stale.From.Addr, stale); err != nil {
		t.Fatal(err)
	}
	if got := holder.ReplicaCount(); got != 3 {
		t.Fatalf("raw merge left %d replicas, want 3", got)
	}

	before, recs := r.counts(), journaled(holder)
	r.refresh()
	if d := r.counts().minus(before); d != (pushCounts{heartbeat: 2, needFull: 1, full: 1}) {
		t.Fatalf("refresh over a stale key sent %+v, want 2 heartbeats, one NeedFull, one full", d)
	}
	if got := holder.ReplicaCount(); got != 2 {
		t.Fatalf("holder has %d replicas after the repair, want 2", got)
	}
	if got := journaled(holder) - recs; got != 1 {
		t.Fatalf("repair journaled %d records, want the one delete", got)
	}
}

// BeforeLeave hands every held replica one hop further as ONE raw merge, not
// one stream per replica.
func TestBeforeLeaveSendsHeldReplicasAsOnePush(t *testing.T) {
	h := newRepHarness(t)
	r := bootProto(t, h, 4, 1)
	leaver := r.holders[0]
	for k := uint64(10); k < 30; k++ {
		r.put(k, "v")
	}
	r.refresh() // the leaver now holds 20 replicas of the origin
	if got := leaver.ReplicaCount(); got != 20 {
		t.Fatalf("leaver holds %d replicas, want 20", got)
	}
	pushes := func() uint64 { return h.net.Stats().ByMethod[methodPush.Name()] }
	before := pushes()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := leaver.BeforeLeave(ctx); err != nil {
		t.Fatal(err)
	}
	// One raw merge of the held replicas plus the leaver's own refresh to its
	// k+1 = 2 successors.
	if got := pushes() - before; got != 3 {
		t.Fatalf("BeforeLeave made %d pushes, want 3", got)
	}
	next := h.mgrs[leaver.ring.Successors()[0].Addr]
	if got := next.ReplicaCount(); got != 20 {
		t.Fatalf("the leaver's successor holds %d replicas, want the 20 handed on", got)
	}
}

// A heartbeat alone is lease-renewal evidence on both sides — the origin's
// lease clock restarts and the holder's advert clock advances — and an origin
// whose heartbeats all fail stops renewing, so its lease lapses.
func TestHeartbeatRenewsLeaseAndFailedHeartbeatsLetItLapse(t *testing.T) {
	const lease = 60 * time.Millisecond
	var wedged atomic.Bool
	h := newRepHarnessNet(t, simnet.Config{DeadCallDelay: time.Millisecond, Seed: 5,
		Fault: func(m simnet.Msg) simnet.Verdict {
			if wedged.Load() && m.Method == methodPush.Name() {
				return simnet.Lose
			}
			return simnet.Deliver
		}})
	h.lease = lease
	r := bootProto(t, h, 2, 1)
	r.put(50, "a")
	r.refresh()
	holder := r.holders[0]

	_, _, stamped, _ := holder.AdvertInfo(r.store.Addr())
	before := r.counts()
	time.Sleep(2 * time.Millisecond) // let the clock move past the last stamp
	start := time.Now()
	r.refresh()
	if d := r.counts().minus(before); d != (pushCounts{heartbeat: 1}) {
		t.Fatalf("idle refresh sent %+v, want one heartbeat", d)
	}
	// Renewed at or after start, the lease is no older than the time since.
	if _, age, expired := r.store.LeaseInfo(); expired || age > time.Since(start) {
		t.Fatalf("origin's lease is %v old (expired %v) after an acknowledged heartbeat, want it renewed by the heartbeat", age, expired)
	}
	if _, _, at, _ := holder.AdvertInfo(r.store.Addr()); !at.After(stamped) {
		t.Fatal("heartbeat did not advance the holder's renewal stamp for the origin")
	}

	// Healthy heartbeats keep the lease live past its duration...
	deadline := time.Now().Add(lease + lease/2)
	for time.Now().Before(deadline) {
		r.refresh()
		time.Sleep(5 * time.Millisecond)
	}
	if _, _, expired := r.store.LeaseInfo(); expired {
		t.Fatal("lease lapsed although every heartbeat was acknowledged")
	}
	// ...and the same span of failing ones lets it lapse.
	wedged.Store(true)
	start = time.Now()
	deadline = start.Add(lease + lease/2)
	for time.Now().Before(deadline) {
		r.refresh()
		time.Sleep(5 * time.Millisecond)
	}
	// Not renewed since start, the lease is older than the time since.
	since := time.Since(start)
	if _, age, _ := r.store.LeaseInfo(); age < since {
		t.Fatalf("origin's lease is %v old %v after its heartbeats began to fail, want no renewal since", age, since)
	}
	if _, _, expired := r.store.LeaseInfo(); !expired {
		t.Fatal("lease still live although no heartbeat landed for longer than its duration")
	}
}
