package scan

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/ring"
	"repro/internal/routecache"
	"repro/internal/transport"
)

// mutation records one insert or delete the planner issued.
type mutation struct {
	to     transport.Addr
	insert bool
	key    keyspace.Key
	epoch  uint64
}

func (m mutation) String() string { return fmt.Sprintf("%s@%d", m.to, m.epoch) }

// mutate answers an insert or delete the way the Data Store's handler does:
// ownership first, then the epoch fence, then the owner's metadata — and, for
// a delete, whether the scripted ring stores the key (see keysIn).
func (n *fakeNet) mutate(to transport.Addr, req reflect.Value) *transport.Pending {
	m := &mutation{to: to, epoch: req.FieldByName("Epoch").Uint()}
	if item := req.FieldByName("Item"); item.IsValid() {
		m.insert, m.key = true, item.Interface().(datastore.Item).Key
	} else {
		m.key = req.FieldByName("Key").Interface().(keyspace.Key)
	}
	n.mutations = append(n.mutations, m)

	pend := transport.NewPending()
	p := n.peers[to]
	switch {
	case p == nil || p.dead:
		pend.Resolve(nil, fmt.Errorf("fake: %s: %w", to, transport.ErrUnreachable))
	case p.mutErr != nil:
		pend.Resolve(nil, p.mutErr)
	case p.disclaims || !p.rng.Contains(m.key):
		pend.Resolve(nil, datastore.ErrNotOwner)
	case m.epoch != 0 && m.epoch != p.epoch:
		pend.Resolve(nil, fmt.Errorf("%w: request epoch %d, serving epoch %d", datastore.ErrStaleEpoch, m.epoch, p.epoch))
	default:
		name := "datastore.deleteResp"
		if m.insert {
			name = "datastore.insertResp"
		}
		pend.Resolve(wireReply(name, func(v reflect.Value) {
			v.FieldByName("OwnerMeta").Set(reflect.ValueOf(datastore.OwnerMeta{Range: p.rng, Epoch: p.epoch, Chain: p.chain}))
			if !m.insert {
				v.FieldByName("Found").SetBool(len(keysIn(keyspace.ClosedInterval(m.key, m.key))) == 1)
			}
		}), nil)
	}
	return pend
}

// wireReply builds a value of the registered wire type called name — the
// reply types are unexported, their exported fields are the protocol — and
// lets fill set those fields.
func wireReply(name string, fill func(reflect.Value)) any {
	for _, sample := range transport.RegisteredMessages() {
		if fmt.Sprintf("%T", sample) == name {
			v := reflect.New(reflect.TypeOf(sample)).Elem()
			fill(v)
			return v.Interface()
		}
	}
	panic("fake: no registered wire type " + name)
}

func (n *fakeNet) issued() []string {
	var out []string
	for _, m := range n.mutations {
		out = append(out, m.String())
	}
	return out
}

// One table for insert and delete: every case runs both, and expects the
// same routing behaviour from each. The ring is p0 (300,100], p1 (100,200],
// p2 (200,300] at epochs 1, 2, 3; the key under test is 180 (stored) unless
// the case says otherwise.
func TestMutationAttempt(t *testing.T) {
	type want struct {
		err         error // matched with errors.Is; nil = success
		stale       bool
		issued      []string // "owner@epoch" of every call so far
		invalidated []transport.Addr
		lookups     int
	}
	cases := []struct {
		name  string
		key   keyspace.Key // 0 = 180
		setup func(n *fakeNet, r *fakeRoutes)
		first want
		// again, when set, is a second attempt on the same routes: what the
		// caller's retry sees.
		again *want
		// learned is the route the cache must hold for the key afterwards.
		learned *routecache.Entry
	}{
		{
			name:  "warm hint: one call, stamped with the hint's epoch",
			setup: func(n *fakeNet, r *fakeRoutes) { r.learn("p1") },
			first: want{issued: []string{"p1@2"}},
		},
		{
			name:  "unranged route goes unfenced",
			setup: func(n *fakeNet, r *fakeRoutes) { r.addrOnly = true },
			first: want{issued: []string{"p1@0"}, lookups: 1},
			// The lookup taught the cache nothing: range, epoch and chain
			// below all come from the mutation's reply.
			learned: &routecache.Entry{Range: keyspace.NewRange(100, 200), Addr: "p1", Epoch: 2, Replicas: []transport.Addr{"p2", "p0"}},
		},
		{
			name: "ErrNotOwner drops the route; the next attempt re-resolves",
			setup: func(n *fakeNet, r *fakeRoutes) {
				r.learn("p1")
				n.peers["p1"].rng = keyspace.NewRange(100, 150) // a split moved the boundary
				n.peers["p2"].rng = keyspace.NewRange(150, 300)
			},
			first: want{err: datastore.ErrNotOwner, stale: true, issued: []string{"p1@2"}, invalidated: []transport.Addr{"p1"}},
			again: &want{issued: []string{"p1@2", "p2@3"}, invalidated: []transport.Addr{"p1"}, lookups: 1},
		},
		{
			name: "ErrStaleEpoch drops the route; the next attempt re-resolves",
			setup: func(n *fakeNet, r *fakeRoutes) {
				r.learn("p1")
				n.peers["p1"].epoch = 9 // a hand-off re-claimed the range
			},
			first: want{err: datastore.ErrStaleEpoch, stale: true, issued: []string{"p1@2"}, invalidated: []transport.Addr{"p1"}},
			again: &want{issued: []string{"p1@2", "p1@9"}, invalidated: []transport.Addr{"p1"}, lookups: 1},
		},
		{
			name: "ErrUnreachable drops the route but is not a stale route",
			setup: func(n *fakeNet, r *fakeRoutes) {
				r.learn("p1")
				n.peers["p1"].dead = true
			},
			first: want{err: transport.ErrUnreachable, issued: []string{"p1@2"}, invalidated: []transport.Addr{"p1"}},
		},
		{
			name: "ErrLockBusy keeps the route",
			setup: func(n *fakeNet, r *fakeRoutes) {
				r.learn("p1")
				n.peers["p1"].mutErr = datastore.ErrLockBusy
			},
			first: want{err: datastore.ErrLockBusy, issued: []string{"p1@2"}},
			again: &want{err: datastore.ErrLockBusy, issued: []string{"p1@2", "p1@2"}},
		},
		{
			name: "a refused write-ahead append keeps the route",
			setup: func(n *fakeNet, r *fakeRoutes) {
				r.learn("p1")
				n.peers["p1"].mutErr = errDiskFull
			},
			first: want{err: errDiskFull, issued: []string{"p1@2"}},
		},
		{
			name:  "cold cache: a full lookup, then one fenced call",
			first: want{issued: []string{"p1@2"}, lookups: 1},
		},
		{
			name:  "a key the ring does not store",
			key:   185,
			setup: func(n *fakeNet, r *fakeRoutes) { r.learn("p1") },
			first: want{issued: []string{"p1@2"}},
		},
	}
	for _, c := range cases {
		for _, op := range []string{"insert", "delete"} {
			t.Run(op+"/"+c.name, func(t *testing.T) {
				n := newRing(2, 100, 200, 300)
				r := newRoutes(n)
				if c.setup != nil {
					c.setup(n, r)
				}
				key := c.key
				if key == 0 {
					key = 180
				}
				pl := planner(n, r, 1, false)
				attempt := func(w want) {
					t.Helper()
					var found, stale bool
					var err error
					if op == "insert" {
						stale, err = pl.InsertAttempt(context.Background(), datastore.Item{Key: key})
					} else {
						found, stale, err = pl.DeleteAttempt(context.Background(), key)
					}
					if !errors.Is(err, w.err) { // a nil want matches only success
						t.Fatalf("err = %v, want %v", err, w.err)
					}
					wantEqual(t, "stale route", stale, w.stale)
					wantEqual(t, "issued", n.issued(), w.issued)
					wantEqual(t, "invalidated", r.invalidated, w.invalidated)
					wantEqual(t, "lookups", len(r.lookups), w.lookups)
					for _, m := range n.mutations {
						if m.insert != (op == "insert") || m.key != key {
							t.Errorf("issued %+v, want a %s of %d", *m, op, key)
						}
					}
					if op == "delete" {
						wantEqual(t, "found", found, err == nil && key%10 == 0)
					}
				}
				attempt(c.first)
				if c.again != nil {
					attempt(*c.again)
				}
				if c.learned != nil {
					ent, ok := r.cache.Lookup(key)
					if !ok {
						t.Fatal("nothing learned from the reply")
					}
					wantEqual(t, "learned route", ent, *c.learned)
				}
			})
		}
	}
}

var errDiskFull = errors.New("storage: WAL write: disk full")

// An attempt whose context is already done issues nothing and touches no
// route: the caller's retry loop, not a transport error, ends the operation.
func TestMutationAttemptExpiredContext(t *testing.T) {
	n := newRing(2, 100, 200, 300)
	r := newRoutes(n)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pl := planner(n, r, 1, false)
	if _, err := pl.InsertAttempt(ctx, datastore.Item{Key: 180}); !errors.Is(err, context.Canceled) {
		t.Errorf("insert err = %v, want context.Canceled", err)
	}
	if _, _, err := pl.DeleteAttempt(ctx, 180); !errors.Is(err, context.Canceled) {
		t.Errorf("delete err = %v, want context.Canceled", err)
	}
	wantEqual(t, "issued", n.issued(), []string(nil))
	wantEqual(t, "lookups", len(r.lookups), 0)
	wantEqual(t, "invalidated", r.invalidated, []transport.Addr(nil))
}

// A success teaches the routes what the reply said, not what the hint said:
// the owner's range shrank since the hint was learned.
func TestMutationLearnsFromReply(t *testing.T) {
	n := newRing(2, 100, 200, 300)
	r := newRoutes(n)
	r.learn("p1")
	n.peers["p1"].rng = keyspace.NewRange(150, 200) // same epoch: the fake does not model the bump
	n.peers["p1"].chain = []ring.Node{{Addr: "p2", Val: 300}}
	if _, err := planner(n, r, 1, false).InsertAttempt(context.Background(), datastore.Item{Key: 180}); err != nil {
		t.Fatal(err)
	}
	ent, _ := r.cache.Lookup(180)
	wantEqual(t, "learned route", ent, routecache.Entry{Range: keyspace.NewRange(150, 200), Addr: "p1", Epoch: 2, Replicas: []transport.Addr{"p2"}})
}
