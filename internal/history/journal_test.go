package history

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/keyspace"
)

// Every event kind, interleaved over more than two chunks and many peer
// names, comes back from Events() exactly as a hand-built reference journal.
func TestJournalRoundTripsEveryKindAcrossChunks(t *testing.T) {
	l := NewLog()
	var want []Event
	var seq Seq
	at := func(ev Event) {
		seq++
		ev.Seq = seq
		want = append(want, ev)
	}
	for i := 0; len(want) < 2*chunkLen+300; i++ {
		p, q := fmt.Sprintf("peer-%d", i%37), fmt.Sprintf("peer-%d", (i+5)%41)
		key := keyspace.Key(i*7919 + 3)
		r := keyspace.NewRange(key, key+100)
		epoch := uint64(i + 1)
		switch i % 10 {
		case 0:
			l.Added(p, key)
			at(Event{Kind: ItemAdded, Key: key, Peer: p})
		case 1:
			l.Removed(p, key)
			at(Event{Kind: ItemRemoved, Key: key, Peer: p})
		case 2:
			l.Moved(p, q, key)
			at(Event{Kind: ItemMoved, Key: key, Peer: q, From: p})
		case 3:
			l.Failed(p)
			at(Event{Kind: PeerFailed, Peer: p})
		case 4:
			l.Claimed(p, r, epoch)
			at(Event{Kind: RangeClaimed, Peer: p, Lo: r.Lo, Hi: r.Hi, Epoch: epoch})
		case 5:
			l.RecoveredClaim(p, r, epoch)
			at(Event{Kind: RangeClaimed, Peer: p, Lo: r.Lo, Hi: r.Hi, Epoch: epoch, Recovered: true})
		case 6:
			l.LeaseGranted(p, r, epoch)
			at(Event{Kind: LeaseGranted, Peer: p, Lo: r.Lo, Hi: r.Hi, Epoch: epoch})
		case 7:
			l.LeaseExpired(p, q, r, epoch)
			at(Event{Kind: LeaseExpired, Peer: p, From: q, Lo: r.Lo, Hi: r.Hi, Epoch: epoch})
		case 8:
			l.LeaseReleased(p, r, epoch)
			at(Event{Kind: LeaseReleased, Peer: p, Lo: r.Lo, Hi: r.Hi, Epoch: epoch})
		case 9:
			l.LeaseHandoff(p, q, r, epoch)
			at(Event{Kind: LeaseHandoff, Peer: p, From: q, Lo: r.Lo, Hi: r.Hi, Epoch: epoch})
		}
		if i%4 == 0 { // an item event by the empty name, and its move back
			l.Added("", key+1)
			at(Event{Kind: ItemAdded, Key: key + 1})
			l.Moved("", p, key+1)
			at(Event{Kind: ItemMoved, Key: key + 1, Peer: p})
		}
	}
	if got := l.Len(); got != len(want) {
		t.Fatalf("Len() = %d, want %d", got, len(want))
	}
	got := l.Events()
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("%d events, want %d; first difference at %d: got %+v, want %+v", len(got), len(want), i, got[min(i, len(got)-1)], want[i])
			}
		}
		t.Fatalf("%d events, want %d", len(got), len(want))
	}
	var walked []Event
	for ev := range l.all() {
		walked = append(walked, ev)
	}
	if !reflect.DeepEqual(walked, want) {
		t.Fatal("walking the journal in place differs from Events()")
	}
}

// A per-mutation event is a 32-byte pointer-free record: 100k appends grow
// the live heap by at most 36 B each and allocate at most 40 B each.
func TestJournalFootprintPerEvent(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size > 32 {
		t.Errorf("record is %d bytes, want at most 32", size)
	}
	if path := pointerIn(reflect.TypeOf(record{}), "record"); path != "" {
		t.Errorf("record holds a pointer at %s: the collector would scan every chunk", path)
	}

	const appends = 100_000
	peers := []string{"peer-0", "peer-1", "peer-2", "peer-3", "peer-4", "peer-5", "peer-6", "peer-7"}
	l := NewLog()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < appends; i++ {
		switch i % 3 {
		case 0:
			l.Added(peers[i%len(peers)], keyspace.Key(i))
		case 1:
			l.Moved(peers[i%len(peers)], peers[(i+1)%len(peers)], keyspace.Key(i))
		case 2:
			l.Removed(peers[i%len(peers)], keyspace.Key(i))
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(l)

	live := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / appends
	alloc := float64(after.TotalAlloc-before.TotalAlloc) / appends
	t.Logf("live heap %.1f B/event, allocated %.1f B/append, Bytes() %d", live, alloc, l.Bytes())
	if live > 36 {
		t.Errorf("live heap grew %.1f B per event, want at most 36", live)
	}
	if alloc > 40 {
		t.Errorf("an append allocated %.1f B amortized, want at most 40", alloc)
	}
	if b := l.Bytes(); b < 32*appends || b > 36*appends {
		t.Errorf("Bytes() = %d for %d events, want 32–36 B each", b, appends)
	}
}

// pointerIn returns the path of the first pointer-carrying field inside t,
// or "" when t holds none.
func pointerIn(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerIn(t.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	default:
		return path + " (" + t.Kind().String() + ")"
	}
}

// Appenders on every CPU race readers of the whole journal: each reader sees
// a prefix in strict seq order, whatever chunk the appenders are filling.
func TestJournalConcurrentAppendsAndReads(t *testing.T) {
	l := NewLog()
	writers := runtime.NumCPU()
	const perWriter = 3000
	var wg, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			peer := fmt.Sprintf("p%d", w)
			for i := 0; i < perWriter; i++ {
				key := keyspace.Key(w*perWriter + i)
				l.Added(peer, key)
				switch i % 50 {
				case 0:
					l.Claimed(peer, keyspace.NewRange(key, key+1), uint64(i))
				case 1:
					id, start := l.BeginQuery(keyspace.ClosedInterval(key, key))
					l.EndQuery(id, keyspace.ClosedInterval(key, key), start, []keyspace.Key{key})
				case 2:
					l.Moved(peer, fmt.Sprintf("p%d", (w+1)%writers), key)
				}
			}
		}(w)
	}
	read := func(check func() error) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := check(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	read(func() error {
		evs := l.Events()
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq <= evs[i-1].Seq {
				return fmt.Errorf("Events() out of order at %d: seq %d after %d", i, evs[i].Seq, evs[i-1].Seq)
			}
		}
		return nil
	})
	last := 0
	read(func() error {
		n := l.Len()
		if n < last {
			return fmt.Errorf("Len() fell from %d to %d", last, n)
		}
		last = n
		return nil
	})
	read(func() error {
		if v := l.CheckAllQueries(); len(v) != 0 {
			return fmt.Errorf("audit of a concurrent journal: %v", v[0])
		}
		return nil
	})
	wg.Wait()
	close(done)
	readers.Wait()
	if got, want := l.Len(), len(l.Events()); got != want {
		t.Fatalf("Len() = %d, Events() has %d", got, want)
	}
	if v := l.CheckAllQueries(); len(v) != 0 {
		t.Fatalf("final audit: %v", v)
	}
}

// BenchmarkLogAppend measures one per-mutation append into a journal that
// already holds 1M events, the size a busy peer reaches: ns/op and B/op.
func BenchmarkLogAppend(b *testing.B) {
	l := NewLog()
	for i := 0; i < 1_000_000; i++ {
		l.Added("peer-1", keyspace.Key(i))
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		l.Added("peer-1", keyspace.Key(i))
		i++
	}
}
