package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/storage"
)

// The oracle checks Definition 4 from outside: the harness is the only
// writer, so it knows for every key when it was certainly live, when it may
// have been live, and when it was certainly not. A query result must be
// strictly ascending, inside the interval, carry the payload derived from
// each key, contain every key that was live throughout the query, and
// contain nothing that was live at no point during it.

// never marks an unset instant in a key's life.
const never = int64(-1)

// life is the history of one run-inserted key; instants are nanoseconds on
// the oracle's clock. The key MAY be live from insStart (the insert was sent)
// and IS live from insAck; it may be dead from delStart and is dead from
// delAck. A key whose mutation failed, or whose acknowledgement a fail-stop
// may have outrun replication of, is unsure from then on: it may or may not
// be present, and no result is wrong either way.
type life struct {
	key                                keyspace.Key
	insStart, insAck, delStart, delAck int64
	unsure                             bool
}

// liveThroughout reports whether the key was certainly live during [qs, qe].
func (l *life) liveThroughout(qs, qe int64) bool {
	return !l.unsure && l.insAck != never && l.insAck <= qs && (l.delStart == never || l.delStart >= qe)
}

// maybeLive reports whether the key may have been live at some instant of
// [qs, qe].
func (l *life) maybeLive(qs, qe int64) bool {
	if l.unsure {
		return true
	}
	return l.insStart <= qe && (l.delAck == never || l.delAck >= qs)
}

// bucketSpan groups run-inserted keys so that a narrow query consults two
// buckets at most.
const bucketSpan = narrowSpan

// oracle is the expected state of the index.
type oracle struct {
	epoch      time.Time
	preloadMax keyspace.Key // preload keys are keyStep·j up to this one

	mu      sync.Mutex
	lives   map[keyspace.Key]*life
	buckets map[uint64][]*life
	live    []*life // acknowledged inserts no delete was sent for yet, oldest first
}

func newOracle(peers int) *oracle {
	return &oracle{
		epoch:      time.Now(),
		preloadMax: keyspace.Key(peers * itemsPerPeer * keyStep),
		lives:      make(map[keyspace.Key]*life),
		buckets:    make(map[uint64][]*life),
	}
}

func (o *oracle) now() int64 { return int64(time.Since(o.epoch)) }

// isPreload reports whether k is one of the preloaded keys, which are live
// for the whole run.
func (o *oracle) isPreload(k keyspace.Key) bool {
	return k%keyStep == 0 && k >= keyStep && k <= o.preloadMax
}

// startInsert records that an insert of key is about to be sent.
func (o *oracle) startInsert(key keyspace.Key) *life {
	l := &life{key: key, insStart: o.now(), insAck: never, delStart: never, delAck: never}
	o.mu.Lock()
	o.lives[key] = l
	b := uint64(key) / bucketSpan
	o.buckets[b] = append(o.buckets[b], l)
	o.mu.Unlock()
	return l
}

// endInsert records the insert's outcome.
func (o *oracle) endInsert(l *life, err error) {
	o.mu.Lock()
	if err != nil {
		l.unsure = true
	} else {
		l.insAck = o.now()
		o.live = append(o.live, l)
	}
	o.mu.Unlock()
}

// startDelete picks the oldest live run-inserted key and records that its
// delete is about to be sent; nil when no run-inserted key is live.
func (o *oracle) startDelete() *life {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.live) == 0 {
		return nil
	}
	l := o.live[0]
	o.live = o.live[1:]
	l.delStart = o.now()
	return l
}

// endDelete records the delete's outcome.
func (o *oracle) endDelete(l *life, err error) {
	o.mu.Lock()
	if err != nil {
		l.unsure = true
	} else {
		l.delAck = o.now()
	}
	o.mu.Unlock()
}

// failStop is called when a peer is fail-stopped, after its sockets closed.
// Replication is asynchronous: the range is revived from the replicas its
// successor holds, so a mutation the victim acknowledged but had not yet
// pushed may legitimately be missing from the revived range (or a deleted key
// still be there). unreplicated names the keys on which the victim and its
// successor's replicas disagreed at that instant; those, and the keys with a
// mutation in flight, become unsure. It returns how many were affected.
func (o *oracle) failStop(rng keyspace.Range, unreplicated map[keyspace.Key]bool) int {
	n := 0
	o.mu.Lock()
	for _, l := range o.lives {
		if l.unsure || !rng.Contains(l.key) {
			continue
		}
		inFlight := l.insAck == never || (l.delStart != never && l.delAck == never)
		if inFlight || unreplicated[l.key] {
			l.unsure = true
			n++
		}
	}
	o.mu.Unlock()
	return n
}

// checkQuery returns what is wrong with the result of a query over iv that
// ran during [qs, qe]; an empty slice means the result is correct.
func (o *oracle) checkQuery(iv keyspace.Interval, qs, qe int64, items []datastore.Item) []string {
	var bad []string
	got := make(map[keyspace.Key]bool, len(items))
	preload := 0
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, it := range items {
		switch {
		case i > 0 && it.Key <= items[i-1].Key:
			bad = append(bad, fmt.Sprintf("out of order: key %d after %d", it.Key, items[i-1].Key))
		case !iv.Contains(it.Key):
			bad = append(bad, fmt.Sprintf("key %d outside %v", it.Key, iv))
		}
		if it.Key%keyStep == probeResidue {
			continue // an outage probe's key; not part of the checked state
		}
		if it.Payload != payloadFor(it.Key) {
			bad = append(bad, fmt.Sprintf("key %d carries a wrong payload", it.Key))
		}
		if got[it.Key] {
			continue
		}
		got[it.Key] = true
		if o.isPreload(it.Key) {
			preload++
			continue
		}
		if l := o.lives[it.Key]; l == nil || !l.maybeLive(qs, qe) {
			bad = append(bad, fmt.Sprintf("phantom key %d: live at no point during the query", it.Key))
		}
	}
	if want := o.preloadIn(iv); preload != want {
		bad = append(bad, fmt.Sprintf("%d of %d preload keys in %v", preload, want, iv))
	}
	lo, hi := uint64(firstKey(iv))/bucketSpan, uint64(lastKey(iv))/bucketSpan
	for b := lo; b <= hi; b++ {
		for _, l := range o.buckets[b] {
			if iv.Contains(l.key) && !got[l.key] && l.liveThroughout(qs, qe) {
				bad = append(bad, fmt.Sprintf("missing key %d: live throughout the query", l.key))
			}
		}
	}
	return bad
}

// preloadIn counts the preload keys inside iv.
func (o *oracle) preloadIn(iv keyspace.Interval) int {
	lo, hi := firstKey(iv), lastKey(iv)
	if lo < keyStep {
		lo = keyStep
	}
	if hi > o.preloadMax {
		hi = o.preloadMax
	}
	if hi < lo {
		return 0
	}
	return int(hi/keyStep) - int((lo+keyStep-1)/keyStep) + 1
}

func firstKey(iv keyspace.Interval) keyspace.Key {
	if iv.LbOpen {
		return iv.Lb + 1
	}
	return iv.Lb
}

func lastKey(iv keyspace.Interval) keyspace.Key {
	if iv.UbOpen {
		return iv.Ub - 1
	}
	return iv.Ub
}

// expected lists the keys that must be in the index now, and those that must
// not, leaving out the unsure ones. Used by the end-of-run audits.
func (o *oracle) expected() (present, absent []keyspace.Key) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for k := keyspace.Key(keyStep); k <= o.preloadMax; k += keyStep {
		present = append(present, k)
	}
	for _, l := range o.lives {
		switch {
		case l.unsure, l.insAck == never:
		case l.delStart == never:
			present = append(present, l.key)
		case l.delAck != never:
			absent = append(absent, l.key)
		}
	}
	sort.Slice(present, func(i, j int) bool { return present[i] < present[j] })
	sort.Slice(absent, func(i, j int) bool { return absent[i] < absent[j] })
	return present, absent
}

// crashImage copies to dst what a SIGKILL of every peer at this instant would
// leave under root: each peer directory's write-ahead log and snapshot, as
// they are on disk, with nothing flushed or closed first. The log is copied
// before the snapshot: a snapshot taken in between then only duplicates
// records the copied log already holds, whereas the other order could pair an
// old snapshot with a log already truncated. A torn last record is what a
// crash leaves too, and recovery drops it.
func crashImage(root, dst string) error {
	dirs, err := filepath.Glob(filepath.Join(root, "*"))
	if err != nil {
		return err
	}
	for _, dir := range dirs {
		out := filepath.Join(dst, filepath.Base(dir))
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		for _, name := range []string{"wal.log", "snapshot.pep"} {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(out, name), b, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// durabilityAudit reopens every peer directory under root as a restarted
// process would (snapshot plus WAL replay) and checks the acknowledged state
// against what was recovered: every key in present must be held, with its
// derived payload, by a directory whose live claim covers it, and no key in
// absent may be. It returns the number of lost acknowledged writes and the
// time the reopen-and-load took.
func durabilityAudit(root string, present, absent []keyspace.Key) (lost int, load time.Duration, err error) {
	dirs, err := filepath.Glob(filepath.Join(root, "*"))
	if err != nil {
		return 0, 0, err
	}
	var states []storage.State
	start := time.Now()
	for _, dir := range dirs {
		d, err := storage.OpenDisk(dir, storage.Options{})
		if err != nil {
			return 0, 0, fmt.Errorf("reopening %s: %w", dir, err)
		}
		st, err := d.Load()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, 0, fmt.Errorf("loading %s: %w", dir, err)
		}
		if st.HasRange {
			states = append(states, st)
		}
	}
	load = time.Since(start)
	return countLost(states, present, absent), load, nil
}

// countLost counts keys whose recovered state contradicts the acknowledged
// one. Of several claims covering a key the highest epoch is the live one.
func countLost(states []storage.State, present, absent []keyspace.Key) int {
	holder := func(k keyspace.Key) (string, bool) {
		var best *storage.State
		for i := range states {
			if st := &states[i]; st.Range.Contains(k) && (best == nil || st.Epoch > best.Epoch) {
				best = st
			}
		}
		if best == nil {
			return "", false
		}
		v, ok := best.Items[k]
		return v, ok
	}
	lost := 0
	for _, k := range present {
		if v, ok := holder(k); !ok || v != payloadFor(k) {
			lost++
		}
	}
	for _, k := range absent {
		if _, ok := holder(k); ok {
			lost++
		}
	}
	return lost
}
