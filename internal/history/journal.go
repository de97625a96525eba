package history

import (
	"iter"
	"unsafe"

	"repro/internal/keyspace"
)

// Compact event storage. A long-running peer journals one event per item
// mutation, so the journal is the first thing its memory grows with; an
// event costs one 32-byte record with no pointers, appended into fixed-size
// chunks. Growth never copies an old record and the collector never scans
// one: a chunk is a pointer-free array, so it lives in a no-scan span.

// chunkLen is the number of records in one chunk (32 KiB).
const chunkLen = 1024

// record is one journaled event in compact form. An item event (add,
// remove, move) or a fail-stop keeps its fields in place, with peer names
// interned per Log; any other event carries a range, an epoch or a flag, so
// its full Event goes to the side table and key holds its index there.
type record struct {
	seq  Seq
	key  keyspace.Key
	peer uint32 // index into journal.names (destination for ItemMoved)
	from uint32 // index into journal.names; 0 ("") unless ItemMoved
	kind EventKind
}

type chunk [chunkLen]record

// inline reports whether an event of kind k fits in a record.
func inline(k EventKind) bool {
	switch k {
	case ItemAdded, ItemRemoved, ItemMoved, PeerFailed:
		return true
	}
	return false
}

// journal is a Log's event storage, guarded by the Log's mutex. A copy taken
// under the mutex stays a valid snapshot after the mutex is released:
// appends only write past the copy's lengths, and nothing once written is
// rewritten.
type journal struct {
	chunks    []*chunk
	n         int      // records appended
	names     []string // interned peer names; names[0] is ""
	ids       map[string]uint32
	nameBytes int
	wide      []Event // events that do not fit a record, in seq order
}

// newJournal returns an empty journal with "" interned as 0.
func newJournal() journal {
	return journal{names: []string{""}, ids: map[string]uint32{"": 0}}
}

// intern returns name's index in j.names, adding it on first use.
func (j *journal) intern(name string) uint32 {
	if id, ok := j.ids[name]; ok {
		return id
	}
	id := uint32(len(j.names))
	j.ids[name] = id
	j.names = append(j.names, name)
	j.nameBytes += len(name)
	return id
}

// add appends ev, whose Seq is already drawn.
func (j *journal) add(ev Event) {
	r := record{seq: ev.Seq, kind: ev.Kind}
	if inline(ev.Kind) {
		r.key, r.peer, r.from = ev.Key, j.intern(ev.Peer), j.intern(ev.From)
	} else {
		r.key = keyspace.Key(len(j.wide))
		j.wide = append(j.wide, ev)
	}
	i := j.n % chunkLen
	if i == 0 {
		j.chunks = append(j.chunks, new(chunk))
	}
	j.chunks[len(j.chunks)-1][i] = r
	j.n++
}

// event expands r back into the Event it was appended from.
func (j *journal) event(r *record) Event {
	if !inline(r.kind) {
		return j.wide[r.key]
	}
	return Event{Seq: r.seq, Kind: r.kind, Key: r.key, Peer: j.names[r.peer], From: j.names[r.from]}
}

// events yields the snapshot's events in seq order.
func (j journal) events(yield func(Event) bool) {
	for i := 0; i < j.n; i++ {
		if !yield(j.event(&j.chunks[i/chunkLen][i%chunkLen])) {
			return
		}
	}
}

// bytes is the storage the events hold: whole chunks, the side table and
// the interned names.
func (j *journal) bytes() int64 {
	return int64(len(j.chunks))*int64(unsafe.Sizeof(chunk{})) +
		int64(len(j.wide))*int64(unsafe.Sizeof(Event{})) +
		int64(len(j.names))*int64(unsafe.Sizeof("")) + int64(j.nameBytes)
}

// snapshot returns the journal as it stands; the copy is read without l.mu.
func (l *Log) snapshot() journal {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.j
}

// all walks the journal's events in place, in seq order, up to the last one
// appended before the call.
func (l *Log) all() iter.Seq[Event] {
	return l.snapshot().events
}
