package tcp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/transport"
)

// resumeWindow is how long a receiver parks an interrupted resumable
// transfer, waiting for its sender to come back. Senders bound their retries
// well under this.
const resumeWindow = 60 * time.Second

// memoWindow is how long, at most, a COMMITTED transfer's outcome stays
// memoized for a re-sent commit whose first acknowledgment was lost. It only
// has to outlast one sender's resume attempts (streamRedialAttempts dials
// under RedialBackoffMax, and every contact renews it), not ride out an
// outage the way staged chunks do: every bulk call leaves a memo behind, so
// at hundreds of small replica pushes per second a minute of them is the
// receiver's largest heap consumer. A commit that says how long its sender
// still resumes (wireMsg.TTL) is memoized only that long; see memoTTL.
const memoWindow = 10 * time.Second

// memoTTL is the memo window of a transfer whose commit carried ttl: the
// sender's remaining deadline, past which no re-sent commit can arrive, capped
// at memoWindow. 0 (no deadline) falls back to memoWindow.
func memoTTL(ttl time.Duration) time.Duration {
	if ttl <= 0 || ttl > memoWindow {
		return memoWindow
	}
	return ttl
}

// sweepEvery bounds how often the registry walks its entries for expired ones
// (a walk per new transfer is quadratic in the push rate: every bulk call
// parks an entry). An entry may outlive its window by this much, so it is
// short next to a memo's window: a memo usually lives as long as its sender's
// push deadline, a couple of seconds, and at a second per sweep a third of the
// memos held — the bulk of a busy receiver's heap — would be expired ones.
const sweepEvery = 100 * time.Millisecond

// resumeRegistry holds the receiver side of every resumable inbound transfer,
// keyed by (sender, stream ID). Entries outlive the connection that carried
// their chunks: a sender that loses its connection mid-transfer re-dials,
// asks for the high-water mark, and continues — the staged chunks never cross
// the wire twice.
type resumeRegistry struct {
	now    func() time.Time
	stager func() transport.ChunkStager

	mu        sync.Mutex
	entries   map[string]*rstream
	memos     map[string]memo // settled transfers, moved out of entries
	lastSweep time.Time
}

func newResumeRegistry(stager func() transport.ChunkStager, now func() time.Time) *resumeRegistry {
	return &resumeRegistry{now: now, stager: stager, entries: make(map[string]*rstream), memos: make(map[string]memo)}
}

// memo is a committed transfer once its handler has run: all a re-sent
// commit or a mark still needs, with no lock, channel or stager. Every bulk
// call leaves one behind for memoWindow, so at a high push rate they are the
// bulk of the registry.
type memo struct {
	total   int
	resp    any
	herr    error
	window  time.Duration // memoTTL of the commit
	expires time.Time
}

// settled is the closed done channel of every transfer rebuilt from a memo.
var settled = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// rstream is one resumable inbound transfer. After commit the entry is kept
// (stager released, response memoized) for memoWindow, so a re-sent commit
// whose first acknowledgment was lost returns the same response without
// running the handler twice.
type rstream struct {
	mu        sync.Mutex
	from      string
	method    string
	stager    transport.ChunkStager // nil once joined by commit or released
	committed bool
	total     int           // chunk count fixed at commit
	window    time.Duration // how long a contact renews a committed transfer: memoTTL of its commit
	done      chan struct{} // closed once the handler has run and resp, herr hold its outcome
	resp      any
	herr      error
	expires   time.Time
}

func rsKey(from, sid string) string { return from + "\x00" + sid }

// get returns the parked transfer for (from, sid), pushing its expiry out by
// the window its state calls for: every contact renews. A settled transfer is
// handed out as a fresh committed rstream rebuilt from its memo, which answers
// a re-sent commit, a duplicate chunk or a mark exactly as the original would.
func (r *resumeRegistry) get(from, sid string) *rstream {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := rsKey(from, sid)
	if e := r.entries[key]; e != nil {
		e.mu.Lock()
		e.renewLocked(r.now())
		e.mu.Unlock()
		return e
	}
	m, ok := r.memos[key]
	if !ok {
		return nil
	}
	m.expires = r.now().Add(m.window)
	r.memos[key] = m
	return &rstream{from: from, committed: true, total: m.total, window: m.window, done: settled, resp: m.resp, herr: m.herr, expires: m.expires}
}

// renewLocked is called with e.mu held.
func (e *rstream) renewLocked(now time.Time) {
	window := resumeWindow
	if e.committed {
		window = e.window
	}
	e.expires = now.Add(window)
}

// create parks a new transfer, sweeping expired entries while it is here.
func (r *resumeRegistry) create(from, method, sid string) *rstream {
	now := r.now()
	e := &rstream{
		from:    from,
		method:  method,
		stager:  r.stager(),
		done:    make(chan struct{}),
		expires: now.Add(resumeWindow),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if now.Sub(r.lastSweep) >= sweepEvery {
		r.lastSweep = now
		for k, old := range r.entries {
			old.mu.Lock()
			expired := now.After(old.expires)
			old.mu.Unlock()
			if expired {
				delete(r.entries, k)
				old.release()
			}
		}
		for k, m := range r.memos {
			if now.After(m.expires) {
				delete(r.memos, k)
			}
		}
	}
	r.entries[rsKey(from, sid)] = e
	return e
}

// drop discards a parked transfer (abort, protocol failure).
func (r *resumeRegistry) drop(from, sid string) {
	key := rsKey(from, sid)
	r.mu.Lock()
	e := r.entries[key]
	delete(r.entries, key)
	delete(r.memos, key)
	r.mu.Unlock()
	if e != nil {
		e.release()
	}
}

// close discards everything still parked.
func (r *resumeRegistry) close() {
	r.mu.Lock()
	parked := r.entries
	r.entries = make(map[string]*rstream)
	r.memos = make(map[string]memo)
	r.mu.Unlock()
	for _, e := range parked {
		e.release()
	}
}

// release discards whatever the entry still has staged, exactly once: the
// stager is taken under the lock and discarded outside it.
func (e *rstream) release() {
	e.mu.Lock()
	st := e.stager
	e.stager = nil
	e.mu.Unlock()
	if st != nil {
		st.Discard()
	}
}

// mark reports how far a parked transfer got: the count of staged chunks, the
// committed total when the transfer already applied, or 0 when nothing is
// parked (the sender restarts from the first chunk).
func (r *resumeRegistry) mark(from, sid string) int {
	e := r.get(from, sid)
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.committed:
		return e.total
	case e.stager == nil:
		return 0 // released under us
	}
	return e.stager.Chunks()
}

var errNoParkedState = errors.New("tcp: no parked stream state for resumed transfer")

// lookup returns the transfer a chunk or commit frame belongs to. Only a
// frame with sequence 0 may open one: the tail of a transfer whose parked
// state expired or was rejected is refused rather than staged over a hole.
func (r *resumeRegistry) lookup(from, method, sid string, seq int) (*rstream, error) {
	if e := r.get(from, sid); e != nil {
		return e, nil
	}
	if seq != 0 {
		return nil, errNoParkedState
	}
	return r.create(from, method, sid), nil
}

// stage files chunk seq of a transfer. A duplicate from a resend race is
// ignored. An error is a stream-protocol failure: the transfer's parked state
// is dropped, and the error text is the reason the sender is told.
func (r *resumeRegistry) stage(from, method, sid string, seq int, data []byte) error {
	e, err := r.lookup(from, method, sid, seq)
	if err == nil {
		err = e.append(seq, data)
	}
	if err != nil {
		r.drop(from, sid)
	}
	return err
}

func (e *rstream) append(seq int, data []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.committed:
		if seq >= e.total {
			return errors.New("tcp: chunk after commit")
		}
		return nil // duplicate of an already-applied transfer
	case e.stager == nil:
		return errNoParkedState // released under us
	case seq < e.stager.Chunks():
		return nil // already staged
	case seq > e.stager.Chunks():
		return fmt.Errorf("tcp: stream chunk %d out of sequence (want %d)", seq, e.stager.Chunks())
	}
	// A refused chunk — with the default stager the typed ErrStageOverflow
	// past MaxStreamBytes — fails the transfer; the reason crosses the wire
	// so the sender's error stays actionable.
	return e.stager.Append(data)
}

// commit applies the terminal frame of a transfer carrying total chunks. The
// handler must run exactly once per stream ID, so the first commit joins the
// staged chunks and returns them (first = true) for the caller to dispatch
// and settle with the outcome; a re-sent commit (the first acknowledgment
// lost with its connection) returns first = false. Either way the caller
// answers with e.resp and e.herr once e.done is closed. ttl is the commit
// frame's; the first commit fixes the memo window at memoTTL(ttl). Errors are
// stream-protocol failures, as for stage.
func (r *resumeRegistry) commit(from, method, sid string, total int, ttl time.Duration) (e *rstream, body []byte, first bool, err error) {
	if e, err = r.lookup(from, method, sid, total); err == nil {
		body, first, err = e.join(total, memoTTL(ttl), r.now())
	}
	if err != nil {
		r.drop(from, sid)
	}
	return e, body, first, err
}

// settle records the outcome of the handler a first commit ran, wakes every
// commit waiting on it, and compacts the entry into a memo.
func (r *resumeRegistry) settle(e *rstream, sid string, resp any, herr error) {
	e.resp, e.herr = resp, herr
	close(e.done)
	key := rsKey(e.from, sid)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries[key] != e {
		return // dropped or replaced while the handler ran
	}
	e.mu.Lock()
	m := memo{total: e.total, resp: resp, herr: herr, window: e.window, expires: e.expires}
	e.mu.Unlock()
	delete(r.entries, key)
	r.memos[key] = m
}

func (e *rstream) join(total int, window time.Duration, now time.Time) (body []byte, first bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.committed && total != e.total:
		return nil, false, fmt.Errorf("tcp: resumed commit count %d does not match committed %d", total, e.total)
	case e.committed:
		return nil, false, nil
	case e.stager == nil:
		return nil, false, errNoParkedState // released under us
	}
	if body, err = e.stager.Join(total); err != nil {
		return nil, false, err
	}
	e.committed = true
	e.total = total
	e.window = window
	e.stager = nil // released by Join; the memo keeps only the outcome
	e.renewLocked(now)
	return body, true, nil
}
