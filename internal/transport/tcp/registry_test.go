package tcp

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

// The resume registry is driven here directly, on a hand-cranked clock: no
// sockets, no sleeps. The socket-level tests (resume_test.go) cover the same
// protocol end to end over a real connection.

type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// discardCounter counts Discard calls, to catch a stager released twice or
// never.
type discardCounter struct {
	transport.ChunkStager
	discards *int
}

func (s discardCounter) Discard() {
	*s.discards++
	s.ChunkStager.Discard()
}

// testRegistry returns a registry on a fake clock whose i-th created stager
// counts its discards in (*discards)[i].
func testRegistry() (r *resumeRegistry, clock *fakeClock, discards *[]*int) {
	clock = &fakeClock{t: time.Unix(1_000_000, 0)}
	discards = new([]*int)
	r = newResumeRegistry(func() transport.ChunkStager {
		n := new(int)
		*discards = append(*discards, n)
		return discardCounter{transport.NewMemStager(1 << 20), n}
	}, clock.now)
	return r, clock, discards
}

// parked reports whether (from, sid) is in the registry without renewing it.
func parked(r *resumeRegistry, sid string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[rsKey("a", sid)] != nil
}

func stageAll(t *testing.T, r *resumeRegistry, sid string, chunks ...string) {
	t.Helper()
	for i, c := range chunks {
		if err := r.stage("a", "m", sid, i, []byte(c)); err != nil {
			t.Fatalf("stage %s chunk %d: %v", sid, i, err)
		}
	}
}

func TestResumeRegistryStaging(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, r *resumeRegistry) error // the step under test
		want string                                      // substring of its error; "" = must succeed
		// after the step:
		wantBody string // commit total 2 yields this (skipped when a failure dropped the transfer)
	}{
		{
			name: "chunks in order",
			run:  func(t *testing.T, r *resumeRegistry) error { return nil },
			want: "", wantBody: "c0c1",
		},
		{
			name: "duplicate chunk ignored",
			run: func(t *testing.T, r *resumeRegistry) error {
				return r.stage("a", "m", "s", 1, []byte("resent"))
			},
			want: "", wantBody: "c0c1",
		},
		{
			name: "gap rejected",
			run: func(t *testing.T, r *resumeRegistry) error {
				return r.stage("a", "m", "s", 3, []byte("c3"))
			},
			want: "chunk 3 out of sequence (want 2)",
		},
		{
			name: "staging refusal rejected with its typed reason",
			run: func(t *testing.T, r *resumeRegistry) error {
				return r.stage("a", "m", "s", 2, make([]byte, 1<<20))
			},
			want: transport.ErrStageOverflow.Error(),
		},
		{
			name: "commit count mismatch rejected",
			run: func(t *testing.T, r *resumeRegistry) error {
				_, _, _, err := r.commit("a", "m", "s", 3, 0)
				return err
			},
			want: "committed 3 chunks, staged 2",
		},
		{
			name: "tail chunk with no parked state rejected",
			run: func(t *testing.T, r *resumeRegistry) error {
				return r.stage("a", "m", "expired", 4, []byte("c4"))
			},
			want: errNoParkedState.Error(), wantBody: "c0c1",
		},
		{
			name: "tail commit with no parked state rejected",
			run: func(t *testing.T, r *resumeRegistry) error {
				_, _, _, err := r.commit("a", "m", "expired", 4, 0)
				return err
			},
			want: errNoParkedState.Error(), wantBody: "c0c1",
		},
		{
			name: "chunk racing a drop is refused, not staged into nothing",
			run: func(t *testing.T, r *resumeRegistry) error {
				e := r.get("a", "s")
				r.drop("a", "s")
				if _, _, err := e.join(2, memoWindow, r.now()); !errors.Is(err, errNoParkedState) {
					t.Errorf("commit racing a drop: %v", err)
				}
				return e.append(2, []byte("c2"))
			},
			want: errNoParkedState.Error(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, _, discards := testRegistry()
			stageAll(t, r, "s", "c0", "c1")
			err := tc.run(t, r)
			if (tc.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			if tc.wantBody == "" {
				// A stream-protocol failure drops the transfer: the sender
				// restarts from chunk 0, and the staging is released once.
				if parked(r, "s") || r.mark("a", "s") != 0 {
					t.Errorf("rejected transfer still parked (mark %d)", r.mark("a", "s"))
				}
				if n := *(*discards)[0]; n != 1 {
					t.Errorf("rejected transfer's stager discarded %d times, want 1", n)
				}
				return
			}
			if m := r.mark("a", "s"); m != 2 {
				t.Errorf("high-water mark = %d, want 2", m)
			}
			_, body, first, err := r.commit("a", "m", "s", 2, 0)
			if err != nil || !first || string(body) != tc.wantBody {
				t.Errorf("commit = %q, first=%v, %v; want %q", body, first, err, tc.wantBody)
			}
		})
	}
}

// The handler runs once per stream ID however often the commit arrives: the
// first commit is told to run it, every later one is handed the memo — also
// when it arrives while the handler is still running.
func TestResumeRegistryCommitOnce(t *testing.T) {
	r, _, discards := testRegistry()
	stageAll(t, r, "s", "c0", "c1")
	ran := 0
	commit := func() (*rstream, any, error) {
		e, body, first, err := r.commit("a", "m", "s", 2, 0)
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		if !first {
			return e, nil, nil
		}
		ran++
		return e, fmt.Sprintf("ack %s from %s.%s run %d", body, e.from, e.method, ran), errors.New("handler error")
	}
	e1, resp, herr := commit()
	early := make(chan any)
	go func() { // a re-sent commit that overtakes the handler waits for it
		e2, _, _, _ := r.commit("a", "m", "s", 2, 0)
		<-e2.done
		early <- e2.resp
	}()
	select {
	case got := <-early:
		t.Fatalf("re-sent commit resolved with %v before the handler settled", got)
	default:
	}
	e1.resp, e1.herr = resp, herr // what the serve loop does with the handler's outcome
	close(e1.done)
	const want = "ack c0c1 from a.m run 1"
	if got := <-early; got != want {
		t.Errorf("overtaking commit got %v, want %q", got, want)
	}
	e3, _, _ := commit()
	<-e3.done
	if got, err := e3.resp, e3.herr; got != want || err == nil || err.Error() != "handler error" {
		t.Errorf("re-sent commit got %v, %v; want the memoized %q and handler error", got, err, want)
	}
	if ran != 1 {
		t.Errorf("handler ran %d times, want 1", ran)
	}
	if m := r.mark("a", "s"); m != 2 {
		t.Errorf("mark of a committed transfer = %d, want its total 2", m)
	}
	// Around the memo: a duplicate chunk is ignored, but a chunk past the
	// committed total, or a commit with another count, is a protocol failure
	// that also forgets the memo.
	if err := r.stage("a", "m", "s", 1, []byte("dup")); err != nil {
		t.Errorf("duplicate chunk after commit: %v", err)
	}
	if err := r.stage("a", "m", "s", 2, []byte("c2")); err == nil || !strings.Contains(err.Error(), "chunk after commit") {
		t.Errorf("chunk after commit: %v", err)
	}
	if parked(r, "s") {
		t.Error("memo survived a chunk after commit")
	}
	stageAll(t, r, "t", "c0")
	if _, _, _, err := r.commit("a", "m", "t", 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.commit("a", "m", "t", 5, 0); err == nil || !strings.Contains(err.Error(), "count 5 does not match committed 1") {
		t.Errorf("re-sent commit with another count: %v", err)
	}
	// Join released the staging; nothing is left for drop to discard.
	for i, n := range *discards {
		if *n != 0 {
			t.Errorf("stager %d of a committed transfer discarded %d times by the registry", i, *n)
		}
	}
}

// Staged transfers are parked for resumeWindow, committed ones for memoWindow;
// every contact renews; expired entries go at the next sweep, which runs at
// most once per sweepEvery.
func TestResumeRegistryExpiry(t *testing.T) {
	r, clock, discards := testRegistry()
	sweeps := 0
	sweep := func() { // creating (and dropping) any transfer is what sweeps
		sweeps++
		sid := fmt.Sprintf("sweep-%d", sweeps)
		r.create("b", "m", sid)
		r.drop("b", sid)
	}
	stageAll(t, r, "staged", "c0")    // stager 0
	stageAll(t, r, "renewed", "c0")   // stager 1
	stageAll(t, r, "committed", "c0") // stager 2
	stageAll(t, r, "recommit", "c0")  // stager 3
	for _, sid := range []string{"committed", "recommit"} {
		e, _, _, err := r.commit("a", "m", sid, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		close(e.done)
	}

	clock.advance(memoWindow)
	sweep()
	for _, sid := range []string{"staged", "renewed", "committed", "recommit"} {
		if !parked(r, sid) {
			t.Fatalf("%s gone at its window's last instant", sid)
		}
	}
	if _, _, first, err := r.commit("a", "m", "recommit", 1, 0); err != nil || first { // contact: renews the memo
		t.Fatalf("re-sent commit: first=%v, %v", first, err)
	}
	clock.advance(2 * time.Second)
	sweep()
	if parked(r, "committed") {
		t.Error("memo outlived memoWindow")
	}
	if !parked(r, "recommit") || !parked(r, "staged") {
		t.Error("renewed memo or staged transfer swept at memoWindow")
	}

	clock.advance(resumeWindow - memoWindow - 2*time.Second) // staged and renewed are now exactly resumeWindow old
	if m := r.mark("a", "renewed"); m != 1 {                 // contact: renews the staging
		t.Fatalf("mark = %d, want 1", m)
	}
	clock.advance(2 * time.Second)
	sweep()
	if parked(r, "staged") || parked(r, "recommit") {
		t.Error("staged transfer outlived resumeWindow, or the renewed memo a second memoWindow")
	}
	if !parked(r, "renewed") {
		t.Error("a transfer whose mark was just asked for was swept")
	}
	if got := *(*discards)[0]; got != 1 {
		t.Errorf("expired staged transfer's stager discarded %d times, want 1", got)
	}

	// The sweep is rate-limited: an entry that expires right after one is
	// only collected by a create at least sweepEvery later.
	r.mark("a", "renewed") // good for resumeWindow from here
	clock.advance(resumeWindow - sweepEvery/2 + time.Millisecond)
	sweep() // sweepEvery/2 - 1ms left: survives
	clock.advance(sweepEvery / 2)
	sweep() // expired by 1ms, but the last sweep was sweepEvery/2 ago
	if !parked(r, "renewed") {
		t.Fatal("swept twice within sweepEvery")
	}
	clock.advance(sweepEvery / 2)
	sweep()
	if parked(r, "renewed") {
		t.Error("expired transfer not collected once sweepEvery had passed")
	}

	// close discards what is still staged, once, and only that.
	stageAll(t, r, "open", "c0")
	r.close()
	r.close()
	if parked(r, "open") {
		t.Error("close left a transfer parked")
	}
	for i, n := range *discards {
		want := 1 // expired, dropped by sweep(), or parked at close
		if i == 2 || i == 3 {
			want = 0 // joined by commit: nothing left to discard
		}
		if *n != want {
			t.Errorf("stager %d discarded %d times, want %d", i, *n, want)
		}
	}
}

// memoized reports whether (from, sid) is held as a settled memo.
func memoized(r *resumeRegistry, sid string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.memos[rsKey("a", sid)]
	return ok
}

// settle is what the serve loop does once a first commit's handler has run:
// the transfer leaves entries for a compact memo, which answers a re-sent
// commit, a mark and a duplicate chunk exactly as the full entry did, and
// expires memoWindow after its last contact.
func TestResumeRegistrySettleCompactsTheMemo(t *testing.T) {
	r, clock, discards := testRegistry()
	commit := func(sid string, total int) (*rstream, bool) {
		t.Helper()
		e, _, first, err := r.commit("a", "m", sid, total, 0)
		if err != nil {
			t.Fatalf("commit %s: %v", sid, err)
		}
		return e, first
	}
	sweep := func() {
		r.create("b", "m", "sweep")
		r.drop("b", "sweep")
	}

	stageAll(t, r, "s", "c0", "c1")
	e, first := commit("s", 2)
	if !first {
		t.Fatal("first commit not told to run the handler")
	}
	overtaking := make(chan any)
	go func() { // a re-sent commit racing the handler gets its outcome either way
		e2, _, _, _ := r.commit("a", "m", "s", 2, 0)
		<-e2.done
		overtaking <- e2.resp
	}()
	herr := errors.New("handler error")
	r.settle(e, "s", "ack", herr)
	if got := <-overtaking; got != "ack" {
		t.Errorf("re-sent commit racing the handler got %v, want ack", got)
	}
	if parked(r, "s") || !memoized(r, "s") {
		t.Fatalf("settled transfer: full entry %v, memo %v; want only the memo", parked(r, "s"), memoized(r, "s"))
	}
	e3, first := commit("s", 2)
	if first {
		t.Fatal("a commit re-sent after settle was told to run the handler again")
	}
	<-e3.done
	if e3.resp != "ack" || e3.herr != herr {
		t.Errorf("memo answered %v, %v; want the handler's ack and error", e3.resp, e3.herr)
	}
	if m := r.mark("a", "s"); m != 2 {
		t.Errorf("mark of a settled transfer = %d, want its total 2", m)
	}
	if err := r.stage("a", "m", "s", 1, []byte("dup")); err != nil {
		t.Errorf("duplicate chunk after settle: %v", err)
	}

	clock.advance(memoWindow)
	sweep()
	if !memoized(r, "s") {
		t.Fatal("memo swept at its window's last instant")
	}
	clock.advance(2 * time.Second)
	sweep()
	if memoized(r, "s") || r.mark("a", "s") != 0 {
		t.Error("memo outlived memoWindow")
	}

	// Around the memo, protocol failures forget it as they forget a full
	// entry: a chunk past the total, a commit with another count.
	for _, tc := range []struct {
		sid  string
		next func() error
		want string
	}{
		{"past", func() error { return r.stage("a", "m", "past", 1, []byte("c1")) }, "chunk after commit"},
		{"count", func() error { _, _, _, err := r.commit("a", "m", "count", 5, 0); return err }, "count 5 does not match committed 1"},
	} {
		stageAll(t, r, tc.sid, "c0")
		e, _ := commit(tc.sid, 1)
		r.settle(e, tc.sid, true, nil)
		if err := tc.next(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want %q", tc.sid, err, tc.want)
		}
		if memoized(r, tc.sid) {
			t.Errorf("%s: memo survived a protocol failure", tc.sid)
		}
	}

	// A transfer dropped while its handler ran is not brought back by settle.
	stageAll(t, r, "gone", "c0")
	e, _ = commit("gone", 1)
	r.drop("a", "gone")
	r.settle(e, "gone", true, nil)
	if parked(r, "gone") || memoized(r, "gone") {
		t.Error("settle resurrected a dropped transfer")
	}
	for i, n := range *discards {
		want := 0 // joined by commit: nothing left to discard
		if i == 1 || i == 2 {
			want = 1 // the two sweeps' own transfers
		}
		if *n != want {
			t.Errorf("stager %d discarded %d times, want %d", i, *n, want)
		}
	}
}

// A commit frame carries how long its sender still resumes (wireMsg.TTL): no
// re-sent commit can arrive after that, so the memo lapses at the TTL, not at
// memoWindow. Within it, a re-sent commit is answered from the memo.
func TestResumeRegistryMemoExpiresWithSendersTTL(t *testing.T) {
	r, clock, _ := testRegistry()
	sweep := func() {
		r.create("b", "m", "sweep")
		r.drop("b", "sweep")
	}
	const ttl = 2 * time.Second
	stageAll(t, r, "s", "c0")
	e, _, first, err := r.commit("a", "m", "s", 1, ttl)
	if err != nil || !first {
		t.Fatalf("first commit: first=%v, %v", first, err)
	}
	r.settle(e, "s", "ack", nil)

	clock.advance(ttl - time.Second)
	e2, _, first, err := r.commit("a", "m", "s", 1, time.Second) // the re-sent commit, one second later
	if err != nil || first {
		t.Fatalf("re-sent commit within the TTL: first=%v, %v; want the memo", first, err)
	}
	<-e2.done
	if e2.resp != "ack" {
		t.Errorf("re-sent commit answered %v, want the memoized ack", e2.resp)
	}
	// The contact renewed the memo by its TTL, which is all it gets.
	clock.advance(ttl)
	sweep()
	if !memoized(r, "s") {
		t.Fatal("memo swept at its TTL's last instant")
	}
	clock.advance(sweepEvery)
	sweep()
	if memoized(r, "s") {
		t.Error("memo outlived its sender's TTL")
	}
}

// A commit with no deadline (TTL 0), or with one beyond memoWindow, is
// memoized for memoWindow.
func TestResumeRegistryMemoTTLFallsBackToMemoWindow(t *testing.T) {
	for _, ttl := range []time.Duration{0, memoWindow + time.Minute} {
		r, clock, _ := testRegistry()
		stageAll(t, r, "s", "c0")
		e, _, _, err := r.commit("a", "m", "s", 1, ttl)
		if err != nil {
			t.Fatal(err)
		}
		r.settle(e, "s", true, nil)
		clock.advance(memoWindow)
		r.create("b", "m", "sweep")
		r.drop("b", "sweep")
		if !memoized(r, "s") {
			t.Errorf("TTL %v: memo swept before memoWindow", ttl)
		}
		clock.advance(sweepEvery)
		r.create("b", "m", "sweep2")
		r.drop("b", "sweep2")
		if memoized(r, "s") {
			t.Errorf("TTL %v: memo outlived memoWindow", ttl)
		}
	}
}
