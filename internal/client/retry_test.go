package client

import (
	"context"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/transport"
)

// The retry loop's pause rule: a stale-route verdict is re-resolved at once,
// while a second stale verdict in a row and every other failure wait
// RetryBackoff, so a run of stale verdicts gets one immediate retry.
func TestRetryReResolvesOneStaleVerdictAtOnce(t *testing.T) {
	const backoff = 300 * time.Millisecond
	c, err := New(nil, Config{Seeds: []transport.Addr{"seed"}, RetryBackoff: backoff})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		stale bool
		err   error
	}
	ok := outcome{}
	stale := outcome{stale: true, err: datastore.ErrNotOwner}
	unreachable := outcome{err: transport.ErrUnreachable}
	for _, tc := range []struct {
		name     string
		attempts []outcome
		backoffs int // pauses the attempts must wait out
	}{
		{"stale then ok", []outcome{stale, ok}, 0},
		{"stale twice then ok", []outcome{stale, stale, ok}, 1},
		{"stale thrice then ok", []outcome{stale, stale, stale, ok}, 2},
		{"unreachable then ok", []outcome{unreachable, ok}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := 0
			start := time.Now()
			err := c.retry(context.Background(), func() (bool, error) {
				o := tc.attempts[n]
				n++
				return o.stale, o.err
			})
			took := time.Since(start)
			if err != nil || n != len(tc.attempts) {
				t.Fatalf("retry = %v after %d attempts, want success after %d", err, n, len(tc.attempts))
			}
			if lo, hi := time.Duration(tc.backoffs)*backoff, time.Duration(tc.backoffs+1)*backoff; took < lo || took >= hi {
				t.Errorf("took %v, want %d backoffs of %v", took, tc.backoffs, backoff)
			}
		})
	}
}
