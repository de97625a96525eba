package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/transport"
)

// retryRouted's pause rule: a stale-route verdict is retried at once through
// a fresh route, while a second stale verdict in a row and every other
// failure wait the backoff, so a run of stale verdicts gets one immediate
// retry.
func TestRetryRoutedReResolvesOneStaleVerdictAtOnce(t *testing.T) {
	const backoff = 300 * time.Millisecond
	type outcome struct {
		stale bool
		err   error
	}
	ok := outcome{}
	stale := outcome{stale: true, err: datastore.ErrStaleEpoch}
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
			err := retryRouted(context.Background(), 8, backoff, func() (bool, error) {
				o := tc.attempts[n]
				n++
				return o.stale, o.err
			})
			took := time.Since(start)
			if err != nil || n != len(tc.attempts) {
				t.Fatalf("retryRouted = %v after %d attempts, want success after %d", err, n, len(tc.attempts))
			}
			if lo, hi := time.Duration(tc.backoffs)*backoff, time.Duration(tc.backoffs+1)*backoff; took < lo || took >= hi {
				t.Errorf("took %v, want %d backoffs of %v", took, tc.backoffs, backoff)
			}
		})
	}
}
