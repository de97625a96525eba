package transport

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// DefaultRedialBackoff and DefaultRedialBackoffMax bound a transport's
// backoff between re-dials of a destination whose last dial failed, unless
// its configuration sets its own. Reask paces its attempts by them too.
const (
	DefaultRedialBackoff    = 100 * time.Millisecond
	DefaultRedialBackoffMax = 2 * time.Second
)

// BackoffDelay is the pause before the retry that follows the n-th
// consecutive failure (n >= 1): it doubles from base per failure up to max,
// and is spread uniformly over [d/2, d) so peers backing off from the same
// failure do not retry in lockstep.
func BackoffDelay(base, max time.Duration, n int) time.Duration {
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)))
}

// Reask sends a request again, by calling ask, for as long as it fails with
// ErrUnreachable and ctx lasts, paced like a transport's re-dials. It is for
// a request whose handler answers a repeat with the first answer and moves
// nothing twice: a reply lost with its connection is asked for again, not
// read as the peer's death. Any other outcome returns at once, and so does
// the last failure when ctx ends, so a dead peer costs the caller its whole
// deadline.
func Reask[T any](ctx context.Context, ask func() (T, error)) (T, error) {
	for n := 1; ; n++ {
		v, err := ask()
		if !errors.Is(err, ErrUnreachable) {
			return v, err
		}
		pause := time.NewTimer(BackoffDelay(DefaultRedialBackoff, DefaultRedialBackoffMax, n))
		select {
		case <-pause.C:
		case <-ctx.Done():
			pause.Stop()
			return v, err
		}
	}
}
