package transport

import (
	"math/rand"
	"time"
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
