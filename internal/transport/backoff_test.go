package transport

import (
	"testing"
	"time"
)

func TestBackoffDelay(t *testing.T) {
	const base, ceil = 100 * time.Millisecond, 2 * time.Second
	// The un-jittered step doubles from Base and stops at Max; every delay
	// falls in [step/2, step).
	steps := []time.Duration{100, 200, 400, 800, 1600, 2000, 2000}
	for i, ms := range steps {
		n, step := i+1, ms*time.Millisecond
		lo, hi := step, time.Duration(0)
		for range 2000 {
			d := BackoffDelay(base, ceil, n)
			if d < step/2 || d >= step {
				t.Fatalf("Delay(%d) = %v, outside [%v, %v)", n, d, step/2, step)
			}
			lo, hi = min(lo, d), max(hi, d)
		}
		if spread := hi - lo; spread < step/4 {
			t.Errorf("Delay(%d) only ranged over %v of its %v window: not jittered", n, spread, step/2)
		}
	}
	// Far past the cap, where a shift would have overflowed.
	for _, n := range []int{64, 1 << 20} {
		if d := BackoffDelay(base, ceil, n); d < ceil/2 || d >= ceil {
			t.Errorf("Delay(%d) = %v, want it capped within [%v, %v)", n, d, ceil/2, ceil)
		}
	}
	// Degenerate schedules neither panic nor wait.
	if d := BackoffDelay(0, 0, 3); d != 0 {
		t.Errorf("zero schedule delays %v", d)
	}
	if d := BackoffDelay(time.Second, time.Millisecond, 1); d < time.Millisecond/2 || d >= time.Millisecond {
		t.Errorf("base above max delays %v, want it under max", d)
	}
}
