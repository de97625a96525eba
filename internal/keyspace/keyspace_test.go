package keyspace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBetweenLinear(t *testing.T) {
	cases := []struct {
		k, lo, hi Key
		want      bool
	}{
		{k: 5, lo: 3, hi: 8, want: true},
		{k: 3, lo: 3, hi: 8, want: false}, // lower bound exclusive
		{k: 8, lo: 3, hi: 8, want: true},  // upper bound inclusive
		{k: 9, lo: 3, hi: 8, want: false},
		{k: 2, lo: 3, hi: 8, want: false},
	}
	for _, c := range cases {
		if got := Between(c.k, c.lo, c.hi); got != c.want {
			t.Errorf("Between(%d, %d, %d) = %v, want %v", c.k, c.lo, c.hi, got, c.want)
		}
	}
}

func TestBetweenWrapped(t *testing.T) {
	// (20, 5] wraps through MaxKey.
	cases := []struct {
		k    Key
		want bool
	}{
		{k: 25, want: true},
		{k: MaxKey, want: true},
		{k: 0, want: true},
		{k: 5, want: true},
		{k: 6, want: false},
		{k: 20, want: false},
		{k: 10, want: false},
	}
	for _, c := range cases {
		if got := Between(c.k, 20, 5); got != c.want {
			t.Errorf("Between(%d, 20, 5) = %v, want %v", c.k, got, c.want)
		}
	}
}

func TestBetweenFullRing(t *testing.T) {
	for _, k := range []Key{0, 7, MaxKey} {
		if !Between(k, 7, 7) {
			t.Errorf("full ring (7,7] should contain %d", k)
		}
	}
}

func TestDist(t *testing.T) {
	if d := Dist(3, 10); d != 7 {
		t.Errorf("Dist(3,10) = %d, want 7", d)
	}
	if d := Dist(10, 3); d != ^uint64(0)-6 {
		t.Errorf("Dist(10,3) = %d, want wrap distance", d)
	}
	if d := Dist(5, 5); d != 0 {
		t.Errorf("Dist(5,5) = %d, want 0", d)
	}
}

func TestRangeContains(t *testing.T) {
	r := NewRange(10, 20)
	if r.Contains(10) {
		t.Error("(10,20] must not contain 10")
	}
	if !r.Contains(20) || !r.Contains(11) {
		t.Error("(10,20] must contain 11 and 20")
	}
	if r.Contains(21) {
		t.Error("(10,20] must not contain 21")
	}
}

func TestRangeSplitAt(t *testing.T) {
	r := NewRange(10, 20)
	low, high, ok := r.SplitAt(15)
	if !ok {
		t.Fatal("split at interior point must succeed")
	}
	if low != NewRange(10, 15) || high != NewRange(15, 20) {
		t.Errorf("split = %v / %v", low, high)
	}
	if _, _, ok := r.SplitAt(20); ok {
		t.Error("split at Hi must fail")
	}
	if _, _, ok := r.SplitAt(10); ok {
		t.Error("split at Lo (not contained) must fail")
	}
	if _, _, ok := r.SplitAt(25); ok {
		t.Error("split outside range must fail")
	}
}

func TestRangeSplitWrapped(t *testing.T) {
	r := NewRange(MaxKey-5, 5) // wraps
	low, high, ok := r.SplitAt(MaxKey - 1)
	if !ok {
		t.Fatal("wrapped split must succeed")
	}
	if low != NewRange(MaxKey-5, MaxKey-1) || high != NewRange(MaxKey-1, 5) {
		t.Errorf("wrapped split = %v / %v", low, high)
	}
	low2, high2, ok := r.SplitAt(2)
	if !ok {
		t.Fatal("wrapped split past zero must succeed")
	}
	if low2 != NewRange(MaxKey-5, 2) || high2 != NewRange(2, 5) {
		t.Errorf("wrapped split past zero = %v / %v", low2, high2)
	}
}

func TestFullRangeBehaviour(t *testing.T) {
	r := FullRange(42)
	if !r.IsFull() {
		t.Fatal("FullRange must report IsFull")
	}
	if !r.Contains(0) || !r.Contains(42) || !r.Contains(MaxKey) {
		t.Error("full range must contain everything")
	}
	low, high, ok := r.SplitAt(100)
	if !ok {
		t.Fatal("splitting a full range must succeed at any non-Hi point")
	}
	if low != NewRange(42, 100) || high != NewRange(100, 42) {
		t.Errorf("full range split = %v / %v", low, high)
	}
}

func TestExtendDown(t *testing.T) {
	r := NewRange(10, 20).ExtendDown(5)
	if r != NewRange(5, 20) {
		t.Errorf("ExtendDown = %v", r)
	}
}

func TestIntervalContains(t *testing.T) {
	cases := []struct {
		iv   Interval
		k    Key
		want bool
	}{
		{ClosedInterval(3, 8), 3, true},
		{ClosedInterval(3, 8), 8, true},
		{Interval{Lb: 3, Ub: 8, LbOpen: true}, 3, false},
		{Interval{Lb: 3, Ub: 8, UbOpen: true}, 8, false},
		{Interval{Lb: 3, Ub: 8, LbOpen: true, UbOpen: true}, 5, true},
		{ClosedInterval(3, 8), 2, false},
		{ClosedInterval(3, 8), 9, false},
		{Point(7), 7, true},
		{Point(7), 6, false},
	}
	for _, c := range cases {
		if got := c.iv.Contains(c.k); got != c.want {
			t.Errorf("%v.Contains(%d) = %v, want %v", c.iv, c.k, got, c.want)
		}
	}
}

func TestIntervalValid(t *testing.T) {
	if !ClosedInterval(3, 3).Valid() {
		t.Error("[3,3] is valid")
	}
	if (Interval{Lb: 3, Ub: 3, LbOpen: true}).Valid() {
		t.Error("(3,3] is empty")
	}
	if (Interval{Lb: 5, Ub: 3}).Valid() {
		t.Error("[5,3] is empty")
	}
	if !(Interval{Lb: 3, Ub: 4, LbOpen: true, UbOpen: true}).Valid() {
		t.Error("(3,4) is technically empty over integers but Valid is bound-based; (3,4] nonempty check")
	}
}

func TestClipToRangeBasic(t *testing.T) {
	iv := ClosedInterval(5, 15)
	got, ok := iv.ClipToRange(NewRange(8, 20))
	if !ok {
		t.Fatal("expected non-empty clip")
	}
	want := Interval{Lb: 8, Ub: 15, LbOpen: true}
	if got != want {
		t.Errorf("clip = %v, want %v", got, want)
	}

	got, ok = iv.ClipToRange(NewRange(0, 10))
	if !ok {
		t.Fatal("expected non-empty clip")
	}
	want = Interval{Lb: 5, Ub: 10}
	if got != want {
		t.Errorf("clip = %v, want %v", got, want)
	}

	if _, ok := iv.ClipToRange(NewRange(20, 30)); ok {
		t.Error("disjoint clip must be empty")
	}
	// Range (15, 30]: only touches at nothing (iv ends at 15 which is Lo,
	// exclusive), so empty.
	if _, ok := iv.ClipToRange(NewRange(15, 30)); ok {
		t.Error("clip touching only the exclusive bound must be empty")
	}
}

func TestClipToRangeFull(t *testing.T) {
	iv := ClosedInterval(5, 15)
	got, ok := iv.ClipToRange(FullRange(99))
	if !ok || got != iv {
		t.Errorf("clip to full ring = %v, %v", got, ok)
	}
}

func TestClipToRangeWrapped(t *testing.T) {
	// Range wraps: (MaxKey-10, 10].
	r := NewRange(MaxKey-10, 10)
	// Interval entirely in the low piece near the top of the key space.
	iv := ClosedInterval(MaxKey-5, MaxKey-2)
	got, ok := iv.ClipToRange(r)
	if !ok || got != iv {
		t.Errorf("high-side clip = %v, %v", got, ok)
	}
	// Interval entirely in the [0,10] piece.
	iv = ClosedInterval(2, 8)
	got, ok = iv.ClipToRange(r)
	if !ok || got != iv {
		t.Errorf("low-side clip = %v, %v", got, ok)
	}
	// Interval outside both pieces.
	iv = ClosedInterval(100, 200)
	if _, ok := iv.ClipToRange(r); ok {
		t.Error("clip outside wrapped range must be empty")
	}
}

// Property: every key the clipped interval contains is contained by both the
// original interval and the range, and every key in a sampled set that both
// contain is in the clip (when the clip is the frontier-adjacent piece, keys
// below the frontier piece may be deferred — so we only assert for
// non-wrapping ranges where the clip is exact).
func TestClipToRangeProperty(t *testing.T) {
	f := func(lbRaw, ubRaw, loRaw, hiRaw uint64, probes [12]uint64) bool {
		lb, ub := Key(lbRaw%1000), Key(ubRaw%1000)
		if lb > ub {
			lb, ub = ub, lb
		}
		lo, hi := Key(loRaw%1000), Key(hiRaw%1000)
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi {
			hi++ // avoid accidental full range in the linear case
		}
		iv := ClosedInterval(lb, ub)
		r := NewRange(lo, hi)
		clip, ok := iv.ClipToRange(r)
		for _, pRaw := range probes {
			k := Key(pRaw % 1100)
			inBoth := iv.Contains(k) && r.Contains(k)
			inClip := ok && clip.Contains(k)
			if inBoth != inClip {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Between is equivalent to walking the ring clockwise from lo.
func TestBetweenDistProperty(t *testing.T) {
	f := func(k, lo, hi Key) bool {
		if lo == hi {
			return Between(k, lo, hi)
		}
		want := Dist(lo, k) <= Dist(lo, hi) && k != lo
		return Between(k, lo, hi) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: SplitAt partitions the range: every key is in exactly one half,
// and the halves rejoin to the original.
func TestSplitPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		lo, hi := Key(rng.Uint64()), Key(rng.Uint64())
		r := NewRange(lo, hi)
		m := Key(rng.Uint64())
		low, high, ok := r.SplitAt(m)
		if !ok {
			if r.Contains(m) && m != r.Hi {
				t.Fatalf("SplitAt(%d) of %v refused a valid point", m, r)
			}
			continue
		}
		for j := 0; j < 8; j++ {
			k := Key(rng.Uint64())
			inR := r.Contains(k)
			inLow, inHigh := low.Contains(k), high.Contains(k)
			if inLow && inHigh {
				t.Fatalf("key %d in both halves of %v split at %d", k, r, m)
			}
			if inR != (inLow || inHigh) {
				t.Fatalf("key %d: partition mismatch for %v split at %d (low=%v high=%v)", k, r, m, low, high)
			}
		}
	}
}

func TestRangeString(t *testing.T) {
	if s := NewRange(3, 9).String(); s != "(3, 9]" {
		t.Errorf("String = %q", s)
	}
	if s := FullRange(3).String(); s == "" {
		t.Error("full range String must be non-empty")
	}
}

func TestIntervalString(t *testing.T) {
	cases := []struct {
		iv   Interval
		want string
	}{
		{ClosedInterval(1, 2), "[1, 2]"},
		{Interval{Lb: 1, Ub: 2, LbOpen: true}, "(1, 2]"},
		{Interval{Lb: 1, Ub: 2, UbOpen: true}, "[1, 2)"},
		{Interval{Lb: 1, Ub: 2, LbOpen: true, UbOpen: true}, "(1, 2)"},
	}
	for _, c := range cases {
		if got := c.iv.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestRangeOverlaps(t *testing.T) {
	cases := []struct {
		a, b Range
		want bool
	}{
		{NewRange(0, 100), NewRange(50, 150), true},               // partial overlap
		{NewRange(0, 100), NewRange(100, 200), false},             // adjacent: (100, 200] excludes 100
		{NewRange(0, 100), NewRange(200, 300), false},             // disjoint
		{NewRange(0, 100), NewRange(0, 100), true},                // identical
		{NewRange(0, 100), NewRange(20, 80), true},                // containment
		{FullRange(0), NewRange(5, 10), true},                     // full ring overlaps all
		{NewRange(MaxKey-10, 10), NewRange(5, 20), true},          // wrap vs low segment
		{NewRange(MaxKey-10, 10), NewRange(20, MaxKey-20), false}, // wrap vs middle
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestContiguousEnd(t *testing.T) {
	cases := []struct {
		rng          Range
		cursor, last Key
		wantEnd      Key
		wantFinished bool
	}{
		// Non-wrapped range, query ends inside.
		{NewRange(10, 100), 20, 50, 50, true},
		// Non-wrapped range, query extends past.
		{NewRange(10, 100), 20, 500, 100, false},
		// Full ring: always finished.
		{FullRange(7), 20, 500, 500, true},
		// Wrapped range, cursor in low segment, query extends past hi.
		{NewRange(900, 100), 20, 500, 100, false},
		// Wrapped range, cursor in low segment, query ends inside.
		{NewRange(900, 100), 20, 90, 90, true},
		// Wrapped range, cursor in high segment: linear query always ends here.
		{NewRange(900, 100), 950, 980, 980, true},
	}
	for _, c := range cases {
		end, fin := c.rng.ContiguousEnd(c.cursor, c.last)
		if end != c.wantEnd || fin != c.wantFinished {
			t.Errorf("ContiguousEnd(%v, %d, %d) = %d,%v want %d,%v",
				c.rng, c.cursor, c.last, end, fin, c.wantEnd, c.wantFinished)
		}
	}
}
