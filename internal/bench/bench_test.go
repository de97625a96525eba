package bench

import (
	"strings"
	"testing"
	"time"
)

// quickParams shrinks every figure run so the harness is exercised in CI
// time; the real sweeps run through cmd/benchrunner and the root benchmarks.
func quickParams() Params {
	return Params{
		Scale: 2 * time.Millisecond,
		RunS:  40,
		Seed:  7,
	}
}

func requireSeries(t *testing.T, fig interface{ Render() string }, series ...string) {
	t.Helper()
	out := fig.Render()
	for _, s := range series {
		if !strings.Contains(out, s) {
			t.Errorf("figure missing series %q:\n%s", s, out)
		}
	}
}

func TestFig19Quick(t *testing.T) {
	fig, err := Fig19(quickParams(), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	requireSeries(t, fig, "insertSuccessor", "naive insertSuccessor")
	// The PEPPER insert must cost at least as much as the naive one.
	for _, x := range fig.XOrder {
		var pepper, naive float64
		for _, s := range fig.Series {
			if s.Label == "insertSuccessor" {
				pepper = s.Points[x]
			}
			if s.Label == "naive insertSuccessor" {
				naive = s.Points[x]
			}
		}
		if pepper > 0 && naive > 0 && pepper < naive/4 {
			t.Errorf("x=%s: PEPPER insert (%f) implausibly cheaper than naive (%f)", x, pepper, naive)
		}
	}
	t.Log("\n" + fig.Render())
}

func TestFig20Quick(t *testing.T) {
	fig, err := Fig20(quickParams(), []float64{2, 6}, true)
	if err != nil {
		t.Fatal(err)
	}
	requireSeries(t, fig, "insertSuccessor", "naive insertSuccessor", "w/o proactive")
	t.Log("\n" + fig.Render())
}

func TestFig21Quick(t *testing.T) {
	fig, err := Fig21(quickParams(), 6, 120)
	if err != nil {
		t.Fatal(err)
	}
	requireSeries(t, fig, "search using scanRange", "naive application search")
	t.Log("\n" + fig.Render())
}

func TestFig22Quick(t *testing.T) {
	fig, err := Fig22(quickParams(), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	requireSeries(t, fig, "leaveRing", "leaveRing+merge", "naive leave")
	t.Log("\n" + fig.Render())
}

func TestFig23Quick(t *testing.T) {
	fig, err := Fig23(quickParams(), []float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	requireSeries(t, fig, "insertSuccessor")
	t.Log("\n" + fig.Render())
}
