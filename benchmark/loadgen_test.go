package main

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"
)

func testSpec() workloadSpec {
	return workloadSpec{name: "test", peers: 3, query: 60, insert: 20, delete: 20, rate: 500, slo: 50 * time.Millisecond}
}

// drawRun draws what a run draws, in a run's order: the open-loop steps
// first, then operations for the closed loop.
func drawRun(seed int64) (stepR, step2R, closed []op) {
	g := newOpGen(seed, testSpec())
	stepR, step2R = g.schedule(1, 500, time.Second), g.schedule(2, 1000, 500*time.Millisecond)
	for i := 0; i < 200; i++ {
		closed = append(closed, g.next())
	}
	return stepR, step2R, closed
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	s1, h1, c1 := drawRun(42)
	s2, h2, c2 := drawRun(42)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(h1, h2) || !reflect.DeepEqual(c1, c2) {
		t.Fatal("equal seeds drew different operations")
	}
	s3, _, _ := drawRun(43)
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds drew the same schedule")
	}
	if n := len(s1) + len(h1); n < 800 || n > 1200 {
		t.Fatalf("1 s at 500/s plus 0.5 s at 1000/s drew %d operations", n)
	}
	seen := map[uint64]bool{}
	var last time.Duration
	for i, o := range s1 {
		if o.due < last {
			t.Fatalf("operation %d is due before its predecessor", i)
		}
		last = o.due
		if o.kind == opInsert {
			k := uint64(o.key)
			if k%keyStep == 0 || k%keyStep == probeResidue || seen[k] {
				t.Fatalf("insert key %d is a preload key, a probe key or a repeat", k)
			}
			seen[k] = true
		}
	}
}

// The schedule is drawn before anything is sent, so how long operations take
// cannot change it; and every latency counts from the due instant, so a slow
// operation delays its successors' start but not their clock.
func TestOpenLoopTimesFromTheDueInstant(t *testing.T) {
	const work = 30 * time.Millisecond
	var mu sync.Mutex
	var sent []op
	d := &driver{spec: testSpec(), nproc: 1}
	d.exec = func(_ context.Context, o op) (outcome, string, time.Time) {
		mu.Lock()
		sent = append(sent, o)
		mu.Unlock()
		time.Sleep(work)
		return correct, "", time.Now()
	}
	sched := []op{
		{due: 0, kind: opQuery},
		{due: time.Millisecond, kind: opQuery},
		{due: 2 * time.Millisecond, kind: opQuery},
	}
	res := d.openLoop(context.Background(), sched)
	if !reflect.DeepEqual(sent, sched) {
		t.Fatalf("sent %v, want the schedule as drawn", sent)
	}
	lat := res.lat(opQuery)
	if len(lat) != 3 || res.attempted != 3 {
		t.Fatalf("recorded %d latencies of %d attempts", len(lat), res.attempted)
	}
	// One sender: the third operation waited for two others, and its latency
	// says so. Timed from its send instant it would read one unit of work.
	for i, l := range lat {
		if min := time.Duration(i+1)*work - 2*time.Millisecond; l < min {
			t.Errorf("operation %d: latency %v, want at least %v from its due instant", i, l, min)
		}
	}
	lag := sortedDurations(res.lag)
	if lag[2] < 2*work-3*time.Millisecond {
		t.Errorf("generator lateness %v does not show the backlog", lag)
	}
	if res.late != 2 {
		t.Errorf("%d operations counted late against a %v limit, want 2", res.late, d.spec.slo)
	}
}

func TestOpenLoopCountsFailuresAndIncorrectResults(t *testing.T) {
	d := &driver{spec: testSpec(), nproc: 2}
	outcomes := []outcome{correct, failed, incorrect, correct}
	var mu sync.Mutex
	i := 0
	d.exec = func(context.Context, op) (outcome, string, time.Time) {
		mu.Lock()
		defer mu.Unlock()
		i++
		return outcomes[i-1], "note", time.Now()
	}
	res := d.openLoop(context.Background(), make([]op, 4))
	if res.attempted != 4 || res.failed != 1 || res.incorrect != 1 || len(res.ok) != 2 || len(res.notes) != 2 {
		t.Fatalf("attempted %d failed %d incorrect %d recorded %d notes %d", res.attempted, res.failed, res.incorrect, len(res.ok), len(res.notes))
	}
}

func TestPercentileRefusesAThinTail(t *testing.T) {
	samples := make([]time.Duration, 999)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Microsecond
	}
	if _, n, err := percentile(samples, 0.99); err == nil || n != 999 {
		t.Fatalf("p99 of 999 samples: n %d err %v, want a refusal", n, err)
	}
	samples = append(samples, time.Millisecond)
	v, n, err := percentile(samples, 0.99)
	if err != nil || n != 1000 || v != 991*time.Microsecond {
		t.Fatalf("p99 of 1000 samples: %v n %d err %v", v, n, err)
	}
	if v, _, err := percentile(samples, 0.50); err != nil || v != 501*time.Microsecond {
		t.Fatalf("p50: %v err %v", v, err)
	}
	if _, _, err := percentile(samples[:19], 0.50); err == nil {
		t.Fatal("a median needs one full group of samples and must be refused without")
	}
}

// A stall that spoils a stretch of a step must not decide its percentiles.
func TestPercentileShrugsOffAStall(t *testing.T) {
	samples := make([]time.Duration, 2000)
	for i := range samples {
		samples[i] = time.Duration(1+i%100) * time.Millisecond // p95 of every group: 96 ms
		if i >= 400 && i < 800 {
			samples[i] += time.Second // two of the ten groups stalled
		}
	}
	if v, _, err := percentile(samples, 0.95); err != nil || v != 96*time.Millisecond {
		t.Fatalf("p95 %v err %v, want 96ms", v, err)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Fatalf("quartiles %v %v, want 3.5 160", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q3 != 22.5 {
		t.Fatalf("two-value quartiles %v %v, want 7.5 22.5", q1, q3)
	}
}
