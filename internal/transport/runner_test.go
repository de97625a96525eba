package transport_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// The runner is driven here by kicks and by waiting on its tasks, so no test
// sleeps longer than one task period. Tasks that must not tick on their own
// get idle as their period.
const idle = time.Hour

func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// gated is a task body that reports each entry and then blocks until let go.
type gated struct {
	entered, release chan struct{}
	runs             atomic.Int64
}

func newGated() *gated {
	return &gated{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gated) run() {
	g.entered <- struct{}{}
	<-g.release
	g.runs.Add(1)
}

func TestRunnerStartTwiceRunsOneLoop(t *testing.T) {
	const period = 5 * time.Millisecond
	const want = 6
	ran := make(chan struct{}, want)
	task := transport.NewTask(period, func() {
		select {
		case ran <- struct{}{}:
		default:
		}
	})
	var r transport.Runner
	start := time.Now()
	r.Start(task)
	r.Start(task)
	for i := 0; i < want; i++ {
		waitFor(t, ran, "a tick")
	}
	r.Stop()
	// The k-th tick of one ticker is never early; two loops would get here in
	// half the time.
	if got, floor := time.Since(start), (want-1)*period; got < floor {
		t.Fatalf("%d runs in %v, want at least %v: a second Start launched a second loop", want, got, floor)
	}
}

func TestRunnerStartAfterStopRunsNone(t *testing.T) {
	var runs atomic.Int64
	task := transport.NewTask(time.Millisecond, func() { runs.Add(1) })
	task.Kick() // a launched loop would run at once
	var r transport.Runner
	r.Stop()
	r.Start(task)
	time.Sleep(time.Millisecond)
	r.Stop()
	if n := runs.Load(); n != 0 {
		t.Fatalf("task ran %d times after Stop", n)
	}
}

func TestRunnerStopWaitsForTheTaskInFlight(t *testing.T) {
	g := newGated()
	task := transport.NewTask(idle, g.run)
	var r transport.Runner
	r.Start(task)
	task.Kick()
	waitFor(t, g.entered, "the task to start")
	stopped := make(chan struct{})
	go func() {
		r.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while the task was in flight")
	case <-time.After(time.Millisecond):
	}
	close(g.release)
	waitFor(t, stopped, "Stop")
	if g.runs.Load() != 1 {
		t.Fatal("Stop returned before the task in flight finished")
	}
}

func TestRunnerSignalFromItsOwnTask(t *testing.T) {
	var r transport.Runner
	done := make(chan struct{})
	task := transport.NewTask(idle, func() {
		r.Signal() // Stop here would wait for this very goroutine
		close(done)
	})
	r.Start(task)
	task.Kick()
	waitFor(t, done, "the task to signal its own runner")
	stopped := make(chan struct{})
	go func() {
		r.Stop()
		close(stopped)
	}()
	waitFor(t, stopped, "Stop after Signal")
}

func TestRunnerKickBeforeStartFiresOnceAfterIt(t *testing.T) {
	g := newGated()
	close(g.release)
	task := transport.NewTask(idle, g.run)
	task.Kick()
	task.Kick()
	var r transport.Runner
	r.Start(task)
	waitFor(t, g.entered, "the remembered kick")
	r.Stop()
	if n := g.runs.Load(); n != 1 {
		t.Fatalf("two kicks before Start ran the task %d times, want 1", n)
	}
}

func TestRunnerKicksCoalesce(t *testing.T) {
	g := newGated()
	task := transport.NewTask(idle, g.run)
	var r transport.Runner
	r.Start(task)
	task.Kick()
	waitFor(t, g.entered, "the first run")
	for i := 0; i < 3; i++ {
		task.Kick() // all three land while the first run is in flight
	}
	g.release <- struct{}{}
	waitFor(t, g.entered, "the coalesced run")
	g.release <- struct{}{}
	r.Stop()
	if n := g.runs.Load(); n != 2 {
		t.Fatalf("one kick plus three coalesced ran the task %d times, want 2", n)
	}
}
