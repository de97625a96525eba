package transport

import (
	"sync"
	"time"
)

// Runner owns the periodic tasks of one protocol component: the other half of
// the component shell beside Method. The zero value is ready to use.
type Runner struct {
	mu   sync.Mutex    // orders Start's wg.Add before Stop's wg.Wait
	stop chan struct{} // non-nil once started or stopped; closed once stopped
	wg   sync.WaitGroup
}

// Task is one periodic job: run fires one period after Start — exactly as a
// ticker does — then every period, and once more soon after each Kick.
type Task struct {
	period time.Duration
	run    func()
	kick   chan struct{} // buffered 1: kicks coalesce, and one before Start is kept
}

// NewTask declares a task; it runs once a Runner is started with it.
func NewTask(period time.Duration, run func()) *Task {
	return &Task{period: period, run: run, kick: make(chan struct{}, 1)}
}

// Kick asks for a run soon, without waiting out the period. Kicks that arrive
// before the task gets to run coalesce into one.
func (t *Task) Kick() {
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// Start launches one goroutine per task. Only the first Start does anything,
// and none does after Stop or Signal, so a late join cannot race a shutdown.
func (r *Runner) Start(tasks ...*Task) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	r.wg.Add(len(tasks))
	for _, t := range tasks {
		go func() {
			defer r.wg.Done()
			tick := time.NewTicker(t.period)
			defer tick.Stop()
			for {
				select {
				case <-r.stop:
					return
				case <-tick.C:
				case <-t.kick:
				}
				t.run()
			}
		}()
	}
}

// Signal tells the tasks to stop without waiting for them: the form a task
// uses to stop its own Runner.
func (r *Runner) Signal() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stop == nil {
		r.stop = make(chan struct{})
	}
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
}

// Stop signals the tasks and waits for the ones in flight to return.
func (r *Runner) Stop() {
	r.Signal()
	r.wg.Wait()
}
