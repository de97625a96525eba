package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/workload"
)

// opKind is one operation type of the mix.
type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opDelete
	numKinds
)

func (k opKind) String() string { return [...]string{"query", "insert", "delete"}[k] }

// op is one generated operation. A delete names no key: it removes the oldest
// live run-inserted key at the moment it is sent, so the generated sequence
// does not depend on how fast earlier operations completed.
type op struct {
	due  time.Duration // offset from the phase start; zero in the closed loop
	kind opKind
	iv   keyspace.Interval // opQuery
	key  keyspace.Key      // opInsert
}

// opGen derives every operation of a run from the seed: the arrival process,
// the mix and the keys each have their own stream, so the same seed gives the
// same operations whatever the peers do.
type opGen struct {
	mu     sync.Mutex
	mix    *workload.Mix
	keys   *rand.Rand
	span   uint64
	maxKey uint64
	used   map[keyspace.Key]bool
	seed   int64
}

func newOpGen(seed int64, w workloadSpec) *opGen {
	return &opGen{
		mix:    workload.NewMix(seed+1, w.insert, w.delete, w.query),
		keys:   rand.New(rand.NewSource(seed + 2)),
		span:   w.span(),
		maxKey: uint64(w.peers * itemsPerPeer * keyStep),
		used:   make(map[keyspace.Key]bool),
		seed:   seed,
	}
}

// next draws one operation.
func (g *opGen) next() op {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch g.mix.Next() {
	case workload.OpInsert:
		return op{kind: opInsert, key: g.freshKeyLocked()}
	case workload.OpDelete:
		return op{kind: opDelete}
	}
	lo := keyStep + uint64(g.keys.Int63n(int64(g.maxKey-g.span)))
	return op{kind: opQuery, iv: keyspace.ClosedInterval(keyspace.Key(lo), keyspace.Key(lo+g.span))}
}

// freshKey draws a key no earlier operation used.
func (g *opGen) freshKey() keyspace.Key {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.freshKeyLocked()
}

// freshKeyLocked draws a uniform key that is neither a preload key (a
// multiple of keyStep) nor an outage-probe key, and was never drawn before.
func (g *opGen) freshKeyLocked() keyspace.Key {
	for {
		k := keyspace.Key(keyStep + uint64(g.keys.Int63n(int64(g.maxKey))))
		if r := k % keyStep; r == 0 || r == probeResidue || g.used[k] {
			continue
		}
		g.used[k] = true
		return k
	}
}

// schedule draws the operations of one open-loop step: Poisson arrivals at
// rate per second for dur. stream separates the arrival processes of a run's
// steps.
func (g *opGen) schedule(stream int64, rate float64, dur time.Duration) []op {
	arrive := workload.NewPoisson(g.seed+100+stream, rate)
	var out []op
	for at := arrive.NextDelay(); at < dur; at += arrive.NextDelay() {
		o := g.next()
		o.due = at
		out = append(out, o)
	}
	return out
}

// sample is one correct operation of a phase.
type sample struct {
	kind opKind
	lat  time.Duration // from the due instant (open loop) or the send (closed loop)
	done time.Duration // completion, as an offset from the phase start
}

// result is what one phase measured.
type result struct {
	ok        []sample        // correct operations, in the order they were due
	lag       []time.Duration // how late each operation was sent
	attempted int
	failed    int         // returned an error
	incorrect int         // returned a result the oracle rejects
	late      int         // correct, but finished later than the workload's limit
	cpu       []cpuWindow // open loop: process CPU per window of the phase
	elapsed   time.Duration
	notes     []string // the first few failures, for the report
}

// cpuWindow is the process CPU time spent, and the operations completed, in
// one window of a phase.
type cpuWindow struct {
	cpu time.Duration
	ops int
}

// lat returns the latencies of the correct operations of the given kinds (of
// every kind when none is named), in the order the operations were due.
func (r *result) lat(kinds ...opKind) []time.Duration {
	out := make([]time.Duration, 0, len(r.ok))
	for _, s := range r.ok {
		match := len(kinds) == 0
		for _, k := range kinds {
			match = match || s.kind == k
		}
		if match {
			out = append(out, s.lat)
		}
	}
	return out
}

// addCounts folds another phase's counts (not its samples) into r.
func (r *result) addCounts(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.incorrect += o.incorrect
	r.late += o.late
	r.notes = append(r.notes, o.notes...)
}

// driver sends operations through one client and checks every result.
type driver struct {
	cli    *client.Client
	gen    *opGen
	oracle *oracle
	spec   workloadSpec
	tracer *tracer // nil on untraced runs
	nproc  int
	// exec performs one operation; it is execute except in tests, which
	// substitute an operation of known duration.
	exec func(context.Context, op) (outcome, string, time.Time)
}

func newDriver(cli *client.Client, spec workloadSpec, seed int64, tr *tracer, nproc int) *driver {
	d := &driver{cli: cli, gen: newOpGen(seed, spec), oracle: newOracle(spec.peers), spec: spec, tracer: tr, nproc: nproc}
	d.exec = d.execute
	return d
}

// outcome classifies one operation.
type outcome uint8

const (
	correct   outcome = iota
	failed            // the client returned an error
	incorrect         // the client returned a result the oracle rejects
)

// execute performs one operation and classifies it; note describes what went
// wrong. The oracle's bookkeeping brackets the client call; checking a
// query's result happens after the latency clock stopped.
func (d *driver) execute(ctx context.Context, o op) (out outcome, note string, end time.Time) {
	if d.spec.cold {
		d.cli.Cache().Clear()
	}
	var root span
	if d.tracer != nil && d.tracer.on.Load() {
		root = span{ID: d.tracer.newID(), Kind: spanOp, Name: o.kind.String(), At: "bench-client", Start: d.tracer.now()}
		ctx = withSpan(ctx, root.ID)
	}
	finish := func(err error) {
		end = time.Now()
		if root.ID != 0 {
			root.End, root.Failed = d.tracer.now(), err != nil
			d.tracer.record(root)
		}
	}
	switch o.kind {
	case opQuery:
		qs := d.oracle.now()
		items, err := d.cli.Query(ctx, o.iv)
		qe := d.oracle.now()
		finish(err)
		if err != nil {
			return failed, fmt.Sprintf("query %v: %v", o.iv, err), end
		}
		if bad := d.oracle.checkQuery(o.iv, qs, qe, items); len(bad) > 0 {
			return incorrect, fmt.Sprintf("query %v: %s", o.iv, bad[0]), end
		}
		return correct, "", end
	case opDelete:
		if l := d.oracle.startDelete(); l != nil {
			_, err := d.cli.Delete(ctx, l.key)
			finish(err)
			d.oracle.endDelete(l, err)
			if err != nil {
				return failed, fmt.Sprintf("delete %d: %v", l.key, err), end
			}
			return correct, "", end
		}
		// Nothing run-inserted is live: keep the item count stationary from
		// the other side and insert instead.
		o.key = d.gen.freshKey()
		fallthrough
	default:
		l := d.oracle.startInsert(o.key)
		err := d.cli.Insert(ctx, datastore.Item{Key: o.key, Payload: payloadFor(o.key)})
		finish(err)
		d.oracle.endInsert(l, err)
		if err != nil {
			return failed, fmt.Sprintf("insert %d: %v", o.key, err), end
		}
		return correct, "", end
	}
}

// finish closes a phase: it stamps the elapsed time and puts the samples, which
// arrived in completion order, in the order the operations were due.
func (c *collector) finish(start time.Time) *result {
	c.res.elapsed = time.Since(start)
	sort.Slice(c.res.ok, func(i, j int) bool {
		a, b := c.res.ok[i], c.res.ok[j]
		return a.done-a.lat < b.done-b.lat
	})
	return &c.res
}

// collector gathers the samples of one phase from the sender goroutines.
type collector struct {
	mu  sync.Mutex
	res result
	slo time.Duration
}

func (c *collector) add(kind opKind, lat, lag, doneAt time.Duration, out outcome, note string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.res.attempted++
	c.res.lag = append(c.res.lag, lag)
	if out != correct {
		if out == incorrect {
			c.res.incorrect++
		} else {
			c.res.failed++
		}
		if len(c.res.notes) < 5 {
			c.res.notes = append(c.res.notes, note)
		}
		return
	}
	c.res.ok = append(c.res.ok, sample{kind: kind, lat: lat, done: doneAt})
	if lat > c.slo {
		c.res.late++
	}
}

// openLoop sends sched on its schedule from at most nproc senders, so at most
// nproc operations are in flight. An operation whose due instant has passed
// when a sender becomes free is sent at once; its latency still counts from
// the due instant, so a stall shows as queueing in the tail instead of
// slowing the arrival process.
func (d *driver) openLoop(ctx context.Context, sched []op) *result {
	col := &collector{slo: d.spec.slo}
	var next atomic.Int64
	start := time.Now()
	stopCPU := col.watchCPU()
	var wg sync.WaitGroup
	for s := 0; s < d.nproc; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) || ctx.Err() != nil {
					return
				}
				o := sched[i]
				due := start.Add(o.due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				lag := time.Since(due)
				out, note, end := d.exec(ctx, o)
				col.add(o.kind, end.Sub(due), lag, end.Sub(start), out, note)
			}
		}()
	}
	wg.Wait()
	stopCPU()
	return col.finish(start)
}

// watchCPU records the process's CPU time and completed operations once per
// closedSlice until the returned stop function is called.
func (c *collector) watchCPU() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(closedSlice)
		defer tick.Stop()
		lastCPU, lastOps := cpuTime(), 0
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			cpu := cpuTime()
			c.mu.Lock()
			ops := len(c.res.ok)
			c.res.cpu = append(c.res.cpu, cpuWindow{cpu: cpu - lastCPU, ops: ops - lastOps})
			c.mu.Unlock()
			lastCPU, lastOps = cpu, ops
		}
	}()
	return func() { close(done); wg.Wait() }
}

// closedLoop runs nproc callers back to back for dur.
func (d *driver) closedLoop(ctx context.Context, dur time.Duration) *result {
	col := &collector{slo: d.spec.slo}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for s := 0; s < d.nproc; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				o := d.gen.next()
				sent := time.Now()
				out, note, end := d.exec(ctx, o)
				col.add(o.kind, end.Sub(sent), 0, end.Sub(start), out, note)
			}
		}()
	}
	wg.Wait()
	return col.finish(start)
}

// tailSamples is how many samples must lie beyond a reported percentile, and
// minGroup the fewest samples a percentile is taken over.
const (
	tailSamples = 10
	minGroup    = 200
)

// percentile estimates the p-quantile (0 < p < 1) of samples given in the
// order they were due, and returns their count. The samples are cut into
// consecutive groups large enough to leave tailSamples beyond the quantile;
// the estimate is the median of the groups' quantiles, so a stall that
// spoils a few seconds of a step spoils a few groups and not the result. It
// refuses when there is not one full group: such a value would be one of the
// few largest observations, not an estimate.
func percentile(samples []time.Duration, p float64) (time.Duration, int, error) {
	n := len(samples)
	size := int(math.Ceil(tailSamples / (1 - p)))
	if size < minGroup {
		size = minGroup
	}
	groups := n / size
	if groups == 0 {
		return 0, n, fmt.Errorf("p%g needs %d samples, have %d", p*100, size, n)
	}
	size = n / groups // spread the remainder over the groups
	qs := make([]float64, groups)
	for g := range qs {
		sorted := sortedDurations(samples[g*size : (g+1)*size])
		qs[g] = float64(sorted[int(float64(size)*p)])
	}
	return time.Duration(median(qs)), n, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
