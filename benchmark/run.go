package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/datastore"
	"repro/internal/keyspace"
)

// processStart is when the benchmark process began; setup_s counts from here.
var processStart = time.Now()

// runConfig is one invocation's input.
type runConfig struct {
	spec    workloadSpec
	seed    int64
	seconds float64
	trace   bool
	runDir  string // scratch directory inside the checkout
}

// clientID is the address the measured client's requests carry; server-side
// spans are told apart from peer traffic by it.
const clientID = "bench-client"

// runLimit bounds one run, set-up included; the driver allows 180 s.
const runLimit = 150 * time.Second

// primePool is how many run-inserted keys are live before measuring starts,
// so that deletes find targets from the first operation on.
const primePool = 64

// run is the state of one workload run.
type run struct {
	cfg    runConfig
	nproc  int
	ph     phases
	cl     *cluster
	cli    *client.Client
	drv    *driver
	tracer *tracer
	rep    *report

	total  result // counts over every phase, warm-up included
	stepR  *result
	step2R *result
	closed []*slice
	kills  []killRecord

	killRes *result // the kill phase's open loop; nil on workloads without kills

	measureFrom int64 // tracer clock when the measured phases began
	measured    time.Duration
	base, end   counters // cumulative counts at the start and end of the measured phases
	gcPauseBase uint64   // MemStats.PauseTotalNs when the measured phases began

	loadTime       time.Duration // durability audit: reopening and loading every directory
	walRecordBytes float64       // storage measurement: WAL bytes per item record
}

// slice is one stretch of the closed phase with its resource use.
type slice struct {
	res    *result
	traced bool
	cpu    time.Duration
	// Heap allocations during the slice: objects and bytes.
	mallocs, allocBytes uint64
}

// killRecord is what one fail-stop cost.
type killRecord struct {
	outage time.Duration // kill to first successful insert into the victim's range
	revive time.Duration // kill to a live peer's range covering the victim's
	unsure int           // keys whose fate the kill left undecided
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// runWorkload executes one run and returns its report. An error means the
// run could not be completed; a completed run that found wrong results
// reports them with Correct false.
func runWorkload(cfg runConfig) (*report, error) {
	r := &run{cfg: cfg, nproc: runtime.NumCPU(), ph: planPhases(cfg.spec, cfg.seconds)}
	r.rep = newReport(cfg, r.nproc)
	if cfg.trace {
		r.tracer = newTracer()
	}
	dataDir := ""
	if cfg.spec.wal {
		dataDir = filepath.Join(cfg.runDir, "wal")
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
	}
	defer os.RemoveAll(cfg.runDir)

	// A wedged cluster must end the run with an error, not hang it: every
	// wait and every client operation below gives up when the limit passes.
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	cl, err := bootCluster(ctx, cfg.spec, cfg.seed, dataDir, r.tracer)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.cl = cl
	defer cl.close()
	setup := time.Since(processStart)

	cli, t, err := cl.newClient(clientID)
	if err != nil {
		return nil, err
	}
	defer t.Close()
	r.cli = cli
	r.drv = newDriver(cli, cfg.spec, cfg.seed, r.tracer, r.nproc)

	r.warmUp(ctx)
	if cfg.spec.kills > 0 {
		if err := r.killPhase(ctx); err != nil {
			return nil, err
		}
	}
	r.measure(ctx)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("the run did not finish within %v: %w", runLimit, err)
	}
	if err := r.audit(ctx); err != nil {
		return nil, err
	}
	r.endToEnd(setup)
	if cfg.trace {
		if err := r.perLayer(ctx); err != nil {
			return nil, err
		}
		path := filepath.Join(filepath.Dir(cfg.runDir), "trace_"+cfg.spec.name+".json")
		if err := r.tracer.writeFile(path); err != nil {
			return nil, err
		}
		r.rep.Notes = append(r.rep.Notes, "spans written to "+path)
	}
	return r.rep, nil
}

// warmUp primes the pool of run-inserted keys — a burst of inserts all due at
// once — and runs the unrecorded open-loop warm-up at R. Its operations are
// checked and counted like any other; only their latencies are dropped.
func (r *run) warmUp(ctx context.Context) {
	if r.cfg.spec.insert > 0 {
		prime := make([]op, primePool)
		for i := range prime {
			prime[i] = op{kind: opInsert, key: r.drv.gen.freshKey()}
		}
		r.total.addCounts(r.drv.openLoop(ctx, prime))
	}
	r.total.addCounts(r.drv.openLoop(ctx, r.drv.gen.schedule(0, r.cfg.spec.rate, r.ph.warmup)))
}

// closedSlice is the length of one stretch of the closed phase. Goodput and
// CPU per operation are medians over the stretches, so a stalled half second
// does not decide them.
const closedSlice = 500 * time.Millisecond

// measure runs the recorded phases: the R step, the 2R step and the closed
// phase. On a traced run the tracer is on in every other slice of the closed
// phase, so one run yields the cost of an operation with and without tracing
// from stretches that share whatever else the machine was doing.
func (r *run) measure(ctx context.Context) {
	if r.tracer != nil {
		r.measureFrom = r.tracer.now()
	}
	r.base = r.snapshotCounters()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.gcPauseBase = m.PauseTotalNs
	start := time.Now()
	rate := r.cfg.spec.rate
	r.stepR = r.drv.openLoop(ctx, r.drv.gen.schedule(1, rate, r.ph.stepR))
	r.step2R = r.drv.openLoop(ctx, r.drv.gen.schedule(2, 2*rate, r.ph.step2R))
	r.total.addCounts(r.stepR)
	r.total.addCounts(r.step2R)

	n := int(r.ph.closed / closedSlice)
	if n < 4 {
		n = 4
	}
	for i := 0; i < n; i++ {
		traced := r.tracer != nil && i%2 == 1
		if r.tracer != nil {
			r.tracer.on.Store(traced)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cpu := cpuTime()
		res := r.drv.closedLoop(ctx, r.ph.closed/time.Duration(n))
		sl := &slice{res: res, traced: traced, cpu: cpuTime() - cpu}
		runtime.ReadMemStats(&after)
		sl.mallocs, sl.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		r.closed = append(r.closed, sl)
		r.total.addCounts(res)
	}
	if r.tracer != nil {
		r.tracer.on.Store(true)
	}
	r.measured = time.Since(start)
}

// killPhase drives the open loop at R while spec.kills serving non-seed
// peers are fail-stopped at even intervals, then waits until the cluster is
// whole again: every range revived, the adopters split with the gossiped
// free peers, spec.peers peers serving.
func (r *run) killPhase(ctx context.Context) error {
	spec := r.cfg.spec
	sched := r.drv.gen.schedule(3, spec.rate, r.ph.kill)
	pick := rand.New(rand.NewSource(r.cfg.seed + 7))
	probe, pt, err := r.cl.newClient("bench-probe")
	if err != nil {
		return err
	}
	defer pt.Close()

	// One killer works through the kills in order: a second failure while a
	// range is still being revived is a different experiment, so each kill
	// waits for the previous one to heal.
	var wg sync.WaitGroup
	r.kills = make([]killRecord, spec.kills)
	phaseStart := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := range r.kills {
			// Spread over the first 70 % of the phase, so the last kill has
			// time to heal inside it.
			at := time.Duration(float64(r.ph.kill) * (0.05 + 0.7*float64(k)/float64(spec.kills)))
			time.Sleep(time.Until(phaseStart.Add(at)))
			if waitFor(ctx, "the previous kill to heal", func() bool { return r.cl.servingCount() >= spec.peers }) != nil {
				return
			}
			var live []*node
			for _, n := range r.cl.nodes[1:] {
				if n.serving() {
					live = append(live, n)
				}
			}
			if len(live) == 0 {
				return // nothing left to kill; the healed-cluster check reports it
			}
			victim := live[pick.Intn(len(live))]
			rng, _ := victim.sa.CurrentPeer().Store.Range()
			killed := time.Now()
			r.kills[k].unsure = r.drv.oracle.failStop(rng, r.cl.failStop(victim, rng))
			r.kills[k].outage, r.kills[k].revive = r.cl.watchRevival(ctx, probe, rng, killed)
		}
	}()
	res := r.drv.openLoop(ctx, sched)
	wg.Wait()
	r.total.addCounts(res)
	r.killRes = res

	hctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	healed := func() bool {
		if r.cl.servingCount() != spec.peers {
			return false
		}
		for _, n := range r.cl.nodes {
			if n.serving() {
				if c := n.sa.CurrentPeer().Store.ItemCount(); c > 2*storageFactor {
					return false
				}
			}
		}
		return true
	}
	if err := waitFor(hctx, "the cluster to heal", healed); err != nil {
		return fmt.Errorf("%w: %s", err, r.cl.describe())
	}
	// The steady steps measure the healed cluster, not the healing: wait until
	// the last split's new peer holds its predecessors' replicas too.
	if err := waitFor(hctx, "replicas to settle after healing", r.cl.replicated); err != nil {
		return fmt.Errorf("%w: %s", err, r.cl.describe())
	}
	return nil
}

// watchRevival measures one fail-stop from outside: the time until some live
// peer's range covers the victim's former range, and the time until an
// insert into that range succeeds again. The probe is one client insert whose
// retry loop re-resolves and re-sends every few milliseconds until the range
// has an owner again.
func (c *cluster) watchRevival(ctx context.Context, probe *client.Client, rng keyspace.Range, killed time.Time) (outage, revive time.Duration) {
	key := (rng.Lo/keyStep+1)*keyStep + probeResidue
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = waitFor(ctx, "revival", func() bool {
			for _, n := range c.nodes {
				if n.serving() {
					if r, ok := n.sa.CurrentPeer().Store.Range(); ok && r.Contains(rng.Hi) {
						return true
					}
				}
			}
			return false
		})
		revive = time.Since(killed)
	}()
	if err := probe.Insert(ctx, datastore.Item{Key: key, Payload: payloadFor(key)}); err == nil {
		outage = time.Since(killed) // left zero when the range never came back
	}
	wg.Wait()
	return outage, revive
}

// audit checks the index against the oracle once the load has stopped: one
// full-range query must return every key that has to be there and none that
// must not. On the WAL backend the data directories are then copied as a
// crash of every peer at that instant would leave them, and the copies are
// reopened and checked.
func (r *run) audit(ctx context.Context) error {
	o := r.drv.oracle
	present, absent := o.expected()
	qctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	items, err := r.cli.Query(qctx, keyspace.ClosedInterval(0, o.preloadMax+keyStep))
	if err != nil {
		return fmt.Errorf("final full-range query: %w", err)
	}
	got := make(map[keyspace.Key]string, len(items))
	for _, it := range items {
		got[it.Key] = it.Payload
	}
	for _, k := range present {
		if v, ok := got[k]; !ok || v != payloadFor(k) {
			r.rep.AuditMissing++
		}
	}
	for _, k := range absent {
		if _, ok := got[k]; ok {
			r.rep.AuditPhantom++
		}
	}
	r.rep.ServingEnd = r.cl.servingCount()
	r.end = r.snapshotCounters()
	if r.cfg.spec.wal {
		image := filepath.Join(r.cfg.runDir, "crash-image")
		if err := crashImage(r.cl.dataDir, image); err != nil {
			return fmt.Errorf("taking the crash image: %w", err)
		}
		lost, load, err := durabilityAudit(image, present, absent)
		if err != nil {
			return fmt.Errorf("durability audit: %w", err)
		}
		r.rep.LostAckedWrites, r.loadTime = lost, load
	}
	return nil
}
