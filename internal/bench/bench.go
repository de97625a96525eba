// Package bench regenerates every figure of the paper's evaluation
// (Section 6). The paper ran 30 peers on a LAN cluster with second-scale
// parameters; here the same workloads run in-process with every period
// scaled by Params.Scale (the real duration of one "paper second"), so the
// reported series are comparable in shape: who wins, by what factor, and how
// curves respond to the swept parameter. Measured durations are scaled back
// up to paper seconds before they are reported.
//
//	Figure 19 — insertSucc time vs successor list length (PEPPER vs naive)
//	Figure 20 — insertSucc time vs ring stabilization period (PEPPER vs
//	            naive, plus a no-proactive-contact ablation)
//	Figure 21 — range search time vs hops (scanRange vs naive application scan)
//	Figure 22 — leave/merge time vs successor list length (PEPPER leave,
//	            leave+merge, naive leave)
//	Figure 23 — insertSucc time vs peer failure rate (failure mode)
package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/metrics"
	"repro/internal/replication"
	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Params configures one experiment run; zero fields take the paper defaults
// (Section 6.1).
type Params struct {
	// Scale is the real duration of one paper second (default 5ms).
	Scale time.Duration
	// SuccListLen is the ring successor list length (paper default 4).
	SuccListLen int
	// StabPeriodS is the ring stabilization period in paper seconds (4).
	StabPeriodS float64
	// StorageFactor is the Data Store sf (5).
	StorageFactor int
	// ReplicationFactor is the Replication Manager k (6).
	ReplicationFactor int
	// ItemsPerS is the item insertion rate per paper second (2).
	ItemsPerS float64
	// RunS is the measured run length in paper seconds.
	RunS float64
	// FreePeers is the size of the free pool backing splits.
	FreePeers int
	// Naive switches the ring (insertSucc/leave) and replication to the
	// Section 6.2 baselines.
	Naive bool
	// NoProactive disables the proactive predecessor contact (ablation).
	NoProactive bool
	// FailuresPer100S is the failure-mode kill rate (Section 6.3.4).
	FailuresPer100S float64
	// Seed drives the workload generators.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.Scale <= 0 {
		p.Scale = 5 * time.Millisecond
	}
	if p.SuccListLen <= 0 {
		p.SuccListLen = 4
	}
	if p.StabPeriodS <= 0 {
		p.StabPeriodS = 4
	}
	if p.StorageFactor <= 0 {
		p.StorageFactor = 5
	}
	if p.ReplicationFactor <= 0 {
		p.ReplicationFactor = 6
	}
	if p.ItemsPerS <= 0 {
		p.ItemsPerS = 2
	}
	if p.RunS <= 0 {
		p.RunS = 90
	}
	if p.FreePeers <= 0 {
		p.FreePeers = 48
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// scaled converts paper seconds into real time under p.Scale.
func (p Params) scaled(paperSeconds float64) time.Duration {
	return time.Duration(paperSeconds * float64(p.Scale))
}

// paperSeconds converts a measured real duration into paper seconds.
func (p Params) paperSeconds(d time.Duration) float64 {
	return float64(d) / float64(p.Scale)
}

// run is a booted cluster plus its recorders.
type run struct {
	params   Params
	cluster  *core.Cluster
	insSucc  *metrics.Recorder
	leave    *metrics.Recorder
	merge    *metrics.Recorder
	keys     *workload.SequentialKeys
	inserted []keyspace.Key
}

// config derives the full component configuration from the parameters.
func (p Params) config() core.Config {
	stab := p.scaled(p.StabPeriodS)
	// LAN latency in the paper's cluster is sub-millisecond against 4 s
	// stabilization periods; keep the same three-orders-of-magnitude gap.
	lat := p.Scale / 200
	if lat <= 0 {
		lat = 10 * time.Microsecond
	}
	return core.Config{
		Net: simnet.Config{
			MinLatency:    lat / 2,
			MaxLatency:    lat,
			DeadCallDelay: stab / 4,
			Seed:          p.Seed,
		},
		Ring: ring.Config{
			SuccListLen: p.SuccListLen,
			StabPeriod:  stab,
			PingPeriod:  stab,
			CallTimeout: 4 * stab,
			AckTimeout:  100 * stab,
			Naive:       p.Naive,
			NoProactive: p.NoProactive,
		},
		Store: datastore.Config{
			StorageFactor:      p.StorageFactor,
			CheckPeriod:        stab / 2,
			CallTimeout:        4 * stab,
			MaintenanceTimeout: 100 * stab,
		},
		Replication: replication.Config{
			Factor:        p.ReplicationFactor,
			RefreshPeriod: stab,
			CallTimeout:   4 * stab,
			Naive:         p.Naive,
		},
		Router: router.Config{
			RefreshPeriod: 2 * stab,
			CallTimeout:   4 * stab,
			MaxHops:       256,
		},
		QueryAttemptTimeout: 40 * stab,
		MaxQueryAttempts:    40,
		Seed:                p.Seed,
	}
}

// boot starts a cluster and hooks the recorders into every peer's Data Store.
func boot(p Params) (*run, error) {
	r := &run{
		params:  p,
		insSucc: metrics.NewRecorder("insertSucc"),
		leave:   metrics.NewRecorder("leaveRing"),
		merge:   metrics.NewRecorder("leaveRing+merge"),
		keys:    workload.NewSequentialKeys(1000, 1000),
	}
	cfg := p.config()
	cfg.Store.InsertSuccRecorder = r.insSucc
	cfg.Store.LeaveRecorder = r.leave
	cfg.Store.MergeRecorder = r.merge
	r.cluster = core.NewCluster(cfg)
	if _, err := r.cluster.AddFirstPeer(); err != nil {
		return nil, err
	}
	if err := r.cluster.AddFreePeers(p.FreePeers); err != nil {
		return nil, err
	}
	return r, nil
}

// insertNext inserts the next sequential item, remembering its key.
func (r *run) insertNext(ctx context.Context) error {
	k := r.keys.Next()
	if err := r.cluster.InsertItem(ctx, datastore.Item{Key: k, Payload: "bench"}); err != nil {
		return err
	}
	r.inserted = append(r.inserted, k)
	return nil
}

// growTo inserts items until the ring has at least n serving peers.
func (r *run) growTo(ctx context.Context, n int) error {
	for i := 0; i < 100000; i++ {
		if len(r.cluster.LivePeers()) >= n {
			return nil
		}
		if err := r.insertNext(ctx); err != nil {
			return err
		}
	}
	return fmt.Errorf("bench: ring never reached %d peers", n)
}

// failFreeChurn runs the fail-free mode of Section 6.1 — items inserted at
// ItemsPerS (driving splits, hence insertSucc operations) — for RunS paper
// seconds.
func (r *run) failFreeChurn(ctx context.Context) error {
	pacer := workload.NewPacer(r.params.ItemsPerS, r.params.Scale)
	deadline := time.NewTimer(r.params.scaled(r.params.RunS))
	defer deadline.Stop()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		<-deadline.C
		cancel()
	}()
	pacer.Run(runCtx, func() bool {
		_ = r.insertNext(ctx) // transient routing failures are fine
		return true
	})
	return nil
}

// Fig19 measures insertSucc time against the successor list length
// (Section 6.3.1, Figure 19): the PEPPER insertSucc must propagate the new
// pointer to as many predecessors as the list is long, while the naive
// insertSucc contacts only the successor.
func Fig19(p Params, lengths []int) (*metrics.Figure, error) {
	p = p.withDefaults()
	if len(lengths) == 0 {
		lengths = []int{2, 3, 4, 5, 6, 7, 8}
	}
	fig := &metrics.Figure{
		Title:  "Figure 19: overhead of insertSucc vs successor list length",
		XLabel: "succ list length",
		YLabel: "insertSucc time (paper seconds)",
	}
	ctx := context.Background()
	for _, d := range lengths {
		fig.XOrder = append(fig.XOrder, fmt.Sprint(d))
		for _, naive := range []bool{false, true} {
			pp := p
			pp.SuccListLen = d
			pp.Naive = naive
			r, err := boot(pp)
			if err != nil {
				return nil, err
			}
			if err := r.growTo(ctx, 12); err != nil {
				r.cluster.Shutdown()
				return nil, err
			}
			r.insSucc.Reset()
			if err := r.failFreeChurn(ctx); err != nil {
				r.cluster.Shutdown()
				return nil, err
			}
			s := r.insSucc.Summarize()
			r.cluster.Shutdown()
			label := "insertSuccessor"
			if naive {
				label = "naive insertSuccessor"
			}
			fig.AddPoint(label, fmt.Sprint(d), pp.paperSeconds(s.Mean))
		}
	}
	return fig, nil
}

// Fig20 measures insertSucc time against the ring stabilization period
// (Section 6.3.1, Figure 20). The proactive predecessor contact largely
// decouples PEPPER's latency from the period; the NoProactive ablation shows
// what the optimization buys.
func Fig20(p Params, periods []float64, withAblation bool) (*metrics.Figure, error) {
	p = p.withDefaults()
	if len(periods) == 0 {
		periods = []float64{2, 3, 4, 5, 6, 7, 8}
	}
	fig := &metrics.Figure{
		Title:  "Figure 20: overhead of insertSucc vs ring stabilization period",
		XLabel: "stabilization period (paper s)",
		YLabel: "insertSucc time (paper seconds)",
	}
	ctx := context.Background()
	type variant struct {
		label       string
		naive       bool
		noProactive bool
	}
	variants := []variant{
		{label: "insertSuccessor"},
		{label: "naive insertSuccessor", naive: true},
	}
	if withAblation {
		variants = append(variants, variant{label: "insertSuccessor w/o proactive", noProactive: true})
	}
	for _, period := range periods {
		x := fmt.Sprint(period)
		fig.XOrder = append(fig.XOrder, x)
		for _, v := range variants {
			pp := p
			pp.StabPeriodS = period
			pp.Naive = v.naive
			pp.NoProactive = v.noProactive
			r, err := boot(pp)
			if err != nil {
				return nil, err
			}
			if err := r.growTo(ctx, 12); err != nil {
				r.cluster.Shutdown()
				return nil, err
			}
			r.insSucc.Reset()
			if err := r.failFreeChurn(ctx); err != nil {
				r.cluster.Shutdown()
				return nil, err
			}
			s := r.insSucc.Summarize()
			r.cluster.Shutdown()
			fig.AddPoint(v.label, x, pp.paperSeconds(s.Mean))
		}
	}
	return fig, nil
}

// Fig21 measures range search time against the number of ring hops
// (Section 6.3.2, Figure 21), isolating the scan by starting the clock after
// the first peer is found — for scanRange and for the naive application
// scan. Queries of random span are issued from random peers and bucketed by
// the hop count they actually took, like the paper.
func Fig21(p Params, maxHops, queries int) (*metrics.Figure, error) {
	p = p.withDefaults()
	if maxHops <= 0 {
		maxHops = 12
	}
	if queries <= 0 {
		queries = 400
	}
	fig := &metrics.Figure{
		Title:  "Figure 21: overhead of scanRange vs hops along the ring",
		XLabel: "num hops along ring",
		YLabel: "range search time (paper seconds)",
	}
	for h := 0; h <= maxHops; h++ {
		fig.XOrder = append(fig.XOrder, fmt.Sprint(h))
	}
	ctx := context.Background()
	for _, naive := range []bool{false, true} {
		pp := p
		r, err := boot(pp)
		if err != nil {
			return nil, err
		}
		if err := r.growTo(ctx, maxHops+3); err != nil {
			r.cluster.Shutdown()
			return nil, err
		}
		// Quiesce: let stabilization, routing and replication settle.
		time.Sleep(pp.scaled(3 * pp.StabPeriodS))

		buckets := make([]*metrics.Recorder, maxHops+1)
		for h := range buckets {
			buckets[h] = metrics.NewRecorder(fmt.Sprint(h))
		}
		span := workload.NewSpanGen(pp.Seed, 1000, uint64(1000*(len(r.inserted))), 1)
		lives := r.cluster.LivePeers()
		for q := 0; q < queries; q++ {
			origin := lives[q%len(lives)]
			// Random width between 1 and the whole inserted span.
			width := uint64(q%len(r.inserted) + 1)
			base := span.Next()
			iv := keyspace.ClosedInterval(base.Lb, base.Lb+keyspace.Key(width*1000))
			var stats core.QueryStats
			var err error
			if naive {
				_, stats, err = r.cluster.NaiveQueryStatsFrom(ctx, origin, iv)
			} else {
				_, stats, err = r.cluster.RangeQueryStatsFrom(ctx, origin, iv)
			}
			if err != nil {
				continue
			}
			if stats.Hops >= 0 && stats.Hops <= maxHops {
				buckets[stats.Hops].Observe(stats.ScanTime)
			}
		}
		r.cluster.Shutdown()
		label := "search using scanRange"
		if naive {
			label = "naive application search"
		}
		for h, rec := range buckets {
			if s := rec.Summarize(); s.Count > 0 {
				fig.AddPoint(label, fmt.Sprint(h), pp.paperSeconds(s.Mean))
			}
		}
	}
	return fig, nil
}

// Fig22 measures the graceful-leave machinery against the successor list
// length (Section 6.3.3, Figure 22): the PEPPER leave (ring ack), the whole
// merge operation (leave + replicate-to-additional-hop + hand-off), and the
// naive leave that just departs.
func Fig22(p Params, lengths []int) (*metrics.Figure, error) {
	p = p.withDefaults()
	if len(lengths) == 0 {
		lengths = []int{2, 3, 4, 5, 6, 7, 8}
	}
	fig := &metrics.Figure{
		Title:  "Figure 22: overhead of leave vs successor list length",
		XLabel: "succ list length",
		YLabel: "time (paper seconds)",
	}
	ctx := context.Background()
	for _, d := range lengths {
		x := fmt.Sprint(d)
		fig.XOrder = append(fig.XOrder, x)
		for _, naive := range []bool{false, true} {
			pp := p
			pp.SuccListLen = d
			pp.Naive = naive
			r, err := boot(pp)
			if err != nil {
				return nil, err
			}
			if err := r.growTo(ctx, 10); err != nil {
				r.cluster.Shutdown()
				return nil, err
			}
			time.Sleep(pp.scaled(2 * pp.StabPeriodS))
			// Delete items to force underflows and merges (Section 6.3.3).
			for _, k := range r.inserted {
				_, _ = r.cluster.DeleteItem(ctx, k)
				if r.merge.Count() >= 6 {
					break
				}
			}
			// Allow in-flight merges to finish.
			time.Sleep(pp.scaled(4 * pp.StabPeriodS))
			leaveS := r.leave.Summarize()
			mergeS := r.merge.Summarize()
			r.cluster.Shutdown()
			if naive {
				if leaveS.Count > 0 {
					fig.AddPoint("naive leave", x, pp.paperSeconds(leaveS.Mean))
				}
				continue
			}
			if leaveS.Count > 0 {
				fig.AddPoint("leaveRing", x, pp.paperSeconds(leaveS.Mean))
			}
			if mergeS.Count > 0 {
				fig.AddPoint("leaveRing+merge", x, pp.paperSeconds(mergeS.Mean))
			}
		}
	}
	return fig, nil
}

// Fig23 measures insertSucc time against the peer failure rate
// (Section 6.3.4, Figure 23): the failure mode inserts items continuously
// while peers are killed at the given rate per 100 paper seconds.
func Fig23(p Params, rates []float64) (*metrics.Figure, error) {
	p = p.withDefaults()
	if len(rates) == 0 {
		rates = []float64{0, 2, 4, 6, 8, 10, 12}
	}
	fig := &metrics.Figure{
		Title:  "Figure 23: insertSucc in failure mode",
		XLabel: "failure rate (failures per 100 paper s)",
		YLabel: "insertSucc time (paper seconds)",
	}
	ctx := context.Background()
	for _, rate := range rates {
		x := fmt.Sprint(rate)
		fig.XOrder = append(fig.XOrder, x)
		pp := p
		pp.FailuresPer100S = rate
		r, err := boot(pp)
		if err != nil {
			return nil, err
		}
		if err := r.growTo(ctx, 10); err != nil {
			r.cluster.Shutdown()
			return nil, err
		}
		time.Sleep(pp.scaled(2 * pp.StabPeriodS))
		r.insSucc.Reset()

		runCtx, cancel := context.WithTimeout(ctx, pp.scaled(pp.RunS))
		inj := workload.NewFailureInjector(pp.Seed)
		done := make(chan struct{})
		go func() {
			defer close(done)
			if rate <= 0 {
				<-runCtx.Done()
				return
			}
			killer := workload.NewPacer(rate/100, pp.Scale)
			killer.Run(runCtx, func() bool {
				live := r.cluster.LivePeers()
				if len(live) > 4 {
					r.cluster.KillPeer(live[inj.Pick(len(live))].Addr)
				}
				return true
			})
		}()
		pacer := workload.NewPacer(pp.ItemsPerS, pp.Scale)
		pacer.Run(runCtx, func() bool {
			_ = r.insertNext(ctx)
			return true
		})
		cancel()
		<-done
		s := r.insSucc.Summarize()
		r.cluster.Shutdown()
		if s.Count > 0 {
			fig.AddPoint("insertSuccessor", x, pp.paperSeconds(s.Mean))
		}
	}
	return fig, nil
}
