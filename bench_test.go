// Benchmarks regenerating the paper's evaluation (Section 6): one benchmark
// per figure, each running a reduced sweep of the same experiment the
// figure plots and logging the series, plus micro-benchmarks for the index
// operations themselves. The full sweeps run through cmd/benchrunner; see
// internal/bench for how paper seconds are scaled.
//
//	go test -bench=. -benchmem
package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/metrics"
	"repro/internal/replication"
	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/simnet"
)

// benchParams keeps figure regeneration fast enough for `go test -bench`.
func benchParams() bench.Params {
	return bench.Params{
		Scale: 2 * time.Millisecond,
		RunS:  40,
		Seed:  1,
	}
}

// reportFigure logs the regenerated series and reports the mean of one
// reference series point as the benchmark metric (in paper milliseconds).
func reportFigure(b *testing.B, fig *metrics.Figure, refSeries string) {
	b.Helper()
	b.Log("\n" + fig.Render())
	for _, s := range fig.Series {
		if s.Label != refSeries {
			continue
		}
		var sum float64
		var n int
		for _, y := range s.Points {
			sum += y
			n++
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n)*1000, "paper-ms/op")
		}
	}
}

// BenchmarkFig19InsertSucc regenerates Figure 19: insertSucc time vs
// successor list length, PEPPER vs naive.
func BenchmarkFig19InsertSucc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig19(benchParams(), []int{2, 4, 6, 8})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, fig, "insertSuccessor")
		}
	}
}

// BenchmarkFig20InsertSucc regenerates Figure 20: insertSucc time vs ring
// stabilization period, with the no-proactive ablation.
func BenchmarkFig20InsertSucc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig20(benchParams(), []float64{2, 4, 6, 8}, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, fig, "insertSuccessor")
		}
	}
}

// BenchmarkFig21ScanRange regenerates Figure 21: range search time vs hops,
// scanRange vs naive application search.
func BenchmarkFig21ScanRange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig21(benchParams(), 8, 250)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, fig, "search using scanRange")
		}
	}
}

// BenchmarkFig22Leave regenerates Figure 22: leave and merge times vs
// successor list length, PEPPER vs naive leave.
func BenchmarkFig22Leave(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig22(benchParams(), []int{2, 4, 6, 8})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, fig, "leaveRing+merge")
		}
	}
}

// BenchmarkFig23FailureMode regenerates Figure 23: insertSucc time vs peer
// failure rate.
func BenchmarkFig23FailureMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig23(benchParams(), []float64{0, 6, 12})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportFigure(b, fig, "insertSuccessor")
		}
	}
}

// --- Micro-benchmarks on a steady cluster ---------------------------------

func steadyCluster(b *testing.B) *core.Cluster {
	b.Helper()
	cfg := core.Config{
		Net: simnet.Config{DeadCallDelay: 2 * time.Millisecond, Seed: 1},
		Ring: ring.Config{
			SuccListLen: 4,
			StabPeriod:  10 * time.Millisecond,
			CallTimeout: 50 * time.Millisecond,
		},
		Store:               datastore.Config{StorageFactor: 10, CheckPeriod: 20 * time.Millisecond},
		Replication:         replication.Config{Factor: 3, RefreshPeriod: 25 * time.Millisecond},
		Router:              router.Config{RefreshPeriod: 20 * time.Millisecond},
		QueryAttemptTimeout: 2 * time.Second,
		Seed:                1,
	}
	c := core.NewCluster(cfg)
	b.Cleanup(c.Shutdown)
	if _, err := c.AddFirstPeer(); err != nil {
		b.Fatal(err)
	}
	if err := c.AddFreePeers(16); err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 1; i <= 120; i++ {
		it := datastore.Item{Key: keyspace.Key(i * 1000), Payload: fmt.Sprintf("seed-%d", i)}
		if err := c.InsertItem(ctx, it); err != nil {
			b.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond) // let splits and routing settle
	return c
}

// BenchmarkInsertItem measures routed item insertion on a steady ring.
func BenchmarkInsertItem(b *testing.B) {
	c := steadyCluster(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keyspace.Key(200_000 + i)
		if err := c.InsertItem(ctx, datastore.Item{Key: k, Payload: "bench"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeleteItem measures routed item deletion on a steady ring.
func BenchmarkDeleteItem(b *testing.B) {
	c := steadyCluster(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		k := keyspace.Key(300_000 + i)
		if err := c.InsertItem(ctx, datastore.Item{Key: k}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DeleteItem(ctx, keyspace.Key(300_000+i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeQueryNarrow measures a short (single-peer) range query.
func BenchmarkRangeQueryNarrow(b *testing.B) {
	c := steadyCluster(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb := keyspace.Key((i%100 + 1) * 1000)
		if _, err := c.RangeQuery(ctx, keyspace.ClosedInterval(lb, lb+2000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeQueryWide measures a multi-hop range query across the ring.
func BenchmarkRangeQueryWide(b *testing.B) {
	c := steadyCluster(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RangeQuery(ctx, keyspace.ClosedInterval(1000, 120_000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeQuery measures routed range queries with the owner-lookup
// cache cold (cleared before every query, forcing the full router descent)
// versus warm (the pipelined scan enters at the cached owner and validates
// there), across query spans from single-peer to most-of-the-ring.
func BenchmarkRangeQuery(b *testing.B) {
	for _, span := range []uint64{2, 20, 60} {
		for _, mode := range []string{"cold", "warm"} {
			b.Run(fmt.Sprintf("%s/span=%dk", mode, span), func(b *testing.B) {
				c := steadyCluster(b)
				ctx := context.Background()
				origin := c.LivePeers()[0]
				width := keyspace.Key(span * 1000)
				ivFor := func(i int) keyspace.Interval {
					lb := keyspace.Key((i%50 + 1) * 1000)
					return keyspace.ClosedInterval(lb, lb+width)
				}
				if mode == "warm" {
					for i := 0; i < 50; i++ {
						if _, _, err := origin.RangeQueryUnjournaled(ctx, ivFor(i)); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "cold" {
						origin.Router.Cache().Clear()
					}
					if _, _, err := origin.RangeQueryUnjournaled(ctx, ivFor(i)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFindOwner measures content routing to a key's owner.
func BenchmarkFindOwner(b *testing.B) {
	c := steadyCluster(b)
	ctx := context.Background()
	live := c.LivePeers()
	if len(live) == 0 {
		b.Fatal("no live peers")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		origin := live[i%len(live)]
		if _, _, err := origin.Router.FindOwner(ctx, keyspace.Key((i%120+1)*1000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouterHierarchical and BenchmarkRouterLinear compare the content
// router's doubling-pointer descent against the linear successor walk (the
// ablation DESIGN.md calls out): hops per lookup are reported alongside
// time per lookup.
func BenchmarkRouterHierarchical(b *testing.B) { benchRouter(b, false) }

// BenchmarkRouterLinear is the linear-walk arm of the router ablation.
func BenchmarkRouterLinear(b *testing.B) { benchRouter(b, true) }

func benchRouter(b *testing.B, linear bool) {
	c := steadyCluster(b)
	ctx := context.Background()
	live := c.LivePeers()
	if len(live) == 0 {
		b.Fatal("no live peers")
	}
	origin := live[0]
	totalHops := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keyspace.Key((i%120 + 1) * 1000)
		var hops int
		var err error
		if linear {
			_, hops, err = origin.Router.LinearFindOwner(ctx, key)
		} else {
			_, hops, err = origin.Router.FindOwner(ctx, key)
		}
		if err != nil {
			b.Fatal(err)
		}
		totalHops += hops
	}
	b.ReportMetric(float64(totalHops)/float64(b.N), "hops/op")
}
