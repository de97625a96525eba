package tcp

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// BenchmarkPipelinedCalls measures single-connection call throughput as the
// number of in-flight calls grows. The handler holds each request ~100µs
// (standing in for real protocol work), so the sequential baseline
// (depth=1) is bounded by one round trip plus handler latency per call,
// while pipelined depths overlap handler latencies on the same multiplexed
// connection: throughput must scale with depth. The benchmark fails below
// the acceptance bar of 2x at depth 8 over depth 1 — both measured in this
// run, so the bar holds on any hardware (typical is ~12x). A -bench pattern
// that selects only some depths skips the check.
//
// Run with:
//
//	go test -run '^$' -bench BenchmarkPipelinedCalls ./internal/transport/tcp/
func BenchmarkPipelinedCalls(b *testing.B) {
	rate := map[int]float64{} // depth -> calls/sec of its last (largest b.N) run
	for _, depth := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			rate[depth] = benchPipelined(b, depth)
		})
	}
	if rate[1] > 0 && rate[8] > 0 && rate[8] < 2*rate[1] {
		b.Fatalf("depth 8 ran %.0f calls/sec, %.2fx depth 1's %.0f; want at least 2x", rate[8], rate[8]/rate[1], rate[1])
	}
}

// benchPipelined runs b.N echo calls with at most depth in flight and
// returns the calls/sec it reports.
func benchPipelined(b *testing.B, depth int) float64 {
	handler := func(_ transport.Addr, _ string, p any) (any, error) {
		time.Sleep(100 * time.Microsecond)
		return p, nil
	}
	tr := New(Config{DialTimeout: time.Second, CallTimeout: 30 * time.Second, ConnsPerPeer: 1})
	defer tr.Close()
	a, err := tr.Listen("127.0.0.1:0", handler)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := tr.Listen("127.0.0.1:0", handler)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Warm the connection so dialing stays out of the measurement.
	if _, err := tr.Call(ctx, a, dst, "echo", echoMsg{}); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	start := time.Now()
	sem := make(chan struct{}, depth)
	var wg sync.WaitGroup
	var failed sync.Once
	var benchErr error
	for i := 0; i < b.N; i++ {
		sem <- struct{}{}
		wg.Add(1)
		p := tr.CallAsync(ctx, a, dst, "echo", echoMsg{N: i})
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := p.Result(); err != nil {
				failed.Do(func() { benchErr = err })
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	rate := float64(b.N) / time.Since(start).Seconds()
	b.ReportMetric(rate, "calls/sec")
	return rate
}
