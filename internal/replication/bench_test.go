package replication

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
)

// pushMeter counts the bytes the origin streams as rep.push bulk calls.
type pushMeter struct {
	*simnet.Network
	pushes, bytes atomic.Uint64
}

func (p *pushMeter) OpenStream(ctx context.Context, from, to transport.Addr, method string) (transport.Stream, error) {
	st, err := p.Network.OpenStream(ctx, from, to, method)
	if err != nil || method != methodPush.Name() {
		return st, err
	}
	p.pushes.Add(1)
	return meteredStream{Stream: st, bytes: &p.bytes}, nil
}

type meteredStream struct {
	transport.Stream
	bytes *atomic.Uint64
}

func (s meteredStream) Chunk(ctx context.Context, data []byte) error {
	s.bytes.Add(uint64(len(data)))
	return s.Stream.Chunk(ctx, data)
}

// BenchmarkRefreshSteadyState measures what one mutation costs the
// replication path once the successors are up to date: an origin holding 99
// (or 1,999) items of 128 bytes (the client-path benchmark's payload) with
// k = 3 successors applies one insert or delete and refreshes, b.N times. It
// reports the bytes of one push and the replica records each holder journals
// per mutation, and fails if that exceeds 1 — the steady-state contract of
// the versioned push protocol (re-pushing the range would journal ~100). It
// also fails if a refresh over 2,000 items costs more than 3x one over 100
// in the same run: steady state costs what the change costs, at the origin
// and at every holder, not what the range holds. Self-normalized, so it does
// not depend on the hardware.
func BenchmarkRefreshSteadyState(b *testing.B) {
	perOp := map[int]time.Duration{}
	for _, items := range []int{100, 2000} {
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			perOp[items] = refreshSteadyState(b, items)
		})
	}
	if small, big := perOp[100], perOp[2000]; small > 0 && big > 3*small {
		b.Fatalf("a refresh over 2000 items costs %v, over 100 items %v: more than 3x", big, small)
	}
}

// refreshSteadyState runs one size of BenchmarkRefreshSteadyState and returns
// the time per mutation and refresh.
func refreshSteadyState(b *testing.B, items int) time.Duration {
	const k = 3
	h := newRepHarness(b)
	h.span = uint64(items)
	r := bootProto(b, h, k+1, k)
	meter := &pushMeter{Network: r.h.net}
	r.origin.net = meter
	// The harness gives the origin the range (0, items]: fill it, leaving one
	// key free for the mutations.
	hot := uint64(items / 2)
	payload := strings.Repeat("p", 128)
	for key := uint64(1); key <= uint64(items); key++ {
		if key != hot {
			r.put(key, payload)
		}
	}
	r.origin.RefreshOnce()
	start := make([]uint64, k)
	for j, hm := range r.holders {
		start[j] = journaled(hm)
	}
	pushes, bytes := meter.pushes.Load(), meter.bytes.Load()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			r.put(hot, payload)
		} else {
			r.del(hot)
		}
		r.origin.RefreshOnce()
	}
	b.StopTimer()

	worst := 0.0
	for j, hm := range r.holders {
		if per := float64(journaled(hm)-start[j]) / float64(b.N); per > worst {
			worst = per
		}
	}
	b.ReportMetric(worst, "records/mutation")
	b.ReportMetric(float64(meter.bytes.Load()-bytes)/float64(meter.pushes.Load()-pushes), "bytes/push")
	if worst > 1 {
		b.Fatalf("a holder journaled %.2f replica records per mutation, want at most 1", worst)
	}
	return b.Elapsed() / time.Duration(b.N)
}
