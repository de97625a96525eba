package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// The decorator must keep every optional capability of the transport it
// wraps: the protocol layers find them by type assertion.
var (
	_ transport.Transport         = (*tracedTransport)(nil)
	_ transport.AsyncCaller       = (*tracedTransport)(nil)
	_ transport.StreamOpener      = (*tracedTransport)(nil)
	_ transport.Deregistrar       = (*tracedTransport)(nil)
	_ transport.WireStatsProvider = (*tracedTransport)(nil)
	_ transport.Resumer           = (*tracedStream)(nil)
)

func sp(name string, start, end int64) span { return span{Name: name, Start: start, End: end} }

func TestAttributeSequentialChildren(t *testing.T) {
	self, by := attribute(sp("op", 0, 100), []span{sp("a", 10, 30), sp("b", 50, 90)})
	if self != 40 || by["a"] != 20 || by["b"] != 40 {
		t.Fatalf("self %d by %v, want 40, a 20, b 40", self, by)
	}
}

func TestAttributeOverlappingAsyncChildren(t *testing.T) {
	// Two pipelined segment scans overlap for 20 of their 40 and 30 units;
	// the overlapped stretch is shared, not counted twice.
	self, by := attribute(sp("op", 0, 100), []span{sp("seg", 10, 50), sp("seg", 30, 60), sp("hop", 0, 10)})
	if self != 40 || by["seg"] != 50 || by["hop"] != 10 {
		t.Fatalf("self %d by %v, want 40, seg 50, hop 10", self, by)
	}
	// Different methods overlapping split the shared stretch between them.
	self, by = attribute(sp("op", 0, 100), []span{sp("a", 0, 60), sp("b", 40, 100)})
	if self != 0 || by["a"] != 50 || by["b"] != 50 {
		t.Fatalf("self %d by %v, want 0, a 50, b 50", self, by)
	}
}

func TestAttributeChildOutlivingParent(t *testing.T) {
	// A cancelled speculative segment resolves after the operation returned,
	// and one began before it (clock skew between recorders): both are
	// clipped to the parent's interval.
	self, by := attribute(sp("op", 100, 200), []span{sp("late", 150, 400), sp("early", 50, 120), sp("after", 250, 300)})
	if self != 30 || by["late"] != 50 || by["early"] != 20 || by["after"] != 0 {
		t.Fatalf("self %d by %v, want 30, late 50, early 20, after 0", self, by)
	}
}

func TestAttributeNoChildren(t *testing.T) {
	if self, by := attribute(sp("op", 5, 25), nil); self != 20 || len(by) != 0 {
		t.Fatalf("self %d by %v", self, by)
	}
}

// One traced exchange end to end: the dial side names the root span carried
// in the context, the serving side records method and caller, and a stream
// reports its exact bytes.
func TestDecoratorRecordsSpans(t *testing.T) {
	tr := newTracer()
	server := tr.wrap(tcp.New(tcp.Config{}), "server")
	defer server.Close()
	addr, err := freeLoopbackAddr()
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Register(addr, func(_ transport.Addr, _ string, p any) (any, error) { return p, nil }); err != nil {
		t.Fatal(err)
	}
	cli := tr.wrap(tcp.New(tcp.Config{}), "client")
	defer cli.Close()

	ctx, cancel := context.WithTimeout(withSpan(context.Background(), 77), 5*time.Second)
	defer cancel()
	if _, err := cli.Call(ctx, "client", addr, "echo", benchEcho{Body: []byte("sync")}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.CallAsync(ctx, "client", addr, "echo", benchEcho{Body: []byte("async")}).Result(); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 100_000)
	if _, err := transport.CallBulk(cli, ctx, "client", addr, "bulk", benchEcho{Body: body}); err != nil {
		t.Fatal(err)
	}
	tr.on.Store(false)
	if _, err := cli.Call(ctx, "client", addr, "echo", benchEcho{}); err != nil {
		t.Fatal(err)
	}

	count := map[spanKind]int{}
	for _, s := range tr.snapshot() {
		count[s.Kind]++
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		switch s.Kind {
		case spanRPC, spanStream:
			if s.Parent != 77 || s.At != "client" {
				t.Errorf("dial-side span %+v does not name its root and endpoint", s)
			}
			if s.Kind == spanStream && s.Bytes < int64(len(body)) {
				t.Errorf("stream span carries %d bytes, sent at least %d", s.Bytes, len(body))
			}
		case spanHandler:
			if s.From != "client" || s.At != string(addr) {
				t.Errorf("handler span %+v does not name caller and endpoint", s)
			}
		}
	}
	if count[spanRPC] != 2 || count[spanStream] != 1 || count[spanHandler] != 3 {
		t.Fatalf("span counts %v, want 2 rpc, 1 stream, 3 handler (none while the tracer was off)", count)
	}
	if mean, calls := tr.meanBytes("echo"); calls != 2 || mean <= 0 {
		t.Fatalf("echo payload sizes: mean %v over %d calls", mean, calls)
	}
}
