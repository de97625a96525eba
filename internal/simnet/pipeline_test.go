package simnet

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

type bigPayload struct{ Data []byte }

func init() { transport.RegisterMessage(bigPayload{}) }

// transport.CallAsync must pipeline over simnet: many in-flight calls to the
// same peer overlap at the handler, exactly as on the multiplexed TCP
// transport.
func TestCallAsyncPipelinesToOnePeer(t *testing.T) {
	const depth = 8
	var inflight, peak atomic.Int64
	n := New(Config{DeadCallDelay: time.Millisecond, Seed: 1})
	slow := func(_ transport.Addr, _ string, p any) (any, error) {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		return p, nil
	}
	if err := n.Register("peer", slow); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("client", func(transport.Addr, string, any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	pends := make([]*transport.Pending, depth)
	for i := range pends {
		pends[i] = transport.CallAsync(n, context.Background(), "client", "peer", "m", i)
	}
	for i, p := range pends {
		got, err := p.Result()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got != i {
			t.Fatalf("call %d returned %v", i, got)
		}
	}
	if peak.Load() < 2 {
		t.Fatalf("handler concurrency peak %d, want >= 2 (async calls must overlap)", peak.Load())
	}
	if serialized := depth * 10 * time.Millisecond; time.Since(start) > serialized/2 {
		t.Fatalf("pipelined batch took %v, want well under the serialized %v", time.Since(start), serialized)
	}
}

// transport.CallAsync over simnet keeps Call's fail-stop semantics: a call to
// a dead peer resolves with ErrUnreachable after the dead-call delay.
func TestCallAsyncToDeadPeer(t *testing.T) {
	n := New(Config{DeadCallDelay: time.Millisecond, Seed: 1})
	if err := n.Register("client", func(transport.Addr, string, any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := transport.CallAsync(n, context.Background(), "client", "ghost", "m", nil).Result(); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("async call to dead peer: err = %v, want transport.ErrUnreachable", err)
	}
}

// A call obeys the TCP frame size limit in-process: a state transfer whose
// encoding exceeds transport.MaxFrameSize fails with the typed error instead
// of being silently unbounded, and the rejection is counted without polluting
// CodecErr (which tracks codec registration bugs). A bulk call is no
// exception: simnet carries each call as one message, so transport.CallBulk
// degrades to a plain Call and meets the same bound before any handler runs.
func TestBoundedCallEnforcesFrameLimit(t *testing.T) {
	n := New(Config{DeadCallDelay: time.Millisecond, Seed: 1})
	var handled atomic.Int64
	ok := func(transport.Addr, string, any) (any, error) {
		handled.Add(1)
		return true, nil
	}
	if err := n.Register("a", ok); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", ok); err != nil {
		t.Fatal(err)
	}

	_, err := n.Call(context.Background(), "a", "b", "ds.mergeIn", bigPayload{Data: make([]byte, transport.MaxFrameSize+1)})
	if !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("oversized call: err = %v, want ErrFrameTooLarge", err)
	}
	if errors.Is(err, transport.ErrUnreachable) {
		t.Fatal("oversized payload reported ErrUnreachable: a payload bug must not read as a peer failure")
	}
	if cerr := n.CodecErr(); cerr != nil {
		t.Fatalf("CodecErr = %v, want nil (size violations are not codec bugs)", cerr)
	}
	if st := n.Stats(); st.CodecFailures == 0 {
		t.Fatal("oversized payload not counted in CodecFailures")
	}

	_, err = transport.CallBulk(n, context.Background(), "a", "b", "rep.push", bigPayload{Data: make([]byte, transport.MaxFrameSize+1)})
	if !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("oversized bulk call: err = %v, want ErrFrameTooLarge", err)
	}
	if h := handled.Load(); h != 0 {
		t.Fatalf("handler ran %d times for oversized requests, want 0", h)
	}

	// Within the limit the same shape crosses fine.
	if _, err := n.Call(context.Background(), "a", "b", "ds.mergeIn", bigPayload{Data: make([]byte, 1024)}); err != nil {
		t.Fatalf("normal call: %v", err)
	}
}
