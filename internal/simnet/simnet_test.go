package simnet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// fastConfig removes latency so unit tests run instantly.
func fastConfig() Config {
	return Config{DeadCallDelay: time.Millisecond, Seed: 1}
}

func echoHandler(from transport.Addr, method string, payload any) (any, error) {
	return payload, nil
}

func TestRegisterAndCall(t *testing.T) {
	n := New(fastConfig())
	if err := n.Register("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler); err != nil {
		t.Fatal(err)
	}
	resp, err := n.Call(context.Background(), "a", "b", "echo", 42)
	if err != nil {
		t.Fatal(err)
	}
	if resp != 42 {
		t.Errorf("resp = %v, want 42", resp)
	}
}

func TestDuplicateRegister(t *testing.T) {
	n := New(fastConfig())
	if err := n.Register("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("a", echoHandler); !errors.Is(err, transport.ErrDuplicate) {
		t.Errorf("err = %v, want transport.ErrDuplicate", err)
	}
}

func TestNilHandlerRejected(t *testing.T) {
	n := New(fastConfig())
	if err := n.Register("a", nil); err == nil {
		t.Error("nil handler must be rejected")
	}
}

func TestCallToDeadPeer(t *testing.T) {
	n := New(fastConfig())
	if err := n.Register("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler); err != nil {
		t.Fatal(err)
	}
	n.Kill("b")
	start := time.Now()
	_, err := n.Call(context.Background(), "a", "b", "echo", 1)
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Errorf("err = %v, want transport.ErrUnreachable", err)
	}
	if elapsed := time.Since(start); elapsed < time.Millisecond {
		t.Errorf("dead call returned in %v, want >= DeadCallDelay", elapsed)
	}
}

func TestCallToUnknownPeer(t *testing.T) {
	n := New(fastConfig())
	if err := n.Register("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Call(context.Background(), "a", "ghost", "echo", 1); !errors.Is(err, transport.ErrUnreachable) {
		t.Errorf("err = %v, want transport.ErrUnreachable", err)
	}
}

func TestDeadSenderCannotCall(t *testing.T) {
	n := New(fastConfig())
	if err := n.Register("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler); err != nil {
		t.Fatal(err)
	}
	n.Kill("a")
	if _, err := n.Call(context.Background(), "a", "b", "echo", 1); !errors.Is(err, transport.ErrSenderDead) {
		t.Errorf("err = %v, want transport.ErrSenderDead", err)
	}
}

func TestReviveAfterKill(t *testing.T) {
	n := New(fastConfig())
	if err := n.Register("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler); err != nil {
		t.Fatal(err)
	}
	n.Kill("b")
	if err := n.Register("b", echoHandler); err != nil {
		t.Fatalf("re-registering a dead peer should revive it: %v", err)
	}
	if _, err := n.Call(context.Background(), "a", "b", "echo", 1); err != nil {
		t.Errorf("call after revive failed: %v", err)
	}
}

func TestHandlerError(t *testing.T) {
	n := New(fastConfig())
	boom := errors.New("boom")
	if err := n.Register("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", func(transport.Addr, string, any) (any, error) { return nil, boom }); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Call(context.Background(), "a", "b", "x", nil); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestSendAsync(t *testing.T) {
	n := New(fastConfig())
	var got atomic.Int64
	done := make(chan struct{})
	if err := n.Register("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	err := n.Register("b", func(from transport.Addr, method string, payload any) (any, error) {
		got.Store(int64(payload.(int)))
		close(done)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Send("a", "b", "notify", 7)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("send never delivered")
	}
	if got.Load() != 7 {
		t.Errorf("payload = %d, want 7", got.Load())
	}
}

func TestSendToDeadPeerSilent(t *testing.T) {
	n := New(fastConfig())
	if err := n.Register("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	n.Send("a", "ghost", "notify", 1) // must not panic
	time.Sleep(5 * time.Millisecond)
	if f := n.Stats().Failures; f == 0 {
		t.Error("failed send should be counted")
	}
}

func TestCallContextCancellation(t *testing.T) {
	cfg := fastConfig()
	cfg.DeadCallDelay = time.Minute // would block forever without ctx
	n := New(cfg)
	if err := n.Register("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := n.Call(ctx, "a", "ghost", "echo", 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Error("context cancellation did not interrupt the dead-call delay")
	}
}

func TestLatencyApplied(t *testing.T) {
	cfg := Config{MinLatency: 2 * time.Millisecond, MaxLatency: 3 * time.Millisecond, DeadCallDelay: time.Millisecond, Seed: 1}
	n := New(cfg)
	if err := n.Register("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := n.Call(context.Background(), "a", "b", "echo", 1); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Errorf("round trip took %v, want >= 2x min latency", elapsed)
	}
}

func TestStatsCounting(t *testing.T) {
	n := New(fastConfig())
	if err := n.Register("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echoHandler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := n.Call(context.Background(), "a", "b", "ping", nil); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.Calls != 5 {
		t.Errorf("Calls = %d, want 5", st.Calls)
	}
	if st.ByMethod["ping"] != 5 {
		t.Errorf("ByMethod[ping] = %d, want 5", st.ByMethod["ping"])
	}
}

func TestConcurrentTraffic(t *testing.T) {
	n := New(fastConfig())
	const peers = 16
	for i := 0; i < peers; i++ {
		addr := transport.Addr(fmt.Sprintf("p%d", i))
		if err := n.Register(addr, echoHandler); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, peers*100)
	for i := 0; i < peers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			from := transport.Addr(fmt.Sprintf("p%d", i))
			for j := 0; j < 100; j++ {
				to := transport.Addr(fmt.Sprintf("p%d", (i+j)%peers))
				if _, err := n.Call(context.Background(), from, to, "echo", j); err != nil {
					errs <- err
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := n.Stats().Calls; got != peers*100 {
		t.Errorf("Calls = %d, want %d", got, peers*100)
	}
}

func TestKillDuringProcessingLosesResponse(t *testing.T) {
	n := New(fastConfig())
	if err := n.Register("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	proceed := make(chan struct{})
	err := n.Register("b", func(transport.Addr, string, any) (any, error) {
		close(started)
		<-proceed
		return "late", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-started
		n.Kill("b")
		close(proceed)
	}()
	_, err = n.Call(context.Background(), "a", "b", "slow", nil)
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Errorf("err = %v, want transport.ErrUnreachable when destination dies mid-call", err)
	}
}
