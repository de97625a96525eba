package tcp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

type echoMsg struct{ N int }
type echoResp struct{ N int }

func init() {
	transport.RegisterMessage(echoMsg{})
	transport.RegisterMessage(echoResp{})
}

// newPair starts two endpoints on loopback ephemeral ports and returns their
// bound addresses.
func newPair(t *testing.T, ha, hb transport.Handler) (*Transport, transport.Addr, transport.Addr) {
	t.Helper()
	return newPairTimeout(t, 2*time.Second, ha, hb)
}

// newPairTimeout is newPair with the given CallTimeout, for tests that move
// more through one call than fits in newPair's 2 s.
func newPairTimeout(t *testing.T, callTimeout time.Duration, ha, hb transport.Handler) (*Transport, transport.Addr, transport.Addr) {
	t.Helper()
	tr := New(Config{DialTimeout: time.Second, CallTimeout: callTimeout})
	t.Cleanup(func() { tr.Close() })
	a, err := tr.Listen("127.0.0.1:0", ha)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Listen("127.0.0.1:0", hb)
	if err != nil {
		t.Fatal(err)
	}
	return tr, a, b
}

func TestLoopbackCall(t *testing.T) {
	echo := func(from transport.Addr, method string, p any) (any, error) {
		m, ok := p.(echoMsg)
		if !ok {
			return nil, fmt.Errorf("bad payload %T", p)
		}
		return echoResp{N: m.N + 1}, nil
	}
	tr, a, b := newPair(t, echo, echo)

	got, err := tr.Call(context.Background(), a, b, "echo", echoMsg{N: 41})
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := got.(echoResp); !ok || r.N != 42 {
		t.Fatalf("got %#v, want echoResp{42}", got)
	}

	// A nil payload and a bare bool response cross the wire too.
	ok := func(transport.Addr, string, any) (any, error) { return true, nil }
	c, err := tr.Listen("127.0.0.1:0", ok)
	if err != nil {
		t.Fatal(err)
	}
	got, err = tr.Call(context.Background(), a, c, "ack", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != true {
		t.Fatalf("ack = %#v, want true", got)
	}
}

func TestLoopbackCallConcurrent(t *testing.T) {
	echo := func(_ transport.Addr, _ string, p any) (any, error) {
		time.Sleep(time.Millisecond)
		return p, nil
	}
	tr, a, b := newPair(t, echo, echo)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := tr.Call(context.Background(), a, b, "echo", echoMsg{N: i})
			if err != nil {
				errs <- err
				return
			}
			if m, ok := got.(echoMsg); !ok || m.N != i {
				errs <- fmt.Errorf("call %d returned %#v", i, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestLoopbackSend(t *testing.T) {
	delivered := make(chan echoMsg, 1)
	sink := func(_ transport.Addr, _ string, p any) (any, error) {
		if m, ok := p.(echoMsg); ok {
			delivered <- m
		}
		return nil, nil
	}
	tr, a, b := newPair(t, sink, sink)
	tr.Send(a, b, "oneway", echoMsg{N: 7})
	select {
	case m := <-delivered:
		if m.N != 7 {
			t.Fatalf("delivered %#v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("one-way message never delivered")
	}
}

func TestCallToDeadPeerIsUnreachable(t *testing.T) {
	tr := New(Config{DialTimeout: 200 * time.Millisecond, CallTimeout: 500 * time.Millisecond})
	t.Cleanup(func() { tr.Close() })
	start := time.Now()
	_, err := tr.Call(context.Background(), "", "127.0.0.1:1", "m", echoMsg{})
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dead call took %v; the delay must stay bounded", elapsed)
	}
}

func TestCallTimeoutOnSlowHandler(t *testing.T) {
	slow := func(transport.Addr, string, any) (any, error) {
		time.Sleep(2 * time.Second)
		return true, nil
	}
	tr, a, b := newPair(t, slow, slow)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tr.Call(ctx, a, b, "slow", echoMsg{})
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable (per-call deadline)", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timed-out call took %v, want ~100ms", elapsed)
	}
}

func TestHandlerErrorCrossesWire(t *testing.T) {
	failing := func(transport.Addr, string, any) (any, error) {
		return nil, errors.New("datastore: peer does not own the key")
	}
	tr, a, b := newPair(t, failing, failing)
	_, err := tr.Call(context.Background(), a, b, "m", echoMsg{})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want RemoteError", err, err)
	}
	if re.Msg != "datastore: peer does not own the key" {
		t.Fatalf("remote error message = %q", re.Msg)
	}
}

func TestDeregisterMatchesKillSemantics(t *testing.T) {
	okh := func(transport.Addr, string, any) (any, error) { return true, nil }
	tr, a, b := newPair(t, okh, okh)
	if _, err := tr.Call(context.Background(), a, b, "m", echoMsg{}); err != nil {
		t.Fatalf("pre-kill call failed: %v", err)
	}
	tr.Deregister(b)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	// Pooled connections to the dead listener may survive one write; the
	// fail-stop must be observable within the deadline regardless.
	var err error
	for i := 0; i < 3; i++ {
		if _, err = tr.Call(ctx, a, b, "m", echoMsg{}); err != nil {
			break
		}
	}
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("call to deregistered peer: err = %v, want ErrUnreachable", err)
	}
}

// connCount returns how many multiplexed connections tr holds to addr.
func connCount(tr *Transport, addr transport.Addr) int {
	tr.mu.Lock()
	pc := tr.peers[addr]
	tr.mu.Unlock()
	if pc == nil {
		return 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.pruneLocked()
	return len(pc.conns)
}

func TestConnectionPooling(t *testing.T) {
	okh := func(transport.Addr, string, any) (any, error) { return true, nil }
	tr, a, b := newPair(t, okh, okh)
	for i := 0; i < 20; i++ {
		if _, err := tr.Call(context.Background(), a, b, "m", echoMsg{N: i}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := connCount(tr, b); n == 0 || n > tr.cfg.ConnsPerPeer {
		t.Fatalf("connection count %d, want 1..%d (sequential calls must reuse multiplexed connections)", n, tr.cfg.ConnsPerPeer)
	}
}

// Many concurrent calls to one peer must share a single multiplexed
// connection (ConnsPerPeer=1) and overlap at the handler: with 16 calls each
// holding the handler ~20ms, the pipelined batch must finish far faster than
// the serialized 16×20ms.
func TestPipelinedCallsShareOneConnection(t *testing.T) {
	const depth = 16
	var inflight, peak atomic.Int64
	slow := func(_ transport.Addr, _ string, p any) (any, error) {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		return p, nil
	}
	tr := New(Config{DialTimeout: time.Second, CallTimeout: 10 * time.Second, ConnsPerPeer: 1})
	t.Cleanup(func() { tr.Close() })
	a, err := tr.Listen("127.0.0.1:0", slow)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Listen("127.0.0.1:0", slow)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	pends := make([]*transport.Pending, depth)
	for i := range pends {
		pends[i] = tr.CallAsync(context.Background(), a, b, "slow", echoMsg{N: i})
	}
	for i, p := range pends {
		got, err := p.Result()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if m, ok := got.(echoMsg); !ok || m.N != i {
			t.Fatalf("call %d returned %#v", i, got)
		}
	}
	elapsed := time.Since(start)

	if n := connCount(tr, b); n != 1 {
		t.Fatalf("pipelined calls used %d connections, want 1", n)
	}
	if peak.Load() < 2 {
		t.Fatalf("handler concurrency peak %d, want >= 2 (calls must overlap on one connection)", peak.Load())
	}
	if serialized := depth * 20 * time.Millisecond; elapsed > serialized/2 {
		t.Fatalf("pipelined batch took %v, want well under the serialized %v", elapsed, serialized)
	}
}

// Responses must be matched by request ID, not arrival order: a fast call
// issued after a slow one on the same connection returns first, with each
// caller seeing its own payload.
func TestOutOfOrderResponses(t *testing.T) {
	handler := func(_ transport.Addr, _ string, p any) (any, error) {
		m := p.(echoMsg)
		if m.N == 0 {
			time.Sleep(100 * time.Millisecond) // the slow state transfer
		}
		return m, nil
	}
	tr := New(Config{DialTimeout: time.Second, CallTimeout: 5 * time.Second, ConnsPerPeer: 1})
	t.Cleanup(func() { tr.Close() })
	a, _ := tr.Listen("127.0.0.1:0", handler)
	b, err := tr.Listen("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}

	slow := tr.CallAsync(context.Background(), a, b, "m", echoMsg{N: 0})
	time.Sleep(5 * time.Millisecond) // ensure the slow call is on the wire first
	fastStart := time.Now()
	fast, err := tr.Call(context.Background(), a, b, "m", echoMsg{N: 7})
	if err != nil {
		t.Fatal(err)
	}
	if fastDur := time.Since(fastStart); fastDur > 80*time.Millisecond {
		t.Fatalf("fast call took %v: it was serialized behind the slow call", fastDur)
	}
	if m, ok := fast.(echoMsg); !ok || m.N != 7 {
		t.Fatalf("fast call returned %#v", fast)
	}
	got, err := slow.Result()
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := got.(echoMsg); !ok || m.N != 0 {
		t.Fatalf("slow call returned %#v", got)
	}
}

// A per-call timeout abandons only that call: the connection survives and
// later calls on it succeed.
func TestCallTimeoutLeavesConnectionUsable(t *testing.T) {
	block := make(chan struct{})
	handler := func(_ transport.Addr, _ string, p any) (any, error) {
		m := p.(echoMsg)
		if m.N == 0 {
			<-block
		}
		return m, nil
	}
	tr := New(Config{DialTimeout: time.Second, CallTimeout: 5 * time.Second, ConnsPerPeer: 1})
	t.Cleanup(func() { tr.Close() })
	t.Cleanup(func() { close(block) })
	a, _ := tr.Listen("127.0.0.1:0", handler)
	b, err := tr.Listen("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := tr.Call(ctx, a, b, "m", echoMsg{N: 0}); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("blocked call: err = %v, want ErrUnreachable", err)
	}
	got, err := tr.Call(context.Background(), a, b, "m", echoMsg{N: 1})
	if err != nil {
		t.Fatalf("call after timeout: %v (the connection must survive an abandoned call)", err)
	}
	if m, ok := got.(echoMsg); !ok || m.N != 1 {
		t.Fatalf("call after timeout returned %#v", got)
	}
	if n := connCount(tr, b); n != 1 {
		t.Fatalf("connection count %d after timeout, want 1 (no redial)", n)
	}
}

// Deregister must resolve calls already in flight to the dead peer promptly
// with ErrUnreachable — orderly cancellation, not a dangling wait for the
// full deadline.
func TestDeregisterCancelsInFlightCalls(t *testing.T) {
	block := make(chan struct{})
	handler := func(transport.Addr, string, any) (any, error) {
		<-block
		return true, nil
	}
	tr := New(Config{DialTimeout: time.Second, CallTimeout: 30 * time.Second, ConnsPerPeer: 1})
	t.Cleanup(func() { tr.Close() })
	t.Cleanup(func() { close(block) })
	a, _ := tr.Listen("127.0.0.1:0", handler)
	b, err := tr.Listen("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}

	pends := make([]*transport.Pending, 4)
	for i := range pends {
		pends[i] = tr.CallAsync(context.Background(), a, b, "m", echoMsg{N: i})
	}
	time.Sleep(20 * time.Millisecond) // let the calls reach the wire
	start := time.Now()
	tr.Deregister(b)
	for i, p := range pends {
		if _, err := p.Result(); !errors.Is(err, transport.ErrUnreachable) {
			t.Fatalf("in-flight call %d after Deregister: err = %v, want ErrUnreachable", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("in-flight calls took %v to cancel; Deregister must fail them promptly", elapsed)
	}
}

// Register must key the endpoint by the identity the caller gave, even when
// the OS resolves it differently (hostname vs IP) — otherwise a later
// Deregister with that same identity is a silent no-op and the departed
// peer keeps answering.
func TestRegisterKeepsGivenIdentity(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := probe.Addr().(*net.TCPAddr).Port
	probe.Close()
	addr := transport.Addr(fmt.Sprintf("localhost:%d", port))

	tr := New(Config{DialTimeout: time.Second, CallTimeout: time.Second})
	t.Cleanup(func() { tr.Close() })
	okh := func(transport.Addr, string, any) (any, error) { return true, nil }
	if err := tr.Register(addr, okh); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call(context.Background(), "", addr, "m", echoMsg{}); err != nil {
		t.Fatalf("call to hostname identity: %v", err)
	}
	tr.Deregister(addr)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	var cerr error
	for i := 0; i < 3; i++ {
		if _, cerr = tr.Call(ctx, "", addr, "m", echoMsg{}); cerr != nil {
			break
		}
	}
	if !errors.Is(cerr, transport.ErrUnreachable) {
		t.Fatalf("call after Deregister(%s) = %v, want ErrUnreachable", addr, cerr)
	}
}

func TestClosedTransportRefusesWork(t *testing.T) {
	okh := func(transport.Addr, string, any) (any, error) { return true, nil }
	tr, a, b := newPair(t, okh, okh)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call(context.Background(), a, b, "m", echoMsg{}); err == nil {
		t.Fatal("Call on closed transport succeeded")
	}
	if _, err := tr.Listen("127.0.0.1:0", okh); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Listen on closed transport: %v, want ErrClosed", err)
	}
}
