package tcp

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// pendingCount is the number of calls to addr registered on the transport's
// connections and not yet answered.
func pendingCount(tr *Transport, addr transport.Addr) int {
	tr.mu.Lock()
	pc := tr.peers[addr]
	tr.mu.Unlock()
	if pc == nil {
		return 0
	}
	pc.mu.Lock()
	conns := append([]*muxConn(nil), pc.conns...)
	pc.mu.Unlock()
	n := 0
	for _, mc := range conns {
		mc.mu.Lock()
		n += len(mc.pending)
		mc.mu.Unlock()
	}
	return n
}

// waitFor polls cond until it holds, failing the test after a few seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// A CallAsync whose Pending is never asked — a probe its caller no longer
// needs — is unregistered when its context ends: nothing waits on it, and
// nothing stays behind in the connection's pending map.
func TestAbandonedCallAsyncLeavesNoPending(t *testing.T) {
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
	ctx, cancel := context.WithCancel(context.Background())
	_ = tr.CallAsync(ctx, a, b, "m", echoMsg{N: 1})
	if n := pendingCount(tr, b); n != 1 {
		t.Fatalf("%d calls pending after CallAsync returned, want 1: it sends before returning", n)
	}
	cancel()
	waitFor(t, "the abandoned call to be unregistered", func() bool { return pendingCount(tr, b) == 0 })
}

// A Pending's outcome is produced once: every Result returns it, the
// response's and the handler error's alike.
func TestPendingResultIsTheSameEveryTime(t *testing.T) {
	handler := func(_ transport.Addr, _ string, p any) (any, error) {
		if m := p.(echoMsg); m.N < 0 {
			return nil, errors.New("negative")
		}
		return p, nil
	}
	tr, a, b := newPair(t, handler, handler)
	ok := tr.CallAsync(context.Background(), a, b, "m", echoMsg{N: 7})
	v1, err1 := ok.Result()
	v2, err2 := ok.Result()
	if err1 != nil || err2 != nil || v1 != (echoMsg{N: 7}) || v2 != v1 {
		t.Fatalf("Result twice = (%v, %v) then (%v, %v), want echoMsg{7} both times", v1, err1, v2, err2)
	}
	bad := tr.CallAsync(context.Background(), a, b, "m", echoMsg{N: -1})
	_, err1 = bad.Result()
	_, err2 = bad.Result()
	var re *RemoteError
	if !errors.As(err1, &re) || err2 != err1 {
		t.Fatalf("Result twice = %v then %v, want one handler error both times", err1, err2)
	}
}

// OpenConns counts a dial on the dialer's side and its accept on the
// listener's, and falls back to 0 once either end goes.
func TestOpenConnsCountsDialedAndAcceptedConnections(t *testing.T) {
	okh := func(transport.Addr, string, any) (any, error) { return true, nil }
	open := func(tr *Transport) func() uint64 { return func() uint64 { return tr.WireStats().OpenConns } }

	dialer := New(Config{DialTimeout: time.Second, CallTimeout: time.Second, ConnsPerPeer: 1})
	t.Cleanup(func() { dialer.Close() })
	server := New(Config{DialTimeout: time.Second, CallTimeout: time.Second})
	t.Cleanup(func() { server.Close() })
	b, err := server.Listen("127.0.0.1:0", okh)
	if err != nil {
		t.Fatal(err)
	}
	if n := open(dialer)() + open(server)(); n != 0 {
		t.Fatalf("OpenConns = %d before any dial, want 0", n)
	}
	if _, err := dialer.Call(context.Background(), "", b, "m", echoMsg{}); err != nil {
		t.Fatal(err)
	}
	if n := open(dialer)(); n != 1 {
		t.Fatalf("dialer OpenConns = %d after a call, want 1", n)
	}
	waitFor(t, "the server to count the accepted connection", func() bool { return open(server)() == 1 })

	server.Deregister(b)
	waitFor(t, "both ends to drop the connection after Deregister", func() bool {
		return open(server)() == 0 && open(dialer)() == 0
	})

	c, err := server.Listen("127.0.0.1:0", okh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dialer.Call(context.Background(), "", c, "m", echoMsg{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both ends to count the new connection", func() bool {
		return open(server)() == 1 && open(dialer)() == 1
	})
	dialer.Close()
	if n := open(dialer)(); n != 0 {
		t.Fatalf("dialer OpenConns = %d after Close, want 0", n)
	}
	waitFor(t, "the server to drop the connection the dialer closed", func() bool { return open(server)() == 0 })
}

// A response that has landed is the outcome even when the call's context has
// ended since: the Pending is asked after both, and must not toss a coin.
func TestLandedResponseWinsOverAnEndedContext(t *testing.T) {
	echo := func(_ transport.Addr, _ string, p any) (any, error) { return p, nil }
	tr, a, b := newPair(t, echo, echo)
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		o, err := tr.call(ctx, a, b, "m", echoMsg{N: i})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the response to land", func() bool { return len(o.ch) == 1 })
		cancel()
		v, err := o.async(ctx, cancel).Result()
		if err != nil || v != (echoMsg{N: i}) {
			t.Fatalf("call %d: Result = (%v, %v) after its response landed, want echoMsg{%d}", i, v, err, i)
		}
	}
}

// Calls to a peer that accepts a connection and never reads from it end
// within their own context, though their frames cannot all be written: a
// caller's write is cut at its deadline and the rest handed to a goroutine.
func TestCallsToAPeerThatStopsReadingEndWithinTheirContext(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var held []net.Conn
	var mu sync.Mutex
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = c.(*net.TCPConn).SetReadBuffer(4096)
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	tr := New(Config{DialTimeout: time.Second, CallTimeout: 2 * time.Second, ConnsPerPeer: 1})
	t.Cleanup(func() { tr.Close() })
	to := transport.Addr(ln.Addr().String())
	payload := bigMsg{Data: make([]byte, 1<<20)}
	const wait, slack = 100 * time.Millisecond, 400 * time.Millisecond
	for i := 0; i < 12; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), wait)
		start := time.Now()
		if i%2 == 0 {
			_, err = tr.Call(ctx, "", to, "m", payload)
		} else {
			p := tr.CallAsync(ctx, "", to, "m", payload)
			if took := time.Since(start); took > wait+slack {
				t.Fatalf("CallAsync %d returned after %v, its context ends at %v", i, took, wait)
			}
			_, err = p.Result()
		}
		cancel()
		if took := time.Since(start); took > wait+slack {
			t.Fatalf("call %d ended after %v, its context ends at %v", i, took, wait)
		}
		if !errors.Is(err, transport.ErrUnreachable) {
			t.Fatalf("call %d to a peer that never answers: %v, want ErrUnreachable", i, err)
		}
	}
}
