package tcp

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// fakeServer is a raw TCP acceptor speaking the mux wire format directly, so
// tests can misbehave in ways a real Transport endpoint never would (answer
// then go silent without closing — the shape of a half-dead NAT'd peer).
type fakeServer struct {
	ln    net.Listener
	conns atomic.Int64
}

// start runs a fake peer. Connection 1 answers exactly one call and then
// reads silently forever (never closing); later connections behave.
func startFakeServer(t *testing.T) (*fakeServer, transport.Addr) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n := fs.conns.Add(1)
			go fs.serve(conn, n == 1)
		}
	}()
	return fs, transport.Addr(ln.Addr().String())
}

func (fs *fakeServer) serve(conn net.Conn, goSilent bool) {
	defer conn.Close()
	answered := 0
	for {
		m, err := readMsg(conn)
		if err != nil {
			return
		}
		if goSilent && answered >= 1 {
			continue // read and drop: alive at the TCP level, dead at the protocol level
		}
		var out wireMsg
		switch m.Kind {
		case kindPing:
			out = wireMsg{Kind: kindPong, ID: m.ID}
		case kindCall:
			payload, _ := transport.Encode(true)
			out = wireMsg{Kind: kindResp, ID: m.ID, Payload: payload}
			answered++
		default:
			continue
		}
		if err := writeMsg(conn, out); err != nil {
			return
		}
	}
}

// A pooled connection that went silent while idle must be detected by the
// checkout-time ping and replaced, so the next call succeeds on a fresh
// connection instead of burning its whole deadline on the dead one.
func TestIdleConnHealthCheckReplacesDeadConn(t *testing.T) {
	fs, addr := startFakeServer(t)
	tr := New(Config{
		DialTimeout:   time.Second,
		CallTimeout:   10 * time.Second,
		ConnsPerPeer:  1,
		IdlePingAfter: 50 * time.Millisecond,
		PingTimeout:   200 * time.Millisecond,
	})
	t.Cleanup(func() { tr.Close() })

	// First call succeeds on connection 1, which then plays dead.
	if _, err := tr.Call(context.Background(), "", addr, "m", echoMsg{N: 1}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	time.Sleep(100 * time.Millisecond) // cross the idle threshold

	// The checkout ping must fail on the silent connection and redial; the
	// call then succeeds on connection 2 well within the ping budget plus a
	// round trip — nowhere near the 10s call deadline.
	start := time.Now()
	if _, err := tr.Call(context.Background(), "", addr, "m", echoMsg{N: 2}); err != nil {
		t.Fatalf("call after idle: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("call after idle took %v; the dead idle conn must cost one ping, not the deadline", elapsed)
	}
	if n := fs.conns.Load(); n != 2 {
		t.Fatalf("fake server saw %d connections, want 2 (dead conn replaced)", n)
	}
}

// A healthy idle connection passes the checkout ping and is reused — the
// health check must not churn connections that are merely quiet.
func TestIdleConnHealthCheckKeepsHealthyConn(t *testing.T) {
	okh := func(transport.Addr, string, any) (any, error) { return true, nil }
	tr := New(Config{
		DialTimeout:   time.Second,
		CallTimeout:   5 * time.Second,
		ConnsPerPeer:  1,
		IdlePingAfter: 30 * time.Millisecond,
		PingTimeout:   time.Second,
	})
	t.Cleanup(func() { tr.Close() })
	a, _ := tr.Listen("127.0.0.1:0", okh)
	b, err := tr.Listen("127.0.0.1:0", okh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call(context.Background(), a, b, "m", echoMsg{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // idle past the threshold
	if _, err := tr.Call(context.Background(), a, b, "m", echoMsg{}); err != nil {
		t.Fatalf("call after idle: %v", err)
	}
	if n := connCount(tr, b); n != 1 {
		t.Fatalf("connection count %d, want 1 (healthy idle conn must be reused)", n)
	}
}

// bigMsg is a state-transfer-shaped payload for frame boundary tests.
type bigMsg struct{ Data []byte }

func init() { transport.RegisterMessage(bigMsg{}) }

// A state transfer whose encoding exceeds MaxFrameSize must fail with the
// typed ErrFrameTooLarge — a permanent payload error, distinct from the
// ErrUnreachable fail-stop signal that would trigger pointless retries.
func TestOversizedCallFailsTyped(t *testing.T) {
	okh := func(transport.Addr, string, any) (any, error) { return true, nil }
	// The near-limit call below encodes, copies and decodes ~16 MiB, which
	// can outlast newPair's 2 s CallTimeout under -race on a loaded box.
	tr, a, b := newPairTimeout(t, 60*time.Second, okh, okh)

	_, err := tr.Call(context.Background(), a, b, "ds.mergeIn", bigMsg{Data: make([]byte, transport.MaxFrameSize+1)})
	if !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("oversized call: err = %v, want ErrFrameTooLarge", err)
	}
	if errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("oversized call reported ErrUnreachable: a payload bug must not read as a peer failure")
	}

	// A payload at the boundary still crosses: the limit applies to the
	// whole encoded message, so leave headroom for the envelope and header.
	under := bigMsg{Data: make([]byte, transport.MaxFrameSize-4096)}
	if _, err := tr.Call(context.Background(), a, b, "ds.mergeIn", under); err != nil {
		t.Fatalf("near-limit call: %v", err)
	}
}

// An oversized handler *response* to a plain small call chunks back as
// kindRespChunk frames and arrives whole: the answer to a tiny replica scan
// is a whole segment, so the response direction must be as unbounded as the
// streamed request direction.
func TestOversizedResponseChunksBack(t *testing.T) {
	if testing.Short() {
		t.Skip("moves >16 MiB through the codec and loopback TCP; exercised in the full suite")
	}
	const size = transport.MaxFrameSize + (1 << 20)
	huge := func(transport.Addr, string, any) (any, error) {
		return bigMsg{Data: make([]byte, size)}, nil
	}
	tr, a, b := newPairTimeout(t, 60*time.Second, huge, huge)
	resp, err := tr.Call(context.Background(), a, b, "rep.scan", echoMsg{})
	if err != nil {
		t.Fatalf("oversized response: %v", err)
	}
	got, ok := resp.(bigMsg)
	if !ok {
		t.Fatalf("oversized response type %T", resp)
	}
	if len(got.Data) != size {
		t.Fatalf("oversized response truncated to %d bytes, want %d", len(got.Data), size)
	}
}
