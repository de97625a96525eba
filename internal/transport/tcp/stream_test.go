package tcp

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// streamMsg is a bulk-transfer-shaped payload for streaming tests.
type streamMsg struct{ Data []byte }

func init() { transport.RegisterMessage(streamMsg{}) }

// patterned returns n bytes with a position-dependent pattern, so truncated
// or reordered chunks corrupt the payload detectably.
func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>11)
	}
	return b
}

// A payload larger than MaxFrameSize crosses the wire as a chunked stream
// and the handler's equally outsized echo returns as a chunked ack: both
// directions of a bulk call are unbounded by the frame limit.
func TestBulkCallRoundTripsOversizedPayload(t *testing.T) {
	if testing.Short() {
		t.Skip("moves >32 MiB through the codec and loopback TCP; exercised in the full suite")
	}
	echo := func(_ transport.Addr, _ string, p any) (any, error) { return p, nil }
	tr := New(Config{DialTimeout: time.Second, CallTimeout: 60 * time.Second, ConnsPerPeer: 1})
	t.Cleanup(func() { tr.Close() })
	a, err := tr.Listen("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Listen("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}

	want := patterned(transport.MaxFrameSize + (1 << 20))
	resp, err := transport.CallBulk(tr, context.Background(), a, b, "rep.push", streamMsg{Data: want})
	if err != nil {
		t.Fatalf("bulk call: %v", err)
	}
	got, ok := resp.(streamMsg)
	if !ok {
		t.Fatalf("bulk response type %T", resp)
	}
	if !bytes.Equal(got.Data, want) {
		t.Fatal("bulk payload corrupted in flight")
	}
}

// Chunk frames interleave with ordinary RPC frames on the one pooled
// connection: a plain call issued while a stream is open (chunks sent,
// commit withheld) completes immediately instead of queueing behind the
// transfer.
func TestStreamInterleavesWithCalls(t *testing.T) {
	var calls atomic.Int64
	h := func(_ transport.Addr, _ string, p any) (any, error) {
		calls.Add(1)
		return p, nil
	}
	tr := New(Config{DialTimeout: time.Second, CallTimeout: 10 * time.Second, ConnsPerPeer: 1})
	t.Cleanup(func() { tr.Close() })
	a, err := tr.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	st, err := tr.OpenStream(ctx, a, b, "rep.push")
	if err != nil {
		t.Fatal(err)
	}
	body, err := transport.Encode(streamMsg{Data: patterned(3 * st.MaxChunk())})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Chunk(ctx, body[:st.MaxChunk()]); err != nil {
		t.Fatal(err)
	}
	// The stream is mid-flight; a plain call on the same transport (and, with
	// ConnsPerPeer=1, the same connection) must still get through.
	if _, err := tr.Call(ctx, a, b, "ring.ping", int64(7)); err != nil {
		t.Fatalf("interleaved call: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("interleaved call did not reach the handler (calls=%d)", calls.Load())
	}
	for off := st.MaxChunk(); off < len(body); off += st.MaxChunk() {
		end := off + st.MaxChunk()
		if end > len(body) {
			end = len(body)
		}
		if err := st.Chunk(ctx, body[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Commit(ctx); err != nil {
		t.Fatalf("commit after interleaving: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("handler invocations = %d, want 2 (one call, one committed stream)", calls.Load())
	}
}

// An aborted transfer never reaches the handler: the receiver discards its
// staged chunks, and the connection stays healthy for subsequent traffic.
func TestStreamAbortLeavesReceiverUntouched(t *testing.T) {
	var handled atomic.Int64
	h := func(_ transport.Addr, _ string, p any) (any, error) {
		handled.Add(1)
		return p, nil
	}
	tr := New(Config{DialTimeout: time.Second, CallTimeout: 10 * time.Second, ConnsPerPeer: 1})
	t.Cleanup(func() { tr.Close() })
	a, err := tr.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	st, err := tr.OpenStream(ctx, a, b, "rep.push")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := st.Chunk(ctx, patterned(1024)); err != nil {
			t.Fatal(err)
		}
	}
	st.Abort("test abort")
	if _, err := st.Commit(ctx); !errors.Is(err, transport.ErrStreamAborted) {
		t.Fatalf("commit after abort: err = %v, want ErrStreamAborted", err)
	}

	// The handler never saw the aborted transfer, and the connection still
	// carries ordinary calls.
	if _, err := tr.Call(ctx, a, b, "ring.ping", int64(1)); err != nil {
		t.Fatalf("call after abort: %v", err)
	}
	if handled.Load() != 1 {
		t.Fatalf("handler invocations = %d, want 1 (the aborted stream must not dispatch)", handled.Load())
	}
}

// A handler error on a committed stream comes back as a RemoteError, exactly
// like a plain call's, and does not read as a fail-stop.
func TestStreamHandlerErrorPropagates(t *testing.T) {
	boom := func(_ transport.Addr, _ string, _ any) (any, error) {
		return nil, errors.New("handler rejected the transfer")
	}
	tr := New(Config{DialTimeout: time.Second, CallTimeout: 10 * time.Second})
	t.Cleanup(func() { tr.Close() })
	a, err := tr.Listen("127.0.0.1:0", boom)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Listen("127.0.0.1:0", boom)
	if err != nil {
		t.Fatal(err)
	}

	// Two chunks' worth, so CallBulk takes the stream path rather than the
	// single-frame fast path for small payloads.
	_, err = transport.CallBulk(tr, context.Background(), a, b, "rep.push", streamMsg{Data: patterned(2 * transport.DefaultChunkBytes)})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("stream handler error: err = %v (%T), want RemoteError", err, err)
	}
	if errors.Is(err, transport.ErrUnreachable) {
		t.Fatal("handler error read as ErrUnreachable")
	}
}

// Deregistering the receiver mid-stream fails the sender's commit with the
// fail-stop signature instead of leaving it to dangle.
func TestStreamToDeregisteredPeerFails(t *testing.T) {
	h := func(_ transport.Addr, _ string, p any) (any, error) { return p, nil }
	tr := New(Config{DialTimeout: time.Second, CallTimeout: 5 * time.Second, ConnsPerPeer: 1})
	t.Cleanup(func() { tr.Close() })
	a, err := tr.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	st, err := tr.OpenStream(ctx, a, b, "rep.push")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Chunk(ctx, patterned(1024)); err != nil {
		t.Fatal(err)
	}
	tr.Deregister(b)
	cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	// The kill races the in-flight chunk; whichever of the remaining steps
	// observes the dead connection must report unreachable.
	err = st.Chunk(cctx, patterned(1024))
	if err == nil {
		_, err = st.Commit(cctx)
	}
	if err == nil {
		t.Fatal("stream to a deregistered peer succeeded")
	}
	if errors.Is(err, transport.ErrStreamAborted) {
		t.Fatalf("deregister surfaced as ErrStreamAborted (%v), want a transport failure", err)
	}
}

// Every sender stamps its stream frames with a resumable stream ID; a stream
// frame without one is a protocol error that drops the connection, like any
// unknown frame kind, and never reaches the handler.
func TestStreamFrameWithoutStreamIDDropsConnection(t *testing.T) {
	var handled atomic.Int64
	tr := New(Config{DialTimeout: time.Second, CallTimeout: 2 * time.Second})
	t.Cleanup(func() { tr.Close() })
	addr, err := tr.Listen("127.0.0.1:0", func(_ transport.Addr, _ string, p any) (any, error) {
		handled.Add(1)
		return p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := transport.Encode(echoMsg{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	frames := map[string]wireMsg{
		"chunk":         {Kind: kindChunk, ID: 2, From: "raw", Method: "rep.push", Payload: body},
		"commit":        {Kind: kindCommit, ID: 2, From: "raw", Method: "rep.push"},
		"abort":         {Kind: kindAbort, ID: 2, From: "raw"},
		"stream-resume": {Kind: kindStreamResume, ID: 2, From: "raw", Method: "rep.push"},
	}
	for name, frame := range frames {
		conn, err := net.Dial("tcp", string(addr))
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		exchange := func(m wireMsg) (wireMsg, error) {
			if err := writeMsg(conn, m); err != nil {
				return wireMsg{}, err
			}
			return readMsg(conn)
		}
		// The connection is healthy until the malformed frame arrives…
		if pong, err := exchange(wireMsg{Kind: kindPing, ID: 1}); err != nil || pong.Kind != kindPong {
			t.Fatalf("%s: ping before the bad frame = %+v, %v", name, pong, err)
		}
		// …and gone after it: no response frame, just the hang-up.
		resp, err := exchange(frame)
		var ne net.Error
		if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Errorf("%s without a stream ID: response %+v, err %v; want the connection dropped", name, resp, err)
		}
		conn.Close()
	}
	if n := handled.Load(); n != 0 {
		t.Errorf("handler ran %d times for frames that are protocol errors", n)
	}
}
