package tcp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
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

	// Two chunks' worth, so CallBulk takes the stream path whatever the
	// method's declaration; the single-frame twin is below.
	_, err = transport.CallBulk(tr, context.Background(), a, b, "rep.push", streamMsg{Data: patterned(2 * transport.DefaultChunkBytes)})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("stream handler error: err = %v (%T), want RemoteError", err, err)
	}
	if errors.Is(err, transport.ErrUnreachable) {
		t.Fatal("handler error read as ErrUnreachable")
	}
}

// The single-frame twin of TestStreamHandlerErrorPropagates: a bulk call
// that fits one chunk goes out as one call frame, and its handler's error
// comes back as the same RemoteError.
func TestSingleFrameBulkHandlerErrorPropagates(t *testing.T) {
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

	_, err = transport.CallBulk(tr, context.Background(), a, b, "rep.push", streamMsg{Data: patterned(256)})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("single-frame handler error: err = %v (%T), want RemoteError", err, err)
	}
	if errors.Is(err, transport.ErrUnreachable) {
		t.Fatal("handler error read as ErrUnreachable")
	}
}

// A bulk call whose body fits one chunk is one call frame: the receiver makes
// no stager for it. A small request is still answered with more than a
// chunk. A transfer of two chunks is a stream, with one stager.
func TestSingleChunkBulkCallStagesNothing(t *testing.T) {
	const chunkBytes = 4 << 10
	var stagers atomic.Int64
	rcv := New(Config{
		DialTimeout: time.Second, CallTimeout: 5 * time.Second, ChunkBytes: chunkBytes,
		Stager: func(max int64) transport.ChunkStager {
			stagers.Add(1)
			return transport.NewMemStager(max)
		},
	})
	t.Cleanup(func() { rcv.Close() })
	answer := patterned(3 * chunkBytes)
	b, err := rcv.Listen("127.0.0.1:0", func(_ transport.Addr, _ string, p any) (any, error) {
		m, ok := p.(streamMsg)
		switch {
		case !ok:
			return nil, fmt.Errorf("payload type %T", p)
		case len(m.Data) == 0: // a pull: a tiny request, a large answer
			return streamMsg{Data: answer}, nil
		}
		return int64(len(m.Data)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snd := New(Config{DialTimeout: time.Second, CallTimeout: 5 * time.Second, ChunkBytes: chunkBytes})
	t.Cleanup(func() { snd.Close() })
	a, err := snd.Listen("127.0.0.1:0", func(_ transport.Addr, _ string, p any) (any, error) { return p, nil })
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for i := 0; i < 200; i++ {
		resp, err := transport.CallBulk(snd, ctx, a, b, "rep.push", streamMsg{Data: patterned(256)})
		if err != nil {
			t.Fatalf("small bulk call %d: %v", i, err)
		}
		if got, ok := resp.(int64); !ok || got != 256 {
			t.Fatalf("small bulk call %d: response %v, want 256", i, resp)
		}
	}
	if n := stagers.Load(); n != 0 {
		t.Fatalf("200 single-chunk bulk calls made %d stagers at the receiver, want 0", n)
	}

	resp, err := transport.CallBulk(snd, ctx, a, b, "rep.pull", streamMsg{})
	if err != nil {
		t.Fatalf("small pull: %v", err)
	}
	if got, ok := resp.(streamMsg); !ok || !bytes.Equal(got.Data, answer) {
		t.Fatalf("small pull answered with %T, want the whole %d-byte answer", resp, len(answer))
	}

	body, err := transport.Encode(streamMsg{Data: patterned(chunkBytes)})
	if err != nil {
		t.Fatal(err)
	}
	if n := (len(body) + chunkBytes - 1) / chunkBytes; n != 2 {
		t.Fatalf("two-chunk payload encodes to %d chunks", n)
	}
	if _, err := transport.CallBulk(snd, ctx, a, b, "rep.push", streamMsg{Data: patterned(chunkBytes)}); err != nil {
		t.Fatalf("two-chunk bulk call: %v", err)
	}
	if n := stagers.Load(); n != 1 {
		t.Fatalf("a two-chunk transfer made %d stagers at the receiver, want 1", n)
	}
}

// cutAccepted closes every connection tr has accepted and leaves its
// listeners up: the server's side of the connection dies, the server does
// not.
func cutAccepted(tr *Transport) {
	tr.mu.Lock()
	ls := make([]*listener, 0, len(tr.listeners))
	for _, l := range tr.listeners {
		ls = append(ls, l)
	}
	tr.mu.Unlock()
	for _, l := range ls {
		l.mu.Lock()
		for c := range l.conns {
			c.Close()
		}
		l.mu.Unlock()
	}
}

// A bulk call that fits one chunk has Call's semantics: when the connection
// dies after the handler ran but before it replied, the caller is told
// ErrUnreachable. Asking again is the protocol's business (transport.Reask).
func TestSingleChunkBulkCallHasCallSemantics(t *testing.T) {
	var handled atomic.Int64
	rcv := New(Config{DialTimeout: time.Second, CallTimeout: 5 * time.Second})
	t.Cleanup(func() { rcv.Close() })
	b, err := rcv.Listen("127.0.0.1:0", func(_ transport.Addr, _ string, p any) (any, error) {
		handled.Add(1)
		cutAccepted(rcv) // the reply is lost
		return int64(1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snd := New(Config{DialTimeout: time.Second, CallTimeout: 5 * time.Second})
	t.Cleanup(func() { snd.Close() })
	a, err := snd.Listen("127.0.0.1:0", func(_ transport.Addr, _ string, p any) (any, error) { return p, nil })
	if err != nil {
		t.Fatal(err)
	}
	_, err = transport.CallBulk(snd, context.Background(), a, b, "rep.push", streamMsg{Data: patterned(256)})
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("bulk call whose reply was cut: err = %v, want ErrUnreachable", err)
	}
	if n := handled.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want exactly 1", n)
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

// A frame of a kind the serving side never receives — a response, a
// handshake frame after the handshake, a kind that does not exist — is a
// protocol error that drops the connection and never reaches the handler.
func TestUnservedFrameKindDropsConnection(t *testing.T) {
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
		"resp":       {Kind: kindResp, ID: 2, Payload: body},
		"resp-chunk": {Kind: kindRespChunk, ID: 2, Payload: body},
		"hs-hello":   {Kind: kindHsHello, From: "raw", Method: "rep.push", Payload: body},
		"unknown":    {Kind: kindHsReject + 1, ID: 2, From: "raw", Method: "rep.push", Payload: body},
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
		// The connection is healthy until the bad frame arrives…
		if pong, err := exchange(wireMsg{Kind: kindPing, ID: 1}); err != nil || pong.Kind != kindPong {
			t.Fatalf("%s: ping before the bad frame = %+v, %v", name, pong, err)
		}
		// …and gone after it: no response frame, just the hang-up.
		resp, err := exchange(frame)
		var ne net.Error
		if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Errorf("%s frame: response %+v, err %v; want the connection dropped", name, resp, err)
		}
		conn.Close()
	}
	if n := handled.Load(); n != 0 {
		t.Errorf("handler ran %d times for frames that are protocol errors", n)
	}
}

// spillStager is a receiver's disk stager that, on its second chunk, counts
// the spill files and calls cut.
type spillStager struct {
	transport.ChunkStager
	appends int
	cut     func()
}

func (s *spillStager) Append(chunk []byte) error {
	err := s.ChunkStager.Append(chunk)
	if s.appends++; s.appends == 2 {
		s.cut()
	}
	return err
}

func spillFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return len(ents)
}

// A connection killed under a multi-chunk transfer ends it at both ends: the
// sender's bulk call fails as ErrUnreachable, the handler never runs, and the
// receiver discards what it staged — its spill file included — with the
// connection.
func TestTransferCutMidStreamIsUnreachableAndLeavesNoSpill(t *testing.T) {
	const chunkBytes = 4 << 10
	dir := t.TempDir()
	spill := filepath.Join(dir, "stage")
	var handled atomic.Int64
	var spilled atomic.Int64
	var rcv *Transport
	disk := storage.DiskFactory{Dir: dir}.NewStager
	rcv = New(Config{
		DialTimeout: time.Second, CallTimeout: 5 * time.Second, ChunkBytes: chunkBytes,
		Stager: func(max int64) transport.ChunkStager {
			return &spillStager{ChunkStager: disk(max), cut: func() {
				spilled.Store(int64(spillFiles(t, spill)))
				cutAccepted(rcv)
			}}
		},
	})
	t.Cleanup(func() { rcv.Close() })
	b, err := rcv.Listen("127.0.0.1:0", func(_ transport.Addr, _ string, p any) (any, error) {
		handled.Add(1)
		return int64(1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snd := New(Config{DialTimeout: time.Second, CallTimeout: 5 * time.Second, ChunkBytes: chunkBytes})
	t.Cleanup(func() { snd.Close() })
	a, err := snd.Listen("127.0.0.1:0", func(_ transport.Addr, _ string, p any) (any, error) { return p, nil })
	if err != nil {
		t.Fatal(err)
	}

	_, err = transport.CallBulk(snd, context.Background(), a, b, "rep.push", streamMsg{Data: patterned(6 * chunkBytes)})
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("bulk call across a cut connection: err = %v, want ErrUnreachable", err)
	}
	if n := spilled.Load(); n != 1 {
		t.Fatalf("%d spill files while the transfer was staged, want 1", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for spillFiles(t, spill) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the receiver kept %d spill files after the connection died", spillFiles(t, spill))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("handler ran %d times for a transfer that never committed", n)
	}
}

// The chaos fault kills the connection under the first transfer to reach its
// chunk, once per process: that transfer fails as ErrUnreachable without
// reaching the handler, ChaosDrops reports it, and the next transfer goes
// through.
func TestChaosChunkDropFailsOneTransfer(t *testing.T) {
	const chunkBytes = 4 << 10
	var handled atomic.Int64
	tr := New(Config{DialTimeout: time.Second, CallTimeout: 5 * time.Second, ChunkBytes: chunkBytes, ChaosChunkDrop: 2})
	t.Cleanup(func() { tr.Close() })
	h := func(_ transport.Addr, _ string, p any) (any, error) {
		handled.Add(1)
		return int64(1), nil
	}
	a, err := tr.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	payload := streamMsg{Data: patterned(4 * chunkBytes)}
	if _, err := transport.CallBulk(tr, context.Background(), a, b, "rep.push", payload); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("transfer under the chaos fault: err = %v, want ErrUnreachable", err)
	}
	if n := tr.WireStats().ChaosDrops; n != 1 {
		t.Fatalf("ChaosDrops = %d after the fault, want 1", n)
	}
	if _, err := transport.CallBulk(tr, context.Background(), a, b, "rep.push", payload); err != nil {
		t.Fatalf("transfer after the fault: %v", err)
	}
	if n := tr.WireStats().ChaosDrops; n != 1 {
		t.Fatalf("ChaosDrops = %d after a second transfer, want 1: the fault fires once", n)
	}
	if n := handled.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want once, for the second transfer", n)
	}
}

// Without a fault a multi-chunk bulk call reports no chaos drop and no
// resume: WireStats.StreamResumes is always 0, since no transfer resumes.
func TestCleanBulkCallReportsNoResumes(t *testing.T) {
	const chunkBytes = 4 << 10
	h := func(_ transport.Addr, _ string, p any) (any, error) { return int64(1), nil }
	tr := New(Config{DialTimeout: time.Second, CallTimeout: 5 * time.Second, ChunkBytes: chunkBytes})
	t.Cleanup(func() { tr.Close() })
	a, err := tr.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transport.CallBulk(tr, context.Background(), a, b, "rep.push", streamMsg{Data: patterned(4 * chunkBytes)}); err != nil {
		t.Fatal(err)
	}
	if ws := tr.WireStats(); ws.StreamResumes != 0 || ws.ChaosDrops != 0 {
		t.Fatalf("after a clean transfer StreamResumes = %d and ChaosDrops = %d, want 0 and 0", ws.StreamResumes, ws.ChaosDrops)
	}
}
