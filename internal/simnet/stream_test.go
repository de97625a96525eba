package simnet

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// chunkedPayload is a bulk-transfer-shaped payload for streaming tests.
type chunkedPayload struct{ Data []byte }

func init() { transport.RegisterMessage(chunkedPayload{}) }

func streamPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + i>>9)
	}
	return b
}

// A bulk call larger than MaxFrameSize streams through the codec in chunks
// and arrives intact: the frame limit bounds individual frames, not whole
// state transfers.
func TestBulkCallStreamsOversizedPayloadStrict(t *testing.T) {
	if testing.Short() {
		t.Skip("moves >32 MiB through the codec; exercised in the full suite")
	}
	n := New(Config{DeadCallDelay: time.Millisecond, Seed: 1})
	var got atomic.Value
	if err := n.Register("rcv", func(_ Addr, _ string, p any) (any, error) {
		got.Store(p)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("snd", func(Addr, string, any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}

	want := streamPattern(transport.MaxFrameSize + (1 << 20))
	resp, err := transport.CallBulk(n, context.Background(), "snd", "rcv", "rep.push", chunkedPayload{Data: want})
	if err != nil {
		t.Fatalf("bulk call: %v", err)
	}
	if ok, _ := resp.(bool); !ok {
		t.Fatalf("bulk response = %v, want true", resp)
	}
	cp, ok := got.Load().(chunkedPayload)
	if !ok {
		t.Fatalf("handler payload type %T", got.Load())
	}
	if !bytes.Equal(cp.Data, want) {
		t.Fatal("bulk payload corrupted in flight")
	}
	if cerr := n.CodecErr(); cerr != nil {
		t.Fatalf("CodecErr = %v", cerr)
	}
	if st := n.Stats(); st.Streams != 1 || st.Chunks < 2 {
		t.Fatalf("stats = %+v, want 1 stream and >1 chunks", st)
	}
}

// Losing the Nth chunk mid-transfer kills the whole transfer: the sender
// fails with the fail-stop signature and the receiver's handler never runs,
// so its state is untouched (the atomic-commit property).
func TestLostChunkDropsTransferAtomically(t *testing.T) {
	var arm atomic.Bool
	cfg := Config{
		DeadCallDelay: time.Millisecond,
		Seed:          1,
		ChunkBytes:    1024,
		Fault: func(m Msg) Verdict {
			return verdictIf(arm.Load() && m.Method == "rep.push" && m.Seq == 2, Lose)
		},
	}
	n := New(cfg)
	var handled atomic.Int64
	if err := n.Register("rcv", func(_ Addr, _ string, p any) (any, error) {
		handled.Add(1)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("snd", func(Addr, string, any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}

	payload := chunkedPayload{Data: streamPattern(8 * 1024)} // several chunks at 1 KiB each
	arm.Store(true)
	_, err := transport.CallBulk(n, context.Background(), "snd", "rcv", "rep.push", payload)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dropped-chunk transfer: err = %v, want ErrUnreachable", err)
	}
	if handled.Load() != 0 {
		t.Fatal("handler ran despite the dropped chunk: transfer was not atomic")
	}
	if st := n.Stats(); st.Lost != 1 {
		t.Fatalf("Lost = %d, want 1", st.Lost)
	}

	// With the fault disarmed the identical transfer commits.
	arm.Store(false)
	if _, err := transport.CallBulk(n, context.Background(), "snd", "rcv", "rep.push", payload); err != nil {
		t.Fatalf("transfer after disarming fault: %v", err)
	}
	if handled.Load() != 1 {
		t.Fatalf("handler invocations = %d, want 1", handled.Load())
	}
}

// Streams keep Call's fail-stop rules: a dead sender cannot open one, and a
// transfer committed at a dead receiver reports unreachable after the
// dead-call delay without touching any handler.
func TestStreamFailStopSemantics(t *testing.T) {
	n := New(Config{DeadCallDelay: time.Millisecond, Seed: 1})
	if err := n.Register("alive", func(Addr, string, any) (any, error) { return true, nil }); err != nil {
		t.Fatal(err)
	}

	if _, err := n.OpenStream(context.Background(), "ghost", "alive", "m"); !errors.Is(err, ErrSenderDead) {
		t.Fatalf("open from dead sender: err = %v, want ErrSenderDead", err)
	}

	_, err := transport.CallBulk(n, context.Background(), "alive", "ghost", "m", chunkedPayload{Data: []byte("x")})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("commit to dead receiver: err = %v, want ErrUnreachable", err)
	}
}
