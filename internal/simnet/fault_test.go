package simnet

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// A DisconnectFault mid-transfer models a connection loss, not a transfer
// failure: the chunks staged so far survive, CallBulk resumes from the
// high-water mark, and the committed payload is byte-exact. Only the dropped
// chunk is retransmitted.
func TestDisconnectFaultResumesFromHighWaterMark(t *testing.T) {
	var arm atomic.Bool
	cfg := Config{
		DeadCallDelay: time.Millisecond,
		Seed:          3,
		ChunkBytes:    1024,
		DisconnectFault: func(_ Addr, method string, seq int) bool {
			// One-shot: the first rep.push chunk 2 loses its connection.
			return method == "rep.push" && seq == 2 && arm.CompareAndSwap(true, false)
		},
	}
	n := New(cfg)
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

	want := streamPattern(8 * 1024)
	payload := chunkedPayload{Data: want}
	body, err := transport.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	wantChunks := (len(body) + cfg.ChunkBytes - 1) / cfg.ChunkBytes

	arm.Store(true)
	resp, err := transport.CallBulk(n, context.Background(), "snd", "rcv", "rep.push", payload)
	if err != nil {
		t.Fatalf("bulk call across the connection loss: %v", err)
	}
	if ok, _ := resp.(bool); !ok {
		t.Fatalf("bulk response = %v, want true", resp)
	}
	cp, ok := got.Load().(chunkedPayload)
	if !ok {
		t.Fatalf("handler payload type %T", got.Load())
	}
	if !bytes.Equal(cp.Data, want) {
		t.Fatal("resumed payload corrupted in flight")
	}

	st := n.Stats()
	if st.DisconnectDrops != 1 {
		t.Fatalf("DisconnectDrops = %d, want 1", st.DisconnectDrops)
	}
	if st.StreamResumes != 1 {
		t.Fatalf("StreamResumes = %d, want 1", st.StreamResumes)
	}
	if st.ChunkDrops != 0 {
		t.Fatalf("ChunkDrops = %d, want 0 (a connection loss is not a chunk drop)", st.ChunkDrops)
	}
	// The dropped chunk is the only one retransmitted: total chunk frames are
	// the transfer's chunk count plus exactly one retry.
	if st.Chunks != uint64(wantChunks)+1 {
		t.Fatalf("Chunks = %d, want %d (%d chunks + 1 retransmit)", st.Chunks, wantChunks+1, wantChunks)
	}
}

// An AuthFault refusal is prompt and typed: the caller gets
// transport.ErrUnauthenticated without waiting out the dead-call delay, so a
// policy refusal can never be mistaken for a fail-stopped peer.
func TestAuthFaultRefusesPromptlyAndTyped(t *testing.T) {
	cfg := Config{
		DeadCallDelay: 500 * time.Millisecond, // long on purpose: rejects must not wait it out
		Seed:          1,
		AuthFault: func(_, to Addr) bool {
			return to == "locked"
		},
	}
	n := New(cfg)
	for _, a := range []Addr{"locked", "open", "snd"} {
		if err := n.Register(a, func(Addr, string, any) (any, error) { return true, nil }); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	_, err := n.Call(context.Background(), "snd", "locked", "m", int64(1))
	if !errors.Is(err, transport.ErrUnauthenticated) {
		t.Fatalf("call to locked peer: err = %v, want ErrUnauthenticated", err)
	}
	if errors.Is(err, ErrUnreachable) {
		t.Fatal("auth refusal read as ErrUnreachable: callers would treat a policy failure as a fail-stop")
	}
	if elapsed := time.Since(start); elapsed >= cfg.DeadCallDelay {
		t.Fatalf("auth refusal took %v, want < the %v dead-call delay", elapsed, cfg.DeadCallDelay)
	}

	if _, err := n.OpenStream(context.Background(), "snd", "locked", "m"); !errors.Is(err, transport.ErrUnauthenticated) {
		t.Fatalf("stream to locked peer: err = %v, want ErrUnauthenticated", err)
	}

	// The same sender still reaches unlocked peers.
	if _, err := n.Call(context.Background(), "snd", "open", "m", int64(1)); err != nil {
		t.Fatalf("call to open peer: %v", err)
	}

	// A Send is silently dropped and counted.
	n.Send("snd", "locked", "m", int64(1))
	deadline := time.Now().Add(2 * time.Second)
	for n.Stats().AuthRejects < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := n.Stats().AuthRejects; got != 3 {
		t.Fatalf("AuthRejects = %d, want 3 (call + stream + send)", got)
	}
}

// Every way a message can be refused or lost — the sender already dead, the
// three link hooks, a dead destination, a destination dying in its handler —
// driven through all three operations. Call, OpenStream+Commit and Send share
// one fault path (senderDead, refuse, deliver); this table pins what each
// operation's caller and the Stats counters observe of it, which is what the
// three hand-written copies it replaced produced.
func TestFaultParityAcrossOperations(t *testing.T) {
	type counters struct {
		auth, partition, suspect, failures uint64
		handled                            int64
	}
	scenarios := []struct {
		name       string
		cfg        func(*Config)  // arm a hook
		prep       func(*Network) // or break an endpoint
		die        bool           // the handler kills its own endpoint before answering
		is, not    error          // the identity a caller is told, and one it must not be mistaken for
		text       string         // what the error text ends in
		streamText string         // the same for the stream, where it differs
		atOpen     bool           // the stream is refused at OpenStream (else at Commit)
		want       counters
		wantSend   *counters // what a Send leaves behind, where it differs
	}{
		{
			name: "sender dead",
			prep: func(n *Network) { n.Kill("snd") },
			is:   ErrSenderDead, not: ErrUnreachable, text: "sending peer is not alive: snd",
			atOpen: true, want: counters{failures: 1},
		},
		{
			name: "auth",
			cfg:  func(c *Config) { c.AuthFault = func(_, to Addr) bool { return to == "rcv" } },
			is:   transport.ErrUnauthenticated, not: ErrUnreachable, text: "peer not authenticated: rcv",
			atOpen: true, want: counters{auth: 1, failures: 1},
		},
		{
			name: "partition",
			cfg:  func(c *Config) { c.PartitionFault = func(_, to Addr) bool { return to == "rcv" } },
			is:   ErrUnreachable, not: transport.ErrUnauthenticated, text: "peer unreachable: rcv (partitioned)",
			atOpen: true, want: counters{partition: 1, failures: 1},
		},
		{
			name: "suspect",
			cfg:  func(c *Config) { c.SuspectFault = func(_, to Addr, m string) bool { return to == "rcv" && m == "m" } },
			is:   ErrUnreachable, not: transport.ErrUnauthenticated, text: "peer unreachable: rcv (suspect fault)",
			atOpen: true, want: counters{suspect: 1, failures: 1},
		},
		{
			name: "dead destination",
			prep: func(n *Network) { n.Kill("rcv") },
			is:   ErrUnreachable, not: ErrSenderDead, text: "peer unreachable: rcv",
			want: counters{failures: 1},
		},
		{
			name: "died mid-handler",
			die:  true,
			is:   ErrUnreachable, not: ErrSenderDead,
			text: "peer unreachable: rcv (died mid-call)", streamText: "peer unreachable: rcv (died mid-commit)",
			want:     counters{failures: 1, handled: 1},
			wantSend: &counters{handled: 1}, // a Send has no response to lose
		},
	}
	for _, sc := range scenarios {
		for _, op := range []string{"call", "stream", "send"} {
			t.Run(sc.name+"/"+op, func(t *testing.T) {
				cfg := Config{Seed: 1, StrictSerialization: true}
				if sc.cfg != nil {
					sc.cfg(&cfg)
				}
				n := New(cfg)
				var handled atomic.Int64
				if err := n.Register("rcv", func(Addr, string, any) (any, error) {
					handled.Add(1)
					if sc.die {
						n.Kill("rcv")
					}
					return true, nil
				}); err != nil {
					t.Fatal(err)
				}
				if err := n.Register("snd", func(Addr, string, any) (any, error) { return nil, nil }); err != nil {
					t.Fatal(err)
				}
				if sc.prep != nil {
					sc.prep(n)
				}

				ctx := context.Background()
				want, text := sc.want, sc.text
				var wantStats Stats
				var err error
				switch op {
				case "call":
					wantStats.Calls = 1
					_, err = n.Call(ctx, "snd", "rcv", "m", int64(1))
				case "stream":
					wantStats.Streams = 1
					if sc.streamText != "" {
						text = sc.streamText
					}
					var st transport.Stream
					st, err = n.OpenStream(ctx, "snd", "rcv", "m")
					if (err != nil) != sc.atOpen {
						t.Fatalf("OpenStream err = %v, want refused at open: %v", err, sc.atOpen)
					}
					if err == nil {
						body, eerr := transport.Encode(int64(1))
						if eerr != nil {
							t.Fatal(eerr)
						}
						if cerr := st.Chunk(ctx, body); cerr != nil {
							t.Fatalf("chunk: %v", cerr)
						}
						wantStats.Chunks = 1
						_, err = st.Commit(ctx)
					}
				case "send":
					wantStats.Sends = 1
					if sc.wantSend != nil {
						want = *sc.wantSend
					}
					n.Send("snd", "rcv", "m", int64(1))
					// A Send settles in the background: wait for the one thing
					// the scenario does to it.
					deadline := time.Now().Add(2 * time.Second)
					for n.Stats().Failures+uint64(handled.Load()) == 0 && time.Now().Before(deadline) {
						time.Sleep(100 * time.Microsecond)
					}
				}
				if op != "send" {
					if !errors.Is(err, sc.is) || errors.Is(err, sc.not) {
						t.Errorf("err = %v, want identity %v and not %v", err, sc.is, sc.not)
					}
					if err == nil || !strings.HasSuffix(err.Error(), text) {
						t.Errorf("err = %v, want text ending %q", err, text)
					}
				}
				wantStats.AuthRejects, wantStats.PartitionDrops, wantStats.SuspectDrops, wantStats.Failures =
					want.auth, want.partition, want.suspect, want.failures
				got := n.Stats()
				got.ByMethod = nil
				if !reflect.DeepEqual(got, wantStats) {
					t.Errorf("stats = %+v\nwant    %+v", got, wantStats)
				}
				if h := handled.Load(); h != want.handled {
					t.Errorf("handler ran %d times, want %d", h, want.handled)
				}
			})
		}
	}
}
