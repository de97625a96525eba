package simnet

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// Every way a message can be refused or lost — the network closed, the
// sender already dead, each fault verdict, a dead destination, a destination
// dying in its handler — driven through all three operations. Call,
// OpenStream+Commit and Send share one fault path (admit, refuse, deliver);
// this table pins what each operation's caller and the Stats counters observe
// of it, which is what the three hand-written copies it replaced produced.
func TestFaultParityAcrossOperations(t *testing.T) {
	type counters struct {
		severed, lost, failures uint64
		handled                 int64
	}
	scenarios := []struct {
		name       string
		fault      func(Msg) Verdict // the fault hook, if any
		prep       func(*Network)    // or break an endpoint
		die        bool              // the handler kills its own endpoint before answering
		is, not    error             // the identity a caller is told, and one it must not be mistaken for
		text       string            // what the error text ends in
		streamText string            // the same for the stream, where it differs
		atOpen     bool              // the stream is refused at OpenStream (else at Commit)
		want       counters
		wantSend   *counters // what a Send leaves behind, where it differs
	}{
		{
			name: "closed",
			prep: func(n *Network) { _ = n.Close() },
			is:   transport.ErrClosed, not: ErrSenderDead, text: "transport: closed",
			atOpen: true, want: counters{failures: 1},
		},
		{
			name: "sender dead",
			prep: func(n *Network) { n.Kill("snd") },
			is:   ErrSenderDead, not: ErrUnreachable, text: "sending peer is not alive: snd",
			atOpen: true, want: counters{failures: 1},
		},
		{
			name:  "partition",
			fault: func(m Msg) Verdict { return verdictIf(m.To == "rcv", Sever) },
			is:    ErrUnreachable, not: transport.ErrUnauthenticated, text: "peer unreachable: rcv (partitioned)",
			atOpen: true, want: counters{severed: 1, failures: 1},
		},
		{
			name:  "suspect",
			fault: func(m Msg) Verdict { return verdictIf(m.To == "rcv" && m.Method == "m", Lose) },
			is:    ErrUnreachable, not: transport.ErrUnauthenticated, text: "peer unreachable: rcv (lost)",
			atOpen: true, want: counters{lost: 1, failures: 1},
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
				n := New(Config{Seed: 1, Fault: sc.fault})
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
				wantStats.Severed, wantStats.Lost, wantStats.Failures = want.severed, want.lost, want.failures
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

// verdictIf returns v when cond holds, else Deliver.
func verdictIf(cond bool, v Verdict) Verdict {
	if cond {
		return v
	}
	return Deliver
}
