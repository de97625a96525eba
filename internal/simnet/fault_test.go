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
// dying in its handler — driven through both operations. Call and Send share
// one fault path (admit, refuse); this table pins what each operation's caller
// and the Stats counters observe of it.
func TestFaultParityAcrossOperations(t *testing.T) {
	type counters struct {
		severed, lost, failures uint64
		handled                 int64
	}
	scenarios := []struct {
		name     string
		fault    func(Msg) Verdict // the fault hook, if any
		prep     func(*Network)    // or break an endpoint
		die      bool              // the handler kills its own endpoint before answering
		is, not  error             // the identity a caller is told, and one it must not be mistaken for
		text     string            // what the error text ends in
		want     counters
		wantSend *counters // what a Send leaves behind, where it differs
	}{
		{
			name: "closed",
			prep: func(n *Network) { _ = n.Close() },
			is:   transport.ErrClosed, not: transport.ErrSenderDead, text: "transport: closed",
			want: counters{failures: 1},
		},
		{
			name: "sender dead",
			prep: func(n *Network) { n.Kill("snd") },
			is:   transport.ErrSenderDead, not: transport.ErrUnreachable, text: "sending peer is not alive: snd",
			want: counters{failures: 1},
		},
		{
			name:  "partition",
			fault: func(m Msg) Verdict { return verdictIf(m.To == "rcv", Sever) },
			is:    transport.ErrUnreachable, not: transport.ErrUnauthenticated, text: "peer unreachable: rcv (partitioned)",
			want: counters{severed: 1, failures: 1},
		},
		{
			name:  "suspect",
			fault: func(m Msg) Verdict { return verdictIf(m.To == "rcv" && m.Method == "m", Lose) },
			is:    transport.ErrUnreachable, not: transport.ErrUnauthenticated, text: "peer unreachable: rcv (lost)",
			want: counters{lost: 1, failures: 1},
		},
		{
			name: "dead destination",
			prep: func(n *Network) { n.Kill("rcv") },
			is:   transport.ErrUnreachable, not: transport.ErrSenderDead, text: "peer unreachable: rcv",
			want: counters{failures: 1},
		},
		{
			name: "died mid-handler",
			die:  true,
			is:   transport.ErrUnreachable, not: transport.ErrSenderDead,
			text:     "peer unreachable: rcv (died mid-call)",
			want:     counters{failures: 1, handled: 1},
			wantSend: &counters{handled: 1}, // a Send has no response to lose
		},
	}
	for _, sc := range scenarios {
		for _, op := range []string{"call", "send"} {
			t.Run(sc.name+"/"+op, func(t *testing.T) {
				n := New(Config{Seed: 1, Fault: sc.fault})
				var handled atomic.Int64
				if err := n.Register("rcv", func(transport.Addr, string, any) (any, error) {
					handled.Add(1)
					if sc.die {
						n.Kill("rcv")
					}
					return true, nil
				}); err != nil {
					t.Fatal(err)
				}
				if err := n.Register("snd", func(transport.Addr, string, any) (any, error) { return nil, nil }); err != nil {
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
