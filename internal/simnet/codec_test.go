package simnet

import (
	"context"
	"testing"
	"time"

	"repro/internal/transport"
)

type codecRegistered struct{ N int }

func init() {
	transport.RegisterMessage(codecRegistered{})
	transport.RegisterMessage([]int(nil))
}

// An unregistered payload type must fail a Call loudly instead of slipping
// through by reference — the whole point of crossing the codec in-process.
func TestCodecCatchesUnregisteredPayload(t *testing.T) {
	type unregisteredPayload struct{ N int }
	n := New(fastConfig())
	echo := func(_ transport.Addr, _ string, p any) (any, error) { return p, nil }
	if err := n.Register("a", echo); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", echo); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := n.Call(ctx, "a", "b", "m", unregisteredPayload{N: 7}); err == nil {
		t.Fatal("Call with unregistered payload succeeded")
	}
	if err := n.CodecErr(); err == nil {
		t.Fatal("CodecErr not recorded")
	}
	if st := n.Stats(); st.CodecFailures == 0 {
		t.Fatal("CodecFailures not counted")
	}

	// A registered payload keeps working and arrives as a deep copy.
	got, err := n.Call(ctx, "a", "b", "m", codecRegistered{N: 3})
	if err != nil {
		t.Fatalf("Call with registered payload: %v", err)
	}
	if v, ok := got.(codecRegistered); !ok || v.N != 3 {
		t.Fatalf("got %#v", got)
	}
}

// A Send with an unencodable payload is dropped silently (Send failures are
// always silent) but recorded, so tests can assert on it.
func TestCodecRecordsSendRejections(t *testing.T) {
	type unregisteredOneWay struct{ N int }
	n := New(fastConfig())
	delivered := make(chan any, 1)
	if err := n.Register("a", func(_ transport.Addr, _ string, p any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", func(_ transport.Addr, _ string, p any) (any, error) {
		delivered <- p
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}

	n.Send("a", "b", "m", unregisteredOneWay{N: 1})
	select {
	case p := <-delivered:
		t.Fatalf("unencodable one-way payload delivered: %#v", p)
	case <-time.After(20 * time.Millisecond):
	}
	if err := n.CodecErr(); err == nil {
		t.Fatal("CodecErr not recorded for rejected Send")
	}

	n.Send("a", "b", "m", codecRegistered{N: 2})
	select {
	case p := <-delivered:
		if v, ok := p.(codecRegistered); !ok || v.N != 2 {
			t.Fatalf("delivered %#v", p)
		}
	case <-time.After(time.Second):
		t.Fatal("registered one-way payload never delivered")
	}
}

// No value is shared by reference across the wire, in either direction: a
// handler's mutation of the payload it received never reaches the sender, and
// a caller's mutation of the reply it received never reaches the value the
// handler kept. This is the class of bug the codec boundary exists to flush
// out. A Send has no reply, so only the request direction applies to it.
func TestNoAliasingAcrossTheWire(t *testing.T) {
	for _, op := range []string{"call", "send", "bulk"} {
		t.Run(op, func(t *testing.T) {
			n := New(fastConfig())
			if err := n.Register("a", func(transport.Addr, string, any) (any, error) { return nil, nil }); err != nil {
				t.Fatal(err)
			}
			kept := []int{7}
			handled := make(chan struct{}, 1)
			if err := n.Register("b", func(_ transport.Addr, _ string, p any) (any, error) {
				p.([]int)[0] = 42 // hostile mutation of the received payload
				handled <- struct{}{}
				return kept, nil
			}); err != nil {
				t.Fatal(err)
			}

			ctx := context.Background()
			payload := []int{1}
			var reply any
			var err error
			switch op {
			case "call":
				reply, err = n.Call(ctx, "a", "b", "m", payload)
			case "send":
				n.Send("a", "b", "m", payload)
				select {
				case <-handled:
				case <-time.After(time.Second):
					t.Fatal("send never delivered")
				}
			case "bulk":
				reply, err = transport.CallBulk(n, ctx, "a", "b", "m", payload)
			}
			if err != nil {
				t.Fatal(err)
			}
			if payload[0] != 1 {
				t.Error("the handler's mutation of its payload reached the sender")
			}
			if op == "send" {
				return
			}
			reply.([]int)[0] = 99 // hostile mutation of the received reply
			if kept[0] != 7 {
				t.Error("the caller's mutation of its reply reached the handler's value")
			}
		})
	}
}
