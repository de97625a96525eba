package transport_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/transport"
)

// loopback is the smallest Transport: every call goes straight to one mux,
// and the payload is kept as it was handed over — what a decorator or a real
// wire would see.
type loopback struct {
	mux     *transport.Mux
	payload any
	method  string
}

func (l *loopback) Register(transport.Addr, transport.Handler) error { return nil }
func (l *loopback) Close() error                                     { return nil }
func (l *loopback) Call(_ context.Context, from, _ transport.Addr, method string, payload any) (any, error) {
	l.method, l.payload = method, payload
	return l.mux.Dispatch(from, method, payload)
}
func (l *loopback) Send(from, _ transport.Addr, method string, payload any) {
	l.method, l.payload = method, payload
	_, _ = l.mux.Dispatch(from, method, payload)
}

type methodTestReq struct{ N int }
type methodTestResp struct{ Twice int }

var (
	methodDouble = transport.NewMethod[methodTestReq, methodTestResp]("test.double")
	methodPoke   = transport.NewMethod[transport.None, transport.None]("test.poke")
)

func TestMethodRoundTripOnEveryCallShape(t *testing.T) {
	net := &loopback{mux: transport.NewMux()}
	methodDouble.Handle(net.mux, func(_ transport.Addr, req methodTestReq) (methodTestResp, error) {
		if req.N < 0 {
			return methodTestResp{}, errors.New("negative")
		}
		return methodTestResp{Twice: 2 * req.N}, nil
	})
	ctx := context.Background()
	calls := map[string]func(methodTestReq) (methodTestResp, error){
		"Call": func(r methodTestReq) (methodTestResp, error) { return methodDouble.Call(ctx, net, "a", "b", r) },
		"CallBulk": func(r methodTestReq) (methodTestResp, error) {
			return methodDouble.CallBulk(ctx, net, "a", "b", r)
		},
		"CallAsync": func(r methodTestReq) (methodTestResp, error) {
			return methodDouble.CallAsync(ctx, net, "a", "b", r).Result()
		},
		"CallBulkAsync": func(r methodTestReq) (methodTestResp, error) {
			return methodDouble.CallBulkAsync(ctx, net, "a", "b", r).Result()
		},
	}
	for name, call := range calls {
		if got, err := call(methodTestReq{N: 21}); err != nil || got.Twice != 42 {
			t.Errorf("%s = %+v, %v; want Twice 42", name, got, err)
		}
		if net.method != "test.double" || net.payload != (methodTestReq{N: 21}) {
			t.Errorf("%s put %q %#v on the wire, want the method's name and the bare request", name, net.method, net.payload)
		}
		if got, err := call(methodTestReq{N: -1}); err == nil || err.Error() != "negative" || got != (methodTestResp{}) {
			t.Errorf("%s of a failing handler = %+v, %v; want the handler's error and a zero reply", name, got, err)
		}
	}
}

func TestMethodMistypedMessagesYieldOneTypedError(t *testing.T) {
	net := &loopback{mux: transport.NewMux()}
	methodDouble.Handle(net.mux, func(_ transport.Addr, req methodTestReq) (methodTestResp, error) {
		return methodTestResp{Twice: 2 * req.N}, nil
	})
	check := func(err error, reply bool, got string) {
		t.Helper()
		var mte *transport.MessageTypeError
		if !errors.As(err, &mte) {
			t.Fatalf("error %v is not a MessageTypeError", err)
		}
		want := transport.MessageTypeError{Method: "test.double", Reply: reply, Got: got,
			Want: fmt.Sprintf("%T", methodTestReq{})}
		if reply {
			want.Want = fmt.Sprintf("%T", methodTestResp{})
		}
		if *mte != want {
			t.Fatalf("error %+v, want %+v", *mte, want)
		}
	}
	// A request of the wrong type, as a remote peer could send it.
	_, err := net.mux.Dispatch("a", "test.double", "twenty-one")
	check(err, false, "string")
	_, err = net.mux.Dispatch("a", "test.double", nil)
	check(err, false, "<nil>")

	// A reply of the wrong type, from a handler installed under the same name.
	net.mux.Handle("test.double", func(transport.Addr, string, any) (any, error) { return 42, nil })
	_, err = methodDouble.Call(context.Background(), net, "a", "b", methodTestReq{N: 21})
	check(err, true, "int")
	_, err = methodDouble.CallAsync(context.Background(), net, "a", "b", methodTestReq{N: 21}).Result()
	check(err, true, "int")
}

func TestMethodNoneIsNilOnTheWire(t *testing.T) {
	net := &loopback{mux: transport.NewMux()}
	poked := 0
	methodPoke.Handle(net.mux, func(transport.Addr, transport.None) (transport.None, error) {
		poked++
		return transport.None{}, nil
	})
	net.payload = "unset"
	if _, err := methodPoke.Call(context.Background(), net, "a", "b", transport.None{}); err != nil {
		t.Fatal(err)
	}
	if net.payload != nil {
		t.Fatalf("a None request travelled as %#v, want nil", net.payload)
	}
	net.payload = "unset"
	methodPoke.Send(net, "a", "b", transport.None{})
	if net.payload != nil || poked != 2 {
		t.Fatalf("a None send travelled as %#v (handler ran %d times), want nil and 2", net.payload, poked)
	}
	if reply, err := net.mux.Dispatch("a", "test.poke", nil); err != nil || reply != nil {
		t.Fatalf("a None reply travelled as %#v, %v; want nil", reply, err)
	}
	if _, err := net.mux.Dispatch("a", "test.poke", 7); err == nil {
		t.Fatal("a None method accepted a payload")
	}
}

func TestNewMethodRegistersItsMessageTypes(t *testing.T) {
	have := make(map[string]bool)
	for _, sample := range transport.RegisteredMessages() {
		have[fmt.Sprintf("%T", sample)] = true
	}
	for _, want := range []any{methodTestReq{}, methodTestResp{}} {
		if !have[fmt.Sprintf("%T", want)] {
			t.Errorf("%T is named by a method but not registered with the codec", want)
		}
	}
	if have[fmt.Sprintf("%T", transport.None{})] {
		t.Error("None was registered; it never travels")
	}
	if _, err := transport.RoundTrip(methodTestResp{Twice: 2}); err != nil {
		t.Errorf("a method's reply type does not survive the codec: %v", err)
	}
}
