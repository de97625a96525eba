package transport

import (
	"context"
	"fmt"
)

// Method is one RPC of a protocol component, typed at both ends: the name it
// travels under, the request type its handler takes and the reply type its
// callers get back. It is the only place a payload or a reply is decoded, so
// a component's file holds its messages and its protocol steps and no
// plumbing. NewMethod registers Req and Resp with the wire codec; a component
// lists with RegisterMessage only the types no method names (values carried
// inside an interface-typed field).
//
// Everything here is built on Transport.Call, Send, CallAsync and
// CallBulk(Async) with the same method string and the same concrete payload,
// so transports and their decorators see exactly the traffic they always did.
type Method[Req, Resp any] struct{ name string }

// None is the Req or Resp of a method that carries nothing in that
// direction. It is nil on the wire, not an empty struct.
type None struct{}

// NewMethod declares the method called name and registers its message types.
// Call it from a package-level var, once per method.
func NewMethod[Req, Resp any](name string) Method[Req, Resp] {
	registerTypeOf[Req]()
	registerTypeOf[Resp]()
	return Method[Req, Resp]{name: name}
}

func registerTypeOf[T any]() {
	if !isNone[T]() {
		var zero T
		RegisterMessage(zero)
	}
}

func isNone[T any]() bool {
	var zero T
	_, none := any(zero).(None)
	return none
}

// Name is the method's name on the wire.
func (m Method[Req, Resp]) Name() string { return m.name }

// MessageTypeError reports a request payload or a reply whose concrete type
// is not the one its method declares.
type MessageTypeError struct {
	Method string
	Reply  bool   // the reply was mistyped, not the request
	Got    string // the concrete type that arrived
	Want   string // the type the method declares
}

func (e *MessageTypeError) Error() string {
	what := "request"
	if e.Reply {
		what = "reply"
	}
	return fmt.Sprintf("transport: %s: bad %s payload %s, want %s", e.Method, what, e.Got, e.Want)
}

// toWire is the value a typed message travels as: itself, or nil for None.
func toWire[T any](v T) any {
	if isNone[T]() {
		return nil
	}
	return v
}

// fromWire recovers a typed message from what arrived.
func fromWire[T any](method string, reply bool, v any) (T, error) {
	if t, ok := v.(T); ok {
		return t, nil
	}
	var zero T
	if v == nil && isNone[T]() {
		return zero, nil
	}
	return zero, &MessageTypeError{Method: method, Reply: reply, Got: fmt.Sprintf("%T", v), Want: fmt.Sprintf("%T", zero)}
}

// Handle serves the method on mux with h.
func (m Method[Req, Resp]) Handle(mux *Mux, h func(from Addr, req Req) (Resp, error)) {
	mux.Handle(m.name, func(from Addr, _ string, payload any) (any, error) {
		req, err := fromWire[Req](m.name, false, payload)
		if err != nil {
			return nil, err
		}
		resp, err := h(from, req)
		if err != nil {
			return nil, err
		}
		return toWire(resp), nil
	})
}

// reply decodes the outcome of a call of method.
func reply[Resp any](method string, v any, err error) (Resp, error) {
	if err != nil {
		var zero Resp
		return zero, err
	}
	return fromWire[Resp](method, true, v)
}

// Call is Transport.Call with the reply decoded.
func (m Method[Req, Resp]) Call(ctx context.Context, t Transport, from, to Addr, req Req) (Resp, error) {
	v, err := t.Call(ctx, from, to, m.name, toWire(req))
	return reply[Resp](m.name, v, err)
}

// CallBulk is CallBulk with the reply decoded.
func (m Method[Req, Resp]) CallBulk(ctx context.Context, t Transport, from, to Addr, req Req) (Resp, error) {
	v, err := CallBulk(t, ctx, from, to, m.name, toWire(req))
	return reply[Resp](m.name, v, err)
}

// Send is Transport.Send: one way, no reply, silent failure.
func (m Method[Req, Resp]) Send(t Transport, from, to Addr, req Req) {
	t.Send(from, to, m.name, toWire(req))
}

// PendingOf is a Pending whose outcome is decoded as a method's reply.
type PendingOf[Resp any] struct {
	p      *Pending
	method string
}

// Result blocks until the call resolves and returns its decoded outcome.
func (p *PendingOf[Resp]) Result() (Resp, error) {
	v, err := p.p.Result()
	return reply[Resp](p.method, v, err)
}

// CallAsync is CallAsync with the reply decoded at Result.
func (m Method[Req, Resp]) CallAsync(ctx context.Context, t Transport, from, to Addr, req Req) *PendingOf[Resp] {
	return &PendingOf[Resp]{p: CallAsync(t, ctx, from, to, m.name, toWire(req)), method: m.name}
}

// CallBulkAsync is CallBulkAsync with the reply decoded at Result.
func (m Method[Req, Resp]) CallBulkAsync(ctx context.Context, t Transport, from, to Addr, req Req) *PendingOf[Resp] {
	return &PendingOf[Resp]{p: CallBulkAsync(t, ctx, from, to, m.name, toWire(req)), method: m.name}
}
