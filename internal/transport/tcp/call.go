package tcp

import (
	"context"
	"errors"

	"repro/internal/transport"
)

// Call implements transport.Transport. The exchange is bounded by ctx, or by
// Config.CallTimeout when ctx carries no deadline.
func (t *Transport) Call(ctx context.Context, from, to transport.Addr, method string, payload any) (any, error) {
	return t.CallAsync(ctx, from, to, method, payload).Result()
}

// CallAsync implements transport.AsyncCaller: issue the call and return its
// Pending immediately. Many pendings to the same peer ride one multiplexed
// connection concurrently.
func (t *Transport) CallAsync(ctx context.Context, from, to transport.Addr, method string, payload any) *transport.Pending {
	p := transport.NewPending()
	msg, err := request(kindCall, from, method, payload)
	if err == nil && !t.track(func() { p.Resolve(t.roundTrip(ctx, msg, to)) }) {
		msg.release()
		err = transport.ErrClosed
	}
	if err != nil {
		p.Resolve(nil, err)
	}
	return p
}

// Send implements transport.Transport: deliver asynchronously, dropping the
// message on any failure. Send frames share the multiplexed connections and
// the write batcher with calls.
func (t *Transport) Send(from, to transport.Addr, method string, payload any) {
	msg, err := request(kindSend, from, method, payload)
	if err != nil {
		return
	}
	sent := t.track(func() {
		ctx, cancel := t.withCallTimeout(context.Background())
		defer cancel()
		mc, err := t.grabConn(ctx, to)
		if err != nil {
			msg.release()
			return
		}
		_ = mc.w.enqueue(ctx, msg)
	})
	if !sent {
		msg.release()
	}
}

// request is how every call and send leaves its caller's goroutine: the
// payload encoded, into a pooled buffer, as the body of a message of the
// given kind, which the caller then hands to a tracked goroutine to exchange.
// Whoever ends up holding the message releases it: enqueue, or the path that
// gives up before it.
func request(kind int, from transport.Addr, method string, payload any) (wireMsg, error) {
	bp, err := encode(payload)
	if err != nil {
		return wireMsg{}, err
	}
	return wireMsg{Kind: kind, From: string(from), Method: method, Payload: *bp, buf: bp}, nil
}

// withCallTimeout applies the default per-call deadline — the "known bounded
// delay" of Section 2.1 — when ctx carries none.
func (t *Transport) withCallTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, t.cfg.CallTimeout)
}

// roundTrip performs one call exchange against to, bounded by ctx (or the
// default call timeout).
func (t *Transport) roundTrip(ctx context.Context, msg wireMsg, to transport.Addr) (any, error) {
	ctx, cancel := t.withCallTimeout(ctx)
	defer cancel()
	mc, err := t.grabConn(ctx, to)
	if err != nil {
		msg.release()
		return nil, unreachable(to, err)
	}
	resp, err := mc.exchange(ctx, msg)
	return outcome(to, resp, err)
}

// outcome turns the end of an exchange with to — its response frame, or the
// error that cut it short — into what the caller is told. Only a failure of
// the connection reads as the peer being unreachable. The response is
// decoded here, on the waiter's goroutine, and then released: outcome is its
// last owner.
func outcome(to transport.Addr, resp wireMsg, err error) (any, error) {
	defer resp.release()
	var se *stageError
	switch {
	case errors.Is(err, transport.ErrFrameTooLarge):
		return nil, err // permanent payload failure, not a fail-stop signal
	case errors.As(err, &se):
		return nil, se.err // local staging failure on a healthy connection
	case err != nil:
		return nil, unreachable(to, err)
	case resp.Fail:
		return nil, &streamFailError{msg: resp.Err}
	case resp.Err != "":
		return nil, &RemoteError{Msg: resp.Err}
	}
	return transport.Decode(resp.Payload)
}
