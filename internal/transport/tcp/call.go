package tcp

import (
	"context"
	"errors"

	"repro/internal/transport"
)

// Call implements transport.Transport. The round trip runs on the caller's
// goroutine: it writes the request (or queues it behind the write in
// progress) and waits for the response, bounded by ctx, or by
// Config.CallTimeout when ctx carries no deadline.
func (t *Transport) Call(ctx context.Context, from, to transport.Addr, method string, payload any) (any, error) {
	ctx, cancel := t.withCallTimeout(ctx)
	defer cancel()
	o, err := t.call(ctx, from, to, method, payload)
	if err != nil {
		return nil, err
	}
	return o.wait(ctx)
}

// CallAsync implements transport.AsyncCaller. The request is sent before
// CallAsync returns, on the caller's goroutine, and the Pending's first
// Result waits for the response. When the call's context ends first, its
// request ID is unregistered, so a Pending that is never asked leaves nothing
// behind. Many pendings to the same peer ride one multiplexed connection
// concurrently.
func (t *Transport) CallAsync(ctx context.Context, from, to transport.Addr, method string, payload any) *transport.Pending {
	ctx, cancel := t.withCallTimeout(ctx)
	o, err := t.call(ctx, from, to, method, payload)
	if err != nil {
		cancel()
		return transport.Resolved(nil, err)
	}
	return o.async(ctx, cancel)
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
// given kind. Whoever ends up holding the message releases it: enqueue, or
// the path that gives up before it.
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

// outbound is one request on the wire: the connection it went out on and the
// registration its response comes back to.
type outbound struct {
	mc *muxConn
	to transport.Addr
	id uint64
	ch chan pendingResp
}

// call sends one call frame to `to`, bounded by ctx.
func (t *Transport) call(ctx context.Context, from, to transport.Addr, method string, payload any) (outbound, error) {
	msg, err := request(kindCall, from, method, payload)
	if err != nil {
		return outbound{}, err
	}
	mc, err := t.grabConn(ctx, to)
	if err != nil {
		msg.release()
		return outbound{}, unreachable(to, err)
	}
	id, ch, err := mc.send(ctx, msg)
	if err != nil {
		return outbound{}, failure(to, err)
	}
	return outbound{mc: mc, to: to, id: id, ch: ch}, nil
}

// wait blocks for o's response, bounded by ctx, and returns what the caller
// is told.
func (o outbound) wait(ctx context.Context) (any, error) {
	resp, err := o.mc.await(ctx, o.id, o.ch)
	return outcome(o.to, resp, err)
}

// async hands o's wait to a Pending. Once ctx ends, o's request ID is
// unregistered whether or not anyone waits; cancel releases ctx after the
// wait.
func (o outbound) async(ctx context.Context, cancel context.CancelFunc) *transport.Pending {
	stop := context.AfterFunc(ctx, func() { o.mc.unregister(o.id) })
	return transport.Await(func() (any, error) {
		defer cancel()
		defer stop()
		return o.wait(ctx)
	})
}

// outcome turns the end of an exchange with to — its response frame, or the
// error that cut it short — into what the caller is told. The response is
// decoded here, on the waiter's goroutine, and then released: outcome is its
// last owner.
func outcome(to transport.Addr, resp wireMsg, err error) (any, error) {
	defer resp.release()
	switch {
	case err != nil:
		return nil, failure(to, err)
	case resp.Fail:
		return nil, &streamFailError{msg: resp.Err}
	case resp.Err != "":
		return nil, &RemoteError{Msg: resp.Err}
	}
	return transport.Decode(resp.Payload)
}

// failure is what the caller of an exchange with to is told of the error that
// cut it short. Only a failure of the connection reads as the peer being
// unreachable.
func failure(to transport.Addr, err error) error {
	var se *stageError
	switch {
	case errors.Is(err, transport.ErrFrameTooLarge):
		return err // permanent payload failure, not a fail-stop signal
	case errors.As(err, &se):
		return se.err // local staging failure on a healthy connection
	}
	return unreachable(to, err)
}
