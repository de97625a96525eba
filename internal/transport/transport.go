// Package transport defines the network substrate contract of the system:
// the Transport interface every protocol layer (ring, data store,
// replication, router, core) sends its messages through, plus the wire codec
// all RPC payloads are registered with.
//
// The paper assumes only "some underlying network protocol that can be used
// to send messages reliably from one peer to another with known bounded
// delay" with fail-stop peer failures (Section 2.1). Transport captures that
// assumption as an interface so the same protocol code runs unchanged over
// the in-process simulated network (package simnet, for deterministic tests
// and experiments) and over real TCP connections (package transport/tcp, for
// multi-process deployments):
//
//   - Register attaches a peer's request handler at an address;
//   - Call performs a synchronous request/response with per-call deadlines
//     carried by the context;
//   - Send delivers an asynchronous one-way message with silent failure;
//   - Close tears the whole substrate down.
//
// Implementations must present fail-stop semantics: a call to a dead or
// unknown peer blocks for a bounded time and then reports ErrUnreachable,
// exactly how a live peer observes a failed one ("no response" in
// Algorithm 14 of the paper).
package transport

import (
	"context"
	"errors"
	"sync"
)

// Addr identifies a peer on the network (the paper's "physical id"). For the
// simulated network it is an opaque label; for TCP it is a dialable
// host:port.
type Addr string

// Handler processes one incoming request at a peer and returns a response.
// Handlers run concurrently; implementations must be safe for concurrent use.
type Handler func(from Addr, method string, payload any) (any, error)

// Errors returned by transport operations. Implementations wrap these so
// callers can test with errors.Is regardless of the substrate in use.
var (
	// ErrUnreachable reports that the destination peer is dead, unknown, or
	// did not answer within the deadline — the observable signature of a
	// fail-stop failure.
	ErrUnreachable = errors.New("transport: peer unreachable")
	// ErrSenderDead reports that the sending peer itself has been fail-stopped
	// (a failed peer sends nothing).
	ErrSenderDead = errors.New("transport: sending peer is not alive")
	// ErrDuplicate reports a Register at an address that is already serving.
	ErrDuplicate = errors.New("transport: address already registered")
	// ErrClosed reports an operation on a transport after Close.
	ErrClosed = errors.New("transport: closed")
	// ErrFrameTooLarge reports a plain-call message whose encoded form
	// exceeds MaxFrameSize. Unlike ErrUnreachable it is a permanent,
	// payload-level failure: retrying the same message can never succeed.
	// Bulk state transfers go through CallBulk, which on a streaming
	// transport (TCP) carries payloads of any size in chunk frames and never
	// sees it; on one that is not (simnet) a bulk call is a plain call and
	// meets the same bound.
	ErrFrameTooLarge = errors.New("transport: message exceeds frame size limit")
	// ErrUnauthenticated reports a connection refused by the authentication
	// handshake: the remote end does not hold the cluster secret (or refused
	// ours). Unlike ErrUnreachable it is a policy failure — the peer is up,
	// it just will not talk to us — so callers should not treat it as a
	// fail-stop signal.
	ErrUnauthenticated = errors.New("transport: peer not authenticated")
	// ErrWriterStopped reports a frame that was queued on a connection whose
	// writer stopped before writing it. The frame never reached the wire;
	// pending calls carrying it are failed promptly with this error (wrapped
	// in ErrUnreachable semantics by the TCP transport) instead of waiting
	// out their deadlines.
	ErrWriterStopped = errors.New("transport: connection writer stopped")
)

func init() {
	// These sentinels can surface inside stream-failure notices and remote
	// error text; register them so errors.Is works across the wire.
	RegisterWireError(ErrUnauthenticated)
	RegisterWireError(ErrWriterStopped)
}

// Transport is the message substrate connecting peers. All methods are safe
// for concurrent use.
type Transport interface {
	// Register attaches a peer to the network at addr; incoming requests are
	// dispatched to h. Registering an address that is already live is an
	// error; re-registering a dead address revives it.
	Register(addr Addr, h Handler) error
	// Call performs a synchronous request/response from one peer to another.
	// A call to a dead destination reports ErrUnreachable after a bounded
	// delay. The context bounds the whole exchange.
	Call(ctx context.Context, from, to Addr, method string, payload any) (any, error)
	// Send delivers a one-way message asynchronously: it returns immediately
	// and delivery failures are silent, as on a real network.
	Send(from, to Addr, method string, payload any)
	// Close tears down the transport: all endpoints stop serving and
	// subsequent operations fail.
	Close() error
}

// Deregistrar is implemented by transports that can fail-stop a single
// endpoint: the peer stops being served and calls to it report
// ErrUnreachable, while the rest of the transport keeps running. simnet
// implements it as Kill (failure injection); TCP implements it by closing the
// peer's listener (graceful departure).
type Deregistrar interface {
	Deregister(addr Addr)
}

// Deregister fail-stops addr on t if the transport supports per-endpoint
// teardown, and is a no-op otherwise.
func Deregister(t Transport, addr Addr) {
	if d, ok := t.(Deregistrar); ok {
		d.Deregister(addr)
	}
}

// Pending is the future of one asynchronous call: issued now, resolved when
// the response (or failure) arrives. Callers hold many Pendings at once to
// pipeline independent RPCs — including several to the same peer, which
// multiplexing transports carry concurrently on one connection.
//
// A Pending waits lazily: its outcome is produced by the first Result, and
// every later Result returns the same one.
type Pending struct {
	wait waiter // produces the outcome; run once, by the first Result
	once sync.Once
	val  any
	err  error
}

// A waiter produces a call's outcome: a transport's wait for its response
// (Await), or the hand-over from a NewPending's first Resolve.
type waiter interface{ wait() (any, error) }

type waitFunc func() (any, error)

func (f waitFunc) wait() (any, error) { return f() }

// Await returns a Pending whose outcome is wait's. A transport whose request
// is already on the wire hands over the wait for its response, so no
// goroutine stands between the call and its caller.
func Await(wait func() (any, error)) *Pending { return &Pending{wait: waitFunc(wait)} }

// Resolved returns a Pending that has already completed with v, err.
func Resolved(v any, err error) *Pending {
	return Await(func() (any, error) { return v, err })
}

// Go runs f on a goroutine of its own and returns the Pending of its
// outcome: the fallback for a call with no native asynchronous path.
func Go(f func() (any, error)) *Pending {
	p := NewPending()
	go func() { p.Resolve(f()) }()
	return p
}

// NewPending returns a Pending that completes at its first Resolve.
func NewPending() *Pending { return &Pending{wait: make(handOver, 1)} }

// handOver carries a NewPending's first resolution to its Result.
type handOver chan outcome

type outcome struct {
	val any
	err error
}

func (h handOver) wait() (any, error) {
	r := <-h
	return r.val, r.err
}

// Resolve completes a Pending made by NewPending. Later resolutions are
// ignored, so a response racing a timeout settles cleanly on whichever lands
// first.
func (p *Pending) Resolve(v any, err error) {
	select {
	case p.wait.(handOver) <- outcome{v, err}:
	default:
	}
}

// Result blocks until the call resolves and returns its outcome. The call's
// own context bounds the wait: every issued call resolves — with its
// response, its handler error, or a transport failure — within its deadline.
func (p *Pending) Result() (any, error) {
	p.once.Do(func() { p.val, p.err = p.wait.wait() })
	return p.val, p.err
}

// WireStats are a transport's authentication and resilience counters,
// surfaced through operator probes (ops.ProbeStatus).
type WireStats struct {
	// AuthEnabled reports whether the transport requires the cluster-secret
	// handshake on every connection.
	AuthEnabled bool
	// HandshakeRejects counts connections this transport failed at the
	// authentication handshake, on either side of the dial: inbound dialers
	// it refused (wrong cluster key, malformed hello, auth disabled on one
	// side, or a dialer that abandoned the handshake after seeing this
	// server's proof) and outbound dials it refused to complete.
	HandshakeRejects uint64
	// ChaosDrops counts the connections the transport's chaos fault killed
	// under a bulk transfer (at most one per process; see the TCP
	// transport's ChaosChunkDrop).
	ChaosDrops uint64
	// OpenConns is the number of live connections, dialed plus accepted,
	// that are past their handshake.
	OpenConns uint64
	// StreamResumes is always 0: no transport resumes a transfer any more. It
	// stays only because the benchmark still reads it; the next change to the
	// benchmark deletes it.
	StreamResumes uint64
}

// WireStatsProvider is implemented by transports that track WireStats.
type WireStatsProvider interface {
	WireStats() WireStats
}

// AsyncCaller is implemented by transports with native asynchronous calls.
// CallAsync has exactly Call's semantics (deadlines, fail-stop reporting,
// error identities) but does not wait for the response: it returns once the
// request is issued, and the Pending's Result waits for the response.
type AsyncCaller interface {
	CallAsync(ctx context.Context, from, to Addr, method string, payload any) *Pending
}

// CallAsync issues an asynchronous call on any transport: natively when t
// implements AsyncCaller, otherwise by running the synchronous Call in a
// goroutine. Protocol code uses it to fan out independent RPCs — the
// semantics match Call either way, only the concurrency differs.
func CallAsync(t Transport, ctx context.Context, from, to Addr, method string, payload any) *Pending {
	if ac, ok := t.(AsyncCaller); ok {
		return ac.CallAsync(ctx, from, to, method, payload)
	}
	return Go(func() (any, error) { return t.Call(ctx, from, to, method, payload) })
}
