// Package simnet provides the in-memory implementation of the transport
// contract: an in-process message network connecting simulated peers.
//
// The paper's evaluation ran 30 concurrent peer processes on a LAN cluster
// (Section 6.1) and assumes "some underlying network protocol that can be
// used to send messages reliably from one peer to another with known bounded
// delay" with fail-stop peer failures (Section 2.1). simnet reproduces that
// contract in one process, implementing transport.Transport:
//
//   - every peer registers an endpoint with a request handler;
//   - Call performs a synchronous request/response with a configurable,
//     uniformly sampled propagation delay in each direction;
//   - Send performs an asynchronous one-way message;
//   - Kill fail-stops a peer: its handler stops being invoked, and calls to
//     it time out after the configured dead-call delay, exactly how a live
//     peer observes a failed one ("no response" in Algorithm 14).
//
// Every payload and response crosses the wire codec (transport.Encode and
// Decode) instead of being handed over by reference. Handlers observe exactly
// the deep copy a real network hop delivers, so tests catch unregistered
// message types, unencodable fields and accidental sharing of mutable state
// long before the TCP transport does. One hook, Config.Fault, decides the fate
// of every message and stream chunk.
//
// All delays scale with Config values, so experiments can run the paper's
// second-scale parameters at millisecond scale (see bench.Params).
package simnet

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Addr identifies a peer on the network (the paper's "physical id").
type Addr = transport.Addr

// Handler processes one incoming request at a peer and returns a response.
// Handlers run concurrently; implementations must be safe for concurrent use.
type Handler = transport.Handler

// Mux dispatches per-method handlers for one peer; see transport.Mux.
type Mux = transport.Mux

// NewMux returns an empty dispatcher.
func NewMux() *Mux { return transport.NewMux() }

// Errors returned by network operations, shared with every other transport
// implementation so callers can errors.Is regardless of substrate.
var (
	ErrUnreachable = transport.ErrUnreachable
	ErrSenderDead  = transport.ErrSenderDead
	ErrDuplicate   = transport.ErrDuplicate
)

// Config controls network timing and fault injection.
type Config struct {
	// MinLatency and MaxLatency bound the uniformly sampled one-way
	// propagation delay. Zero values mean instantaneous delivery.
	MinLatency, MaxLatency time.Duration
	// DeadCallDelay is how long a Call to a failed or unknown peer blocks
	// before reporting ErrUnreachable, modelling an RPC timeout.
	DeadCallDelay time.Duration
	// Seed initializes the latency sampler; zero means a fixed default.
	Seed int64
	// ChunkBytes is the chunk size for streamed bulk transfers (OpenStream).
	// Default transport.DefaultChunkBytes.
	ChunkBytes int
	// Fault, when set, decides the fate of every message before it is
	// delivered: each Call, Send and OpenStream (Msg.Seq = -1) and each chunk
	// of a streamed transfer (Msg.Seq = its zero-based index). Both endpoints
	// stay alive whatever it returns. Sever models a network partition, Lose
	// a message that vanishes in flight: aimed at ring.ping traffic toward a
	// live peer, Lose makes the ring's failure detector wrongly declare that
	// peer dead while its datastore keeps serving — the dual-claim window
	// epoch fencing exists to close.
	Fault func(Msg) Verdict
}

// Msg is one message as Config.Fault sees it.
type Msg struct {
	From, To Addr
	Method   string
	// Seq is -1 for a Call, Send or OpenStream, and the chunk index for a
	// chunk of a streamed transfer.
	Seq int
}

// Verdict is the fate Config.Fault assigns to one message.
type Verdict int

const (
	// Deliver lets the message through.
	Deliver Verdict = iota
	// Sever refuses the message at once with ErrUnreachable ("partitioned"):
	// a partition refuses, it does not time out. A Send is dropped; a severed
	// chunk tears its transfer down.
	Sever
	// Lose drops the message in flight: the caller blocks for DeadCallDelay
	// and reports ErrUnreachable, exactly what a fail-stopped destination
	// looks like. A Send is dropped; a lost chunk tears its transfer down at
	// once — the sender's stream fails, everything staged is discarded and
	// the receiver's handler never runs.
	Lose
)

// DefaultConfig returns timing suited to millisecond-scale experiments.
func DefaultConfig() Config {
	return Config{
		MinLatency:    200 * time.Microsecond,
		MaxLatency:    800 * time.Microsecond,
		DeadCallDelay: 5 * time.Millisecond,
		Seed:          1,
	}
}

// Stats aggregates network traffic counters.
type Stats struct {
	Calls         uint64 // synchronous request/responses attempted
	Sends         uint64 // one-way messages attempted
	Streams       uint64 // chunked transfers opened
	Chunks        uint64 // chunk frames carried by streamed transfers
	Severed       uint64 // messages and chunks refused by a Sever verdict
	Lost          uint64 // messages and chunks dropped by a Lose verdict
	Failures      uint64 // calls/sends that could not be delivered
	CodecFailures uint64 // messages the codec rejected or the frame limit refused
	ByMethod      map[string]uint64
}

// Network is an in-process message network implementing transport.Transport.
// The zero value is not usable; construct with New.
type Network struct {
	cfg Config

	mu     sync.RWMutex
	peers  map[Addr]*endpoint
	closed atomic.Bool

	rngMu sync.Mutex
	rng   *rand.Rand

	calls         atomic.Uint64
	sends         atomic.Uint64
	streams       atomic.Uint64
	chunks        atomic.Uint64
	severed       atomic.Uint64
	lost          atomic.Uint64
	failures      atomic.Uint64
	codecFailures atomic.Uint64

	codecErr atomic.Pointer[error] // first codec rejection observed

	methodMu sync.Mutex
	byMethod map[string]uint64
}

// Network must satisfy the substrate contract used by every protocol layer,
// including the asynchronous pipelining interface the TCP transport
// multiplexes natively.
var (
	_ transport.Transport    = (*Network)(nil)
	_ transport.Deregistrar  = (*Network)(nil)
	_ transport.AsyncCaller  = (*Network)(nil)
	_ transport.StreamOpener = (*Network)(nil)
)

type endpoint struct {
	handler Handler
	alive   atomic.Bool
}

// New constructs an empty network.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = transport.DefaultChunkBytes
	}
	return &Network{
		cfg:      cfg,
		peers:    make(map[Addr]*endpoint),
		rng:      rand.New(rand.NewSource(seed)),
		byMethod: make(map[string]uint64),
	}
}

// Register attaches a peer to the network. Re-registering an address that was
// previously killed revives it with the new handler (a free peer re-entering
// service); re-registering a live address is an error.
func (n *Network) Register(addr Addr, h Handler) error {
	if h == nil {
		return fmt.Errorf("simnet: nil handler for %s", addr)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return transport.ErrClosed
	}
	if ep, ok := n.peers[addr]; ok && ep.alive.Load() {
		return fmt.Errorf("%w: %s", ErrDuplicate, addr)
	}
	ep := &endpoint{handler: h}
	ep.alive.Store(true)
	n.peers[addr] = ep
	return nil
}

// Kill fail-stops a peer. Subsequent calls to it block for DeadCallDelay and
// fail; it never observes further traffic. Killing an unknown or already
// dead peer is a no-op.
func (n *Network) Kill(addr Addr) {
	if ep, ok := n.lookup(addr); ok {
		ep.alive.Store(false)
	}
}

// Deregister implements transport.Deregistrar as a fail-stop.
func (n *Network) Deregister(addr Addr) { n.Kill(addr) }

// Close fail-stops the whole network: every peer stops being served, and
// further registrations, calls and streams fail with transport.ErrClosed (a
// Send is dropped).
func (n *Network) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed.Store(true)
	for _, ep := range n.peers {
		ep.alive.Store(false)
	}
	return nil
}

// Alive reports whether the peer is registered and not failed.
func (n *Network) Alive(addr Addr) bool {
	_, ok := n.lookup(addr)
	return ok
}

// Stats returns a snapshot of traffic counters.
func (n *Network) Stats() Stats {
	n.methodMu.Lock()
	by := make(map[string]uint64, len(n.byMethod))
	for k, v := range n.byMethod {
		by[k] = v
	}
	n.methodMu.Unlock()
	return Stats{
		Calls:         n.calls.Load(),
		Sends:         n.sends.Load(),
		Streams:       n.streams.Load(),
		Chunks:        n.chunks.Load(),
		Severed:       n.severed.Load(),
		Lost:          n.lost.Load(),
		Failures:      n.failures.Load(),
		CodecFailures: n.codecFailures.Load(),
		ByMethod:      by,
	}
}

// CodecErr returns the first codec rejection observed, or nil. Tests assert
// on it to prove every message type survives the wire.
func (n *Network) CodecErr() error {
	if p := n.codecErr.Load(); p != nil {
		return *p
	}
	return nil
}

// codecRoundTrip pushes v through the wire codec, returning the deep copy a
// real network hop delivers and recording the first codec rejection in
// CodecErr. A bounded message — the request of a plain call or send — must
// also fit transport.MaxFrameSize, so in-process tests exercise the TCP
// transport's boundary instead of being silently unbounded. Responses and
// stream acknowledgments are not bounded: the TCP transport chunks them back
// (kindRespChunk), so a small request answered with a whole range — a replica
// pull, a rebalance — crosses both substrates identically. A rejected message
// counts as a failure; size violations are kept out of CodecErr, which tracks
// codec registration bugs.
func (n *Network) codecRoundTrip(v any, bounded bool) (any, error) {
	b, err := transport.Encode(v)
	if err == nil && bounded && len(b) > transport.MaxFrameSize {
		n.codecFailures.Add(1)
		n.failures.Add(1)
		return nil, fmt.Errorf("%w: %T of %d bytes", transport.ErrFrameTooLarge, v, len(b))
	}
	if err == nil {
		v, err = transport.Decode(b)
	}
	if err != nil {
		n.codecFailures.Add(1)
		n.failures.Add(1)
		n.codecErr.CompareAndSwap(nil, &err)
		return nil, err
	}
	return v, nil
}

func (n *Network) countMethod(method string) {
	n.methodMu.Lock()
	n.byMethod[method]++
	n.methodMu.Unlock()
}

func (n *Network) latency() time.Duration {
	if n.cfg.MaxLatency <= 0 {
		return 0
	}
	span := n.cfg.MaxLatency - n.cfg.MinLatency
	if span <= 0 {
		return n.cfg.MinLatency
	}
	n.rngMu.Lock()
	d := n.cfg.MinLatency + time.Duration(n.rng.Int63n(int64(span)))
	n.rngMu.Unlock()
	return d
}

// sleep waits for d or until ctx is done, returning ctx.Err in the latter case.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// lookup returns the endpoint if it is alive.
func (n *Network) lookup(addr Addr) (*endpoint, bool) {
	n.mu.RLock()
	ep := n.peers[addr]
	n.mu.RUnlock()
	if ep == nil || !ep.alive.Load() {
		return nil, false
	}
	return ep, true
}

// admit refuses (and counts) a message the network does not carry at all:
// the network is closed, or the sender has fail-stopped (a failed peer sends
// nothing).
func (n *Network) admit(from Addr) error {
	if n.closed.Load() {
		n.failures.Add(1)
		return transport.ErrClosed
	}
	if from == "" || n.Alive(from) {
		return nil
	}
	n.failures.Add(1)
	return fmt.Errorf("%w: %s", ErrSenderDead, from)
}

// verdict asks Config.Fault for m's fate.
func (n *Network) verdict(m Msg) Verdict {
	if n.cfg.Fault == nil {
		return Deliver
	}
	return n.cfg.Fault(m)
}

// refuse applies the fault verdict every Call, Send and OpenStream gets before
// delivery, in the order a sender observes it, and returns the error a
// refused sender sees (nil: deliver). A severed link refuses at once; a
// message that gets past it crosses the network when travel is set (one
// sampled propagation delay); only then can it be lost.
func (n *Network) refuse(ctx context.Context, from, to Addr, method string, travel bool) error {
	v := n.verdict(Msg{From: from, To: to, Method: method, Seq: -1})
	if v == Sever {
		n.severed.Add(1)
		n.failures.Add(1)
		return fmt.Errorf("%w: %s (partitioned)", ErrUnreachable, to)
	}
	if travel {
		if err := sleep(ctx, n.latency()); err != nil {
			n.failures.Add(1)
			return err
		}
	}
	if v == Lose {
		// The destination is alive, but this caller observes exactly what a
		// fail-stop looks like.
		n.lost.Add(1)
		return n.timeOut(ctx, to, " (lost)")
	}
	return nil
}

// timeOut is what a caller sees of a destination that does not answer: it
// blocks for DeadCallDelay, then reports ErrUnreachable (why: how it was lost).
func (n *Network) timeOut(ctx context.Context, to Addr, why string) error {
	n.failures.Add(1)
	if err := sleep(ctx, n.cfg.DeadCallDelay); err != nil {
		return err
	}
	return fmt.Errorf("%w: %s%s", ErrUnreachable, to, why)
}

// deliver hands one request to the handler at to and brings its response
// back: the half of a round trip Call and a stream's Commit share. arrive
// yields the payload as the destination sees it (a streamed transfer is
// decoded from its wire bytes there). If the destination dies while
// processing, the response is lost (died says in which operation).
func (n *Network) deliver(ctx context.Context, from, to Addr, method string, arrive func() (any, error), died string) (any, error) {
	ep, ok := n.lookup(to)
	if !ok {
		return nil, n.timeOut(ctx, to, "")
	}
	payload, err := arrive()
	if err != nil {
		n.failures.Add(1)
		return nil, err
	}
	resp, err := ep.handler(from, method, payload)
	if !ep.alive.Load() {
		return nil, n.timeOut(ctx, to, died)
	}
	if err != nil {
		return nil, err
	}
	if resp, err = n.codecRoundTrip(resp, false); err != nil {
		return nil, err
	}
	if err := sleep(ctx, n.latency()); err != nil {
		return nil, err
	}
	return resp, nil
}

// Call performs a synchronous request/response from one peer to another.
// The sending peer must be alive (a failed peer sends nothing). A call to a
// dead destination blocks for DeadCallDelay (modelling a timeout) and then
// reports ErrUnreachable. If the destination dies while processing, the
// response is lost and Call reports ErrUnreachable.
func (n *Network) Call(ctx context.Context, from, to Addr, method string, payload any) (any, error) {
	n.calls.Add(1)
	n.countMethod(method)
	if err := n.admit(from); err != nil {
		return nil, err
	}
	payload, err := n.codecRoundTrip(payload, true)
	if err != nil {
		return nil, err
	}
	if err = n.refuse(ctx, from, to, method, true); err != nil {
		return nil, err
	}
	arrive := func() (any, error) { return payload, nil }
	return n.deliver(ctx, from, to, method, arrive, " (died mid-call)")
}

// CallAsync implements transport.AsyncCaller: the same exchange as Call —
// sender-aliveness, codec checks, latency sampling, fail-stop reporting —
// resolved in the background, so callers can hold many in-flight calls at
// once (including several to the same peer, which the handler then observes
// concurrently, exactly as on the multiplexed TCP transport).
func (n *Network) CallAsync(ctx context.Context, from, to Addr, method string, payload any) *transport.Pending {
	return transport.Go(func() (any, error) { return n.Call(ctx, from, to, method, payload) })
}

// OpenStream implements transport.StreamOpener: one chunked transfer whose
// reassembled payload is delivered to the destination handler atomically at
// commit time. Chunks are staged sender-side (the in-process twin of the
// receiver staging a real transport does); a chunk that Config.Fault severs
// or loses kills the transfer: the staged chunks are discarded and the
// destination handler never observes it. The payload bytes are the wire
// form, decoded at the destination; the response round-trips the codec like
// a Call's. Propagation latency is charged once, at commit, like one Call
// round trip.
func (n *Network) OpenStream(_ context.Context, from, to Addr, method string) (transport.Stream, error) {
	n.streams.Add(1)
	n.countMethod(method)
	if err := n.admit(from); err != nil {
		return nil, err
	}
	if err := n.refuse(context.Background(), from, to, method, false); err != nil {
		return nil, err
	}
	return &simStream{n: n, from: from, to: to, method: method}, nil
}

// simStream is one in-flight chunked transfer on the simulated network.
type simStream struct {
	n        *Network
	from, to Addr
	method   string
	chunks   [][]byte
	failed   error
	done     bool
}

func (s *simStream) MaxChunk() int { return s.n.cfg.ChunkBytes }

// Chunk stages one sequence-numbered chunk, asking Config.Fault for its fate:
// a severed or lost chunk kills the whole transfer.
func (s *simStream) Chunk(ctx context.Context, data []byte) error {
	if s.done {
		return transport.ErrStreamAborted
	}
	if s.failed != nil {
		return s.failed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(data) > s.MaxChunk() {
		return fmt.Errorf("simnet: stream chunk of %d bytes exceeds chunk size %d", len(data), s.MaxChunk())
	}
	seq := len(s.chunks)
	s.n.chunks.Add(1)
	switch s.n.verdict(Msg{From: s.from, To: s.to, Method: s.method, Seq: seq}) {
	case Deliver:
		// Stage a copy: the transfer must not alias caller memory, just as
		// real chunk frames do not.
		s.chunks = append(s.chunks, bytes.Clone(data))
		return nil
	case Sever:
		s.n.severed.Add(1)
		s.failed = fmt.Errorf("%w: %s (partitioned)", ErrUnreachable, s.to)
	default:
		s.n.lost.Add(1)
		s.failed = fmt.Errorf("%w: %s (chunk %d of a %s stream dropped)", ErrUnreachable, s.to, seq, s.method)
	}
	s.n.failures.Add(1)
	s.chunks = nil
	return s.failed
}

// Commit delivers the reassembled transfer to the destination handler and
// returns its typed acknowledgment. The handler runs only here: a transfer
// that failed or was aborted earlier never touches the receiver.
func (s *simStream) Commit(ctx context.Context) (any, error) {
	if s.done {
		return nil, transport.ErrStreamAborted
	}
	s.done = true
	if s.failed != nil {
		return nil, s.failed
	}
	body := bytes.Join(s.chunks, nil)
	s.chunks = nil
	if err := sleep(ctx, s.n.latency()); err != nil {
		s.n.failures.Add(1)
		return nil, err
	}
	arrive := func() (any, error) { return transport.Decode(body) }
	return s.n.deliver(ctx, s.from, s.to, s.method, arrive, " (died mid-commit)")
}

// Abort discards the staged transfer; the destination never sees it.
func (s *simStream) Abort(string) {
	s.done = true
	s.chunks = nil
}

// Send delivers a one-way message asynchronously: it returns immediately and
// the handler runs after the sampled propagation delay. Delivery failures are
// silent, as on a real network; codec rejections are silent too but recorded
// in Stats.CodecFailures and CodecErr.
func (n *Network) Send(from, to Addr, method string, payload any) {
	n.sends.Add(1)
	n.countMethod(method)
	if n.admit(from) != nil {
		return
	}
	payload, err := n.codecRoundTrip(payload, true)
	if err != nil {
		return
	}
	go func() {
		// Nobody waits on a Send, so a refusal — and the dead-call delay a
		// lost message costs this goroutine — goes unobserved.
		if n.refuse(context.Background(), from, to, method, true) != nil {
			return
		}
		ep, ok := n.lookup(to)
		if !ok {
			n.failures.Add(1)
			return
		}
		_, _ = ep.handler(from, method, payload)
	}()
}
