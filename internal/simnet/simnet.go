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
// long before the TCP transport does. Each call crosses as one message, its
// request bounded by transport.MaxFrameSize; chunking an oversized body is
// the TCP transport's business (a bulk call here degrades to a plain Call).
// One hook, Config.Fault, decides the fate of every message.
//
// All delays scale with Config values, so experiments can run the paper's
// second-scale parameters at millisecond scale (see bench.Params).
package simnet

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
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
	// Fault, when set, decides the fate of every message — each Call and
	// Send — before it is delivered. Both endpoints stay alive whatever it
	// returns. Sever models a network partition, Lose a message that
	// vanishes in flight: aimed at ring.ping traffic toward a live peer, Lose
	// makes the ring's failure detector wrongly declare that peer dead while
	// its datastore keeps serving — the dual-claim window epoch fencing
	// exists to close.
	Fault func(Msg) Verdict
}

// Msg is one message as Config.Fault sees it.
type Msg struct {
	From, To transport.Addr
	Method   string
}

// Verdict is the fate Config.Fault assigns to one message.
type Verdict int

const (
	// Deliver lets the message through.
	Deliver Verdict = iota
	// Sever refuses the message at once with ErrUnreachable ("partitioned"):
	// a partition refuses, it does not time out. A Send is dropped.
	Sever
	// Lose drops the message in flight: the caller blocks for DeadCallDelay
	// and reports ErrUnreachable, exactly what a fail-stopped destination
	// looks like; the destination's handler never runs. A Send is dropped.
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
	Severed       uint64 // messages refused by a Sever verdict
	Lost          uint64 // messages dropped by a Lose verdict
	Failures      uint64 // calls/sends that could not be delivered
	CodecFailures uint64 // messages the codec rejected or the frame limit refused
	ByMethod      map[string]uint64
}

// Network is an in-process message network implementing transport.Transport.
// The zero value is not usable; construct with New.
type Network struct {
	cfg Config

	mu     sync.RWMutex
	peers  map[transport.Addr]*endpoint
	closed atomic.Bool

	rngMu sync.Mutex
	rng   *rand.Rand

	calls         atomic.Uint64
	sends         atomic.Uint64
	severed       atomic.Uint64
	lost          atomic.Uint64
	failures      atomic.Uint64
	codecFailures atomic.Uint64

	codecErr atomic.Pointer[error] // first codec rejection observed

	methodMu sync.Mutex
	byMethod map[string]uint64
}

// Network satisfies the substrate contract used by every protocol layer and
// nothing more: transport's asynchronous and bulk call helpers serve it
// through their fallbacks, a goroutine around Call and a plain Call.
var (
	_ transport.Transport   = (*Network)(nil)
	_ transport.Deregistrar = (*Network)(nil)
)

type endpoint struct {
	handler transport.Handler
	alive   atomic.Bool
}

// New constructs an empty network.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Network{
		cfg:      cfg,
		peers:    make(map[transport.Addr]*endpoint),
		rng:      rand.New(rand.NewSource(seed)),
		byMethod: make(map[string]uint64),
	}
}

// Register attaches a peer to the network. Re-registering an address that was
// previously killed revives it with the new handler (a free peer re-entering
// service); re-registering a live address is an error.
func (n *Network) Register(addr transport.Addr, h transport.Handler) error {
	if h == nil {
		return fmt.Errorf("simnet: nil handler for %s", addr)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return transport.ErrClosed
	}
	if ep, ok := n.peers[addr]; ok && ep.alive.Load() {
		return fmt.Errorf("%w: %s", transport.ErrDuplicate, addr)
	}
	ep := &endpoint{handler: h}
	ep.alive.Store(true)
	n.peers[addr] = ep
	return nil
}

// Kill fail-stops a peer. Subsequent calls to it block for DeadCallDelay and
// fail; it never observes further traffic. Killing an unknown or already
// dead peer is a no-op.
func (n *Network) Kill(addr transport.Addr) {
	if ep, ok := n.lookup(addr); ok {
		ep.alive.Store(false)
	}
}

// Deregister implements transport.Deregistrar as a fail-stop.
func (n *Network) Deregister(addr transport.Addr) { n.Kill(addr) }

// Close fail-stops the whole network: every peer stops being served, and
// further registrations and calls fail with transport.ErrClosed (a
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
func (n *Network) Alive(addr transport.Addr) bool {
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
// transport's boundary instead of being silently unbounded. Responses are
// not bounded: the TCP transport chunks them back (kindRespChunk), so a small
// request answered with a whole range — a replica pull, a rebalance — crosses
// both substrates identically. A rejected message counts as a failure; size
// violations are kept out of CodecErr, which tracks codec registration bugs.
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
func (n *Network) lookup(addr transport.Addr) (*endpoint, bool) {
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
func (n *Network) admit(from transport.Addr) error {
	if n.closed.Load() {
		n.failures.Add(1)
		return transport.ErrClosed
	}
	if from == "" || n.Alive(from) {
		return nil
	}
	n.failures.Add(1)
	return fmt.Errorf("%w: %s", transport.ErrSenderDead, from)
}

// verdict asks Config.Fault for m's fate.
func (n *Network) verdict(m Msg) Verdict {
	if n.cfg.Fault == nil {
		return Deliver
	}
	return n.cfg.Fault(m)
}

// refuse applies the fault verdict every Call and Send gets before delivery,
// in the order a sender observes it, and returns the error a refused sender
// sees (nil: deliver). A severed link refuses at once; a message that gets
// past it crosses the network (one sampled propagation delay); only then can
// it be lost.
func (n *Network) refuse(ctx context.Context, from, to transport.Addr, method string) error {
	v := n.verdict(Msg{From: from, To: to, Method: method})
	if v == Sever {
		n.severed.Add(1)
		n.failures.Add(1)
		return fmt.Errorf("%w: %s (partitioned)", transport.ErrUnreachable, to)
	}
	if err := sleep(ctx, n.latency()); err != nil {
		n.failures.Add(1)
		return err
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
func (n *Network) timeOut(ctx context.Context, to transport.Addr, why string) error {
	n.failures.Add(1)
	if err := sleep(ctx, n.cfg.DeadCallDelay); err != nil {
		return err
	}
	return fmt.Errorf("%w: %s%s", transport.ErrUnreachable, to, why)
}

// Call performs a synchronous request/response from one peer to another.
// The sending peer must be alive (a failed peer sends nothing). A call to a
// dead destination blocks for DeadCallDelay (modelling a timeout) and then
// reports ErrUnreachable. If the destination dies while processing, the
// response is lost and Call reports ErrUnreachable.
func (n *Network) Call(ctx context.Context, from, to transport.Addr, method string, payload any) (any, error) {
	n.calls.Add(1)
	n.countMethod(method)
	if err := n.admit(from); err != nil {
		return nil, err
	}
	payload, err := n.codecRoundTrip(payload, true)
	if err != nil {
		return nil, err
	}
	if err = n.refuse(ctx, from, to, method); err != nil {
		return nil, err
	}
	ep, ok := n.lookup(to)
	if !ok {
		return nil, n.timeOut(ctx, to, "")
	}
	resp, err := ep.handler(from, method, payload)
	if !ep.alive.Load() {
		return nil, n.timeOut(ctx, to, " (died mid-call)")
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

// Send delivers a one-way message asynchronously: it returns immediately and
// the handler runs after the sampled propagation delay. Delivery failures are
// silent, as on a real network; codec rejections are silent too but recorded
// in Stats.CodecFailures and CodecErr.
func (n *Network) Send(from, to transport.Addr, method string, payload any) {
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
		if n.refuse(context.Background(), from, to, method) != nil {
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
