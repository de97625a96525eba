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
// With Config.StrictSerialization set, every payload and response is pushed
// through the wire codec (transport.Encode/Decode) instead of being handed
// over by reference. Handlers then observe exactly the deep copy a real
// network hop would deliver, so tests catch unregistered message types,
// unencodable fields and accidental sharing of mutable state long before the
// TCP transport does.
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

// Config controls network timing.
type Config struct {
	// MinLatency and MaxLatency bound the uniformly sampled one-way
	// propagation delay. Zero values mean instantaneous delivery.
	MinLatency, MaxLatency time.Duration
	// DeadCallDelay is how long a Call to a failed or unknown peer blocks
	// before reporting ErrUnreachable, modelling an RPC timeout.
	DeadCallDelay time.Duration
	// Seed initializes the latency sampler; zero means a fixed default.
	Seed int64
	// StrictSerialization routes every payload and response through the wire
	// codec, delivering a deep copy: what a real network hop produces. A
	// payload that cannot be encoded fails the Call (or silently drops the
	// Send, counted in Stats.StrictFailures and retained by StrictErr).
	StrictSerialization bool
	// ChunkBytes is the chunk size for streamed bulk transfers (OpenStream).
	// Default transport.DefaultChunkBytes.
	ChunkBytes int
	// ChunkFault, when set, is consulted for every chunk frame of every
	// streamed transfer (fault injection): returning true drops that chunk
	// on the floor, which tears the whole transfer down — the sender's
	// stream fails, the receiver discards everything staged and its handler
	// never runs. seq is the zero-based chunk sequence number within the
	// transfer.
	ChunkFault func(to Addr, method string, seq int) bool
	// SuspectFault, when set, is consulted for every Call, Send and
	// OpenStream (fault
	// injection): returning true makes the destination appear failed for
	// that one message — the caller blocks for DeadCallDelay and reports
	// ErrUnreachable (a Send is silently dropped) — while the destination
	// stays alive and keeps serving everyone else. This is deterministic
	// false-positive failure detection: aim it at ring.ping traffic toward a
	// live peer and the ring's failure detector wrongly declares that peer
	// dead while its datastore keeps serving, reproducing the dual-claim
	// ownership window that epoch fencing exists to close.
	SuspectFault func(from, to Addr, method string) bool
	// PartitionFault, when set, is consulted for every Call, Send and
	// OpenStream (fault injection): returning true severs the (from, to)
	// link for that message — the caller fails immediately with
	// ErrUnreachable (no DeadCallDelay: a partition refuses, it does not
	// time out), a Send is silently dropped, a stream fails to open. Both
	// endpoints stay alive. Unlike SuspectFault it is meant to be aimed at
	// whole peer pairs regardless of method, modelling a network partition:
	// gossip convergence tests cut the cluster in half, let the directory
	// diverge, then heal the cut and assert agreement within N rounds.
	PartitionFault func(from, to Addr) bool
	// DisconnectFault, when set, is consulted for every chunk frame of every
	// streamed transfer (fault injection): returning true drops that chunk
	// as a CONNECTION loss rather than a transfer failure. The sender's
	// stream reports ErrUnreachable for that chunk, but — unlike ChunkFault —
	// the chunks staged so far survive (the in-process twin of a real
	// receiver parking its staged state across connections) and the stream
	// is resumable: transport.CallBulk asks for the high-water mark and
	// continues from it, so only the dropped chunk is retransmitted.
	DisconnectFault func(to Addr, method string, seq int) bool
	// AuthFault, when set, is consulted for every Call, Send and OpenStream
	// (fault injection): returning true models an authentication-handshake
	// refusal on the (from, to) link — the operation fails immediately with
	// transport.ErrUnauthenticated (a Send is silently dropped). There is
	// deliberately no dead-call delay: a policy refusal answers promptly, it
	// does not time out, and callers must not mistake it for a fail-stop.
	AuthFault func(from, to Addr) bool
}

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
	Calls           uint64 // synchronous request/responses attempted
	Sends           uint64 // one-way messages attempted
	Streams         uint64 // chunked transfers opened
	Chunks          uint64 // chunk frames carried by streamed transfers
	ChunkDrops      uint64 // chunk frames dropped by fault injection
	SuspectDrops    uint64 // calls/sends dropped by SuspectFault injection
	PartitionDrops  uint64 // calls/sends/streams severed by PartitionFault injection
	DisconnectDrops uint64 // chunk frames lost to DisconnectFault connection losses
	StreamResumes   uint64 // streamed transfers resumed from their high-water mark
	AuthRejects     uint64 // calls/sends/streams refused by AuthFault injection
	Failures        uint64 // calls/sends that could not be delivered
	StrictFailures  uint64 // messages rejected by the codec in strict mode
	ByMethod        map[string]uint64
}

// Network is an in-process message network implementing transport.Transport.
// The zero value is not usable; construct with New.
type Network struct {
	cfg Config

	mu     sync.RWMutex
	peers  map[Addr]*endpoint
	closed bool

	rngMu sync.Mutex
	rng   *rand.Rand

	calls           atomic.Uint64
	sends           atomic.Uint64
	streams         atomic.Uint64
	chunks          atomic.Uint64
	chunkDrops      atomic.Uint64
	suspectDrops    atomic.Uint64
	partitionDrops  atomic.Uint64
	disconnectDrops atomic.Uint64
	streamResumes   atomic.Uint64
	authRejects     atomic.Uint64
	failures        atomic.Uint64
	strictFailures  atomic.Uint64

	strictMu  sync.Mutex
	strictErr error // first codec rejection observed in strict mode

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
	if n.closed {
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

// Close fail-stops the whole network: every peer stops being served and
// further registrations fail.
func (n *Network) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
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
		Calls:           n.calls.Load(),
		Sends:           n.sends.Load(),
		Streams:         n.streams.Load(),
		Chunks:          n.chunks.Load(),
		ChunkDrops:      n.chunkDrops.Load(),
		SuspectDrops:    n.suspectDrops.Load(),
		PartitionDrops:  n.partitionDrops.Load(),
		DisconnectDrops: n.disconnectDrops.Load(),
		StreamResumes:   n.streamResumes.Load(),
		AuthRejects:     n.authRejects.Load(),
		Failures:        n.failures.Load(),
		StrictFailures:  n.strictFailures.Load(),
		ByMethod:        by,
	}
}

// StrictErr returns the first codec rejection observed in strict mode, or
// nil. Tests assert on it to prove every message type survives the wire.
func (n *Network) StrictErr() error {
	n.strictMu.Lock()
	defer n.strictMu.Unlock()
	return n.strictErr
}

// codecRoundTrip pushes v through the wire codec in strict mode, returning the
// deep copy a real network hop delivers and recording the first codec
// rejection in StrictErr. A bounded message — the request of a plain call or
// send — must also fit transport.MaxFrameSize, so in-process tests exercise
// the TCP transport's boundary instead of being silently unbounded. Responses
// and stream acknowledgments are not bounded: the TCP transport chunks them
// back (kindRespChunk), so a small request answered with a whole range — a
// replica pull, a rebalance — crosses both substrates identically. Size
// violations are counted as failures but kept out of StrictErr, which tracks
// codec registration bugs.
func (n *Network) codecRoundTrip(v any, bounded bool) (any, error) {
	if !n.cfg.StrictSerialization {
		return v, nil
	}
	b, err := transport.Encode(v)
	if err == nil && bounded && len(b) > transport.MaxFrameSize {
		n.strictFailures.Add(1)
		return nil, fmt.Errorf("%w: %T of %d bytes", transport.ErrFrameTooLarge, v, len(b))
	}
	if err == nil {
		v, err = transport.Decode(b)
	}
	if err != nil {
		n.strictFailures.Add(1)
		n.strictMu.Lock()
		if n.strictErr == nil {
			n.strictErr = err
		}
		n.strictMu.Unlock()
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

// senderDead refuses (and counts) a message from a fail-stopped peer: a failed
// peer sends nothing.
func (n *Network) senderDead(from Addr) error {
	if from == "" || n.Alive(from) {
		return nil
	}
	n.failures.Add(1)
	return fmt.Errorf("%w: %s", ErrSenderDead, from)
}

// refuse consults the injected faults every Call, Send and OpenStream passes
// before delivery, in the order a sender observes them, and returns the error
// a refused sender sees (nil: deliver). The link refuses at once; a message
// that gets past it crosses the network when travel is set (one sampled
// propagation delay); only then can the destination be wrongly suspected.
func (n *Network) refuse(ctx context.Context, from, to Addr, method string, travel bool) error {
	if f := n.cfg.AuthFault; f != nil && f(from, to) {
		// Handshake refusal: never a fail-stop signal.
		n.authRejects.Add(1)
		n.failures.Add(1)
		return fmt.Errorf("%w: %s", transport.ErrUnauthenticated, to)
	}
	if f := n.cfg.PartitionFault; f != nil && f(from, to) {
		// Severed link: both endpoints alive.
		n.partitionDrops.Add(1)
		n.failures.Add(1)
		return fmt.Errorf("%w: %s (partitioned)", ErrUnreachable, to)
	}
	if travel {
		if err := sleep(ctx, n.latency()); err != nil {
			n.failures.Add(1)
			return err
		}
	}
	if f := n.cfg.SuspectFault; f != nil && f(from, to, method) {
		// Injected false positive: the destination is alive, but this caller
		// observes exactly what a fail-stop looks like.
		n.suspectDrops.Add(1)
		return n.timeOut(ctx, to, " (suspect fault)")
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
		n.failures.Add(1)
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
	if err := n.senderDead(from); err != nil {
		return nil, err
	}
	payload, perr := n.codecRoundTrip(payload, true)
	if perr != nil {
		n.failures.Add(1)
		return nil, perr
	}
	if err := n.refuse(ctx, from, to, method, true); err != nil {
		return nil, err
	}
	arrive := func() (any, error) { return payload, nil }
	return n.deliver(ctx, from, to, method, arrive, " (died mid-call)")
}

// CallAsync implements transport.AsyncCaller: the same exchange as Call —
// sender-aliveness, strict-mode codec checks, latency sampling, fail-stop
// reporting — resolved in the background, so callers can hold many in-flight
// calls at once (including several to the same peer, which the handler then
// observes concurrently, exactly as on the multiplexed TCP transport).
func (n *Network) CallAsync(ctx context.Context, from, to Addr, method string, payload any) *transport.Pending {
	p := transport.NewPending()
	go func() { p.Resolve(n.Call(ctx, from, to, method, payload)) }()
	return p
}

// OpenStream implements transport.StreamOpener: one chunked transfer whose
// reassembled payload is delivered to the destination handler atomically at
// commit time. Chunks are staged sender-side (the in-process twin of the
// receiver staging a real transport does); per-chunk fault injection via
// Config.ChunkFault models a transfer dying mid-stream: the staged chunks
// are discarded and the destination handler never observes the transfer.
// The payload bytes are the wire form, so the transfer round-trips the codec
// even without StrictSerialization — exactly what crossing a process
// boundary produces; strict mode additionally round-trips the response.
// Propagation latency is charged once, at commit, like one Call round trip.
func (n *Network) OpenStream(_ context.Context, from, to Addr, method string) (transport.Stream, error) {
	n.streams.Add(1)
	n.countMethod(method)
	n.mu.RLock()
	closed := n.closed
	n.mu.RUnlock()
	if closed {
		return nil, transport.ErrClosed
	}
	if err := n.senderDead(from); err != nil {
		return nil, err
	}
	if err := n.refuse(context.Background(), from, to, method, false); err != nil {
		return nil, err
	}
	return &simStream{n: n, from: from, to: to, method: method}, nil
}

// simStream is one in-flight chunked transfer on the simulated network.
type simStream struct {
	n      *Network
	from   Addr
	to     Addr
	method string
	chunks [][]byte
	failed error
	lost   bool // failure was a DisconnectFault connection loss: resumable
	done   bool
}

func (s *simStream) MaxChunk() int { return s.n.cfg.ChunkBytes }

// Chunk stages one sequence-numbered chunk, consulting the fault hook: a
// dropped chunk kills the whole transfer, exactly as a connection loss does
// on a real stream transport.
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
	if f := s.n.cfg.DisconnectFault; f != nil && f(s.to, s.method, seq) {
		// Connection loss, not transfer failure: the chunks staged so far
		// survive and the transfer can Resume from its high-water mark.
		s.n.disconnectDrops.Add(1)
		s.n.failures.Add(1)
		s.lost = true
		s.failed = fmt.Errorf("%w: %s (connection lost at chunk %d of a %s stream)", ErrUnreachable, s.to, seq, s.method)
		return s.failed
	}
	if f := s.n.cfg.ChunkFault; f != nil && f(s.to, s.method, seq) {
		s.n.chunkDrops.Add(1)
		s.n.failures.Add(1)
		s.chunks = nil
		s.failed = fmt.Errorf("%w: %s (chunk %d of a %s stream dropped)", ErrUnreachable, s.to, seq, s.method)
		return s.failed
	}
	// Stage a copy: the transfer must not alias caller memory, just as real
	// chunk frames do not.
	c := make([]byte, len(data))
	copy(c, data)
	s.chunks = append(s.chunks, c)
	return nil
}

// Resume implements transport.Resumer: after a DisconnectFault connection
// loss the sender reconnects and asks for the receiver's high-water chunk
// mark. Because simnet stages chunks sender-side, the mark is simply the
// count staged so far — the dropped chunk is the only one retransmitted.
func (s *simStream) Resume(ctx context.Context) (int, error) {
	if s.done || !s.lost {
		// Only a connection loss is resumable; a transfer torn down by
		// ChunkFault (the receiver discarded its staging) is not.
		return 0, transport.ErrStreamAborted
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if _, ok := s.n.lookup(s.to); !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnreachable, s.to)
	}
	s.failed, s.lost = nil, false
	s.n.streamResumes.Add(1)
	return len(s.chunks), nil
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
// silent, as on a real network; strict-mode codec rejections are silent too
// but recorded in Stats.StrictFailures and StrictErr.
func (n *Network) Send(from, to Addr, method string, payload any) {
	n.sends.Add(1)
	n.countMethod(method)
	if n.senderDead(from) != nil {
		return
	}
	payload, perr := n.codecRoundTrip(payload, true)
	if perr != nil {
		n.failures.Add(1)
		return
	}
	go func() {
		// Nobody waits on a Send, so a refusal — and the dead-call delay a
		// suspected destination costs this goroutine — goes unobserved.
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
