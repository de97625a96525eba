// Package tcp implements the transport.Transport contract over real TCP
// connections, so a PEPPER peer can run as its own OS process and clusters
// can span machines — the deployment model of the paper's evaluation, which
// ran 30 peer processes on a LAN cluster (Section 6.1).
//
// Wire format (multiplexed): every message is one length-prefixed frame
// holding a binary header encoded by the transport codec (wire.go: readMsg
// and appendFrame are the only code that knows the layout). Call frames carry
// a connection-scoped request ID; the matching response frame echoes it, so a
// single connection carries many concurrent in-flight calls and responses
// return in completion order, not issue order. Protocol chatter (ring stabilization, replica pushes) is
// therefore never serialized behind a slow state transfer sharing the
// connection — the availability protocols keep their maintenance traffic
// flowing under load.
//
// No connection has a writer goroutine, and a call has no goroutine of its
// own: a request is written by its caller and a reply by its handler
// (writer.go). Whoever finds the connection idle writes its own frame and
// then flushes, coalesced into writes of up to 64 KiB, the frames that queued
// behind it — no added latency, and syscalls still amortize under pipelined
// load. A caller's writes end by its context's deadline; what is left then
// goes to a goroutine, the only one a writer starts. Call and CallAsync send
// on the caller's goroutine; CallAsync's Pending waits for the response when
// asked.
//
// Failure semantics match simnet.Kill: a call to a dead, unknown or
// unresponsive peer fails with transport.ErrUnreachable after the per-call
// deadline, which is how a live peer observes a fail-stopped one
// (Algorithm 14's "no response"). Deregister closes a peer's listener and
// its accepted connections; every call still in flight to that peer resolves
// promptly with ErrUnreachable instead of dangling until its deadline.
// Pooled connections left idle longer than Config.IdlePingAfter are
// health-checked with a ping frame before carrying a new call, so a dead
// idle connection costs one bounded ping instead of a caller's deadline.
package tcp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/transport"
)

// Config controls the TCP transport.
type Config struct {
	// DialTimeout bounds establishing a connection. Default 2s.
	DialTimeout time.Duration
	// CallTimeout is the per-call deadline applied when the caller's context
	// carries none — the "known bounded delay" of Section 2.1. Default 5s.
	CallTimeout time.Duration
	// ConnsPerPeer bounds multiplexed connections per destination. A call
	// takes a connection with nothing in flight; another is dialed only
	// while every pooled one is busy, and past the bound calls share them
	// round-robin. Default 2.
	ConnsPerPeer int
	// IdlePingAfter health-checks a pooled connection with a ping frame
	// before reuse when nothing has been read from it for this long.
	// Default 30s.
	IdlePingAfter time.Duration
	// PingTimeout bounds one health-check exchange. Default 1s.
	PingTimeout time.Duration
	// ChunkBytes is the chunk size for streamed bulk transfers (OpenStream):
	// large enough to amortize framing, small enough that RPC frames
	// interleaving on the same connection never wait long behind one chunk.
	// Default transport.DefaultChunkBytes; clamped well under MaxFrameSize.
	ChunkBytes int
	// MaxStreamBytes caps the bytes a receiver stages for one in-flight
	// transfer before rejecting it (protection against runaway senders).
	// Default 512 MiB. The cap binds RAM staging only: a disk-spilling
	// Stager lifts it on both directions at once.
	MaxStreamBytes int
	// Stager creates the staging area used for each inbound chunked
	// transfer AND each chunked response on the dial side, so both
	// directions of the staging cap always agree. Default: in-memory
	// staging capped at MaxStreamBytes (transport.NewMemStager); a durable
	// storage backend supplies a disk-spilling factory instead.
	Stager transport.StagerFactory
	// ClusterKey is the shared cluster secret. When set, every connection —
	// inbound and outbound — runs a mutual challenge–response handshake
	// before carrying a single frame: both ends prove possession of the
	// secret (HMAC over a nonce transcript) and of their ed25519 identity
	// key (signature over the same transcript). A peer that fails either
	// proof is rejected with transport.ErrUnauthenticated. Empty disables
	// authentication entirely (the pre-auth wire format, frame for frame).
	ClusterKey []byte
	// Identity is this process's ed25519 keypair, presented during the
	// handshake. Only consulted when ClusterKey is set; generated
	// ephemerally by New when left nil.
	Identity *auth.Identity
	// RedialBackoff is the initial delay before re-dialing a destination
	// whose last dial failed; it doubles per consecutive failure (with
	// jitter) up to RedialBackoffMax, and resets on success. While the
	// backoff window is open, calls to the destination fail fast instead of
	// hot-looping dials under churn. Defaults 100ms / 2s.
	RedialBackoff    time.Duration
	RedialBackoffMax time.Duration
	// ChaosChunkDrop, when n > 0, injects exactly one connection loss per
	// process: the first outbound stream to reach chunk sequence n has its
	// carrying connection killed just before that chunk is queued, so the
	// transfer fails as ErrUnreachable and its protocol must ask again.
	// WireStats.ChaosDrops reports that it fired. Fault injection for tests
	// and smoke scripts only.
	ChaosChunkDrop int
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 5 * time.Second
	}
	if c.ConnsPerPeer <= 0 {
		c.ConnsPerPeer = 2
	}
	if c.IdlePingAfter <= 0 {
		c.IdlePingAfter = 30 * time.Second
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = time.Second
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = transport.DefaultChunkBytes
	}
	if max := transport.MaxFrameSize - (64 << 10); c.ChunkBytes > max {
		c.ChunkBytes = max // leave headroom for the frame header
	}
	if c.MaxStreamBytes <= 0 {
		c.MaxStreamBytes = 512 << 20
	}
	if c.Stager == nil {
		c.Stager = transport.NewMemStager
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = transport.DefaultRedialBackoff
	}
	if c.RedialBackoffMax <= 0 {
		c.RedialBackoffMax = transport.DefaultRedialBackoffMax
	}
	return c
}

// Transport is a TCP implementation of transport.Transport with stream
// multiplexing: one pooled connection carries many concurrent calls.
type Transport struct {
	cfg Config

	mu        sync.Mutex
	listeners map[transport.Addr]*listener
	peers     map[transport.Addr]*peerConns
	closed    bool
	wg        sync.WaitGroup

	handshakeRejects atomic.Uint64
	chaosDrops       atomic.Uint64 // 1 once ChaosChunkDrop has fired
	openConns        atomic.Int64  // live dialed plus accepted connections
}

// Transport must satisfy the full substrate contract, including native
// asynchronous pipelining and chunked streaming.
var (
	_ transport.Transport         = (*Transport)(nil)
	_ transport.Deregistrar       = (*Transport)(nil)
	_ transport.AsyncCaller       = (*Transport)(nil)
	_ transport.StreamOpener      = (*Transport)(nil)
	_ transport.WireStatsProvider = (*Transport)(nil)
)

// New constructs a TCP transport.
func New(cfg Config) *Transport {
	cfg = cfg.withDefaults()
	if len(cfg.ClusterKey) > 0 && cfg.Identity == nil {
		id, err := auth.NewIdentity()
		if err != nil {
			// crypto/rand failure is unrecoverable; an authenticated
			// transport without an identity cannot complete any handshake.
			panic(fmt.Sprintf("tcp: generating ephemeral identity: %v", err))
		}
		cfg.Identity = id
	}
	return &Transport{
		cfg:       cfg,
		listeners: make(map[transport.Addr]*listener),
		peers:     make(map[transport.Addr]*peerConns),
	}
}

// newStager creates the staging area for one chunked transfer, in either
// direction.
func (t *Transport) newStager() transport.ChunkStager {
	return t.cfg.Stager(int64(t.cfg.MaxStreamBytes))
}

// track runs f on a goroutine that Close waits for. It reports false, having
// started nothing, once the transport is closed.
func (t *Transport) track(f func()) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		f()
	}()
	return true
}

// WireStats implements transport.WireStatsProvider.
func (t *Transport) WireStats() transport.WireStats {
	return transport.WireStats{
		AuthEnabled:      len(t.cfg.ClusterKey) > 0,
		HandshakeRejects: t.handshakeRejects.Load(),
		ChaosDrops:       t.chaosDrops.Load(),
		OpenConns:        uint64(t.openConns.Load()),
	}
}

// Register listens on addr (a host:port) and serves incoming requests with
// h. The endpoint is keyed by addr exactly as given — that is the peer's
// identity, and the address Deregister must be called with — even when the
// OS resolves it differently (e.g. a hostname). Use Listen to bind an
// ephemeral port.
func (t *Transport) Register(addr transport.Addr, h transport.Handler) error {
	_, err := t.listen(addr, h, false)
	return err
}

// Listen is Register for ephemeral ports: it binds addr (e.g.
// "127.0.0.1:0") and returns the actual bound address, which is the
// endpoint's key. The bound address is the peer's identity: hand it to
// other peers as this peer's Addr.
func (t *Transport) Listen(addr transport.Addr, h transport.Handler) (transport.Addr, error) {
	return t.listen(addr, h, true)
}

// listen binds addr and serves h. The endpoint is keyed by the resolved
// bound address when keyByBound is set, and by addr as given otherwise.
func (t *Transport) listen(addr transport.Addr, h transport.Handler, keyByBound bool) (transport.Addr, error) {
	if h == nil {
		return "", fmt.Errorf("tcp: nil handler for %s", addr)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return "", transport.ErrClosed
	}
	if _, ok := t.listeners[addr]; ok {
		t.mu.Unlock()
		return "", fmt.Errorf("%w: %s", transport.ErrDuplicate, addr)
	}
	t.mu.Unlock()

	ln, err := net.Listen("tcp", string(addr))
	if err != nil {
		return "", fmt.Errorf("tcp: listen %s: %w", addr, err)
	}
	key := addr
	if keyByBound {
		key = transport.Addr(ln.Addr().String())
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		return "", transport.ErrClosed
	}
	if _, ok := t.listeners[key]; ok {
		t.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("%w: %s", transport.ErrDuplicate, key)
	}
	l := &listener{ln: ln, h: h, conns: make(map[net.Conn]struct{})}
	t.listeners[key] = l
	t.mu.Unlock()

	if !t.track(func() { t.acceptLoop(l) }) {
		l.kill() // Close won the race; it has killed l too, which is harmless
		return "", transport.ErrClosed
	}
	return key, nil
}

// Deregister implements transport.Deregistrar: stop serving addr. Its
// accepted connections close, so every caller's in-flight exchange to it
// resolves promptly with ErrUnreachable — the same fail-stop signature
// simnet.Kill produces.
func (t *Transport) Deregister(addr transport.Addr) {
	t.mu.Lock()
	l := t.listeners[addr]
	delete(t.listeners, addr)
	t.mu.Unlock()
	if l != nil {
		l.kill()
	}
}

// Close implements transport.Transport: stop all listeners, fail every
// multiplexed connection, and wait for serving goroutines to drain.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	ls, ps := t.listeners, t.peers // ours alone once replaced
	t.listeners = make(map[transport.Addr]*listener)
	t.peers = make(map[transport.Addr]*peerConns)
	t.mu.Unlock()

	for _, l := range ls {
		l.kill()
	}
	for _, pc := range ps {
		pc.mu.Lock()
		conns := append([]*muxConn(nil), pc.conns...)
		pc.conns = nil
		pc.mu.Unlock()
		for _, mc := range conns {
			mc.fail(transport.ErrClosed)
		}
	}
	t.wg.Wait()
	return nil
}

// RemoteError is a handler error that crossed the wire. The concrete error
// type cannot survive serialization, so callers get the message text;
// transport-level failures keep their sentinel identity (ErrUnreachable).
// Sentinels registered with transport.RegisterWireError are recovered from
// the text, so errors.Is(err, sentinel) works across the wire for typed
// protocol errors like the datastore's stale-epoch rejection.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// Is matches registered wire sentinels by their text, giving remote handler
// errors the same errors.Is identity they have on an in-process transport.
func (e *RemoteError) Is(target error) bool {
	return transport.MatchWireError(e.Msg, target)
}

// streamFailError is a stream-protocol failure the receiver reported (chunk
// out of sequence, staging refused, commit count mismatch). It carries the
// ErrStreamAborted identity, and — like RemoteError — recovers registered
// wire sentinels from the reason text, so a receiver's staging-cap refusal
// stays errors.Is(err, transport.ErrStageOverflow) at the sender.
type streamFailError struct{ msg string }

func (e *streamFailError) Error() string {
	return fmt.Sprintf("%v: %s", transport.ErrStreamAborted, e.msg)
}

func (e *streamFailError) Is(target error) bool {
	return target == transport.ErrStreamAborted || transport.MatchWireError(e.msg, target)
}

// stageError is a DIAL-SIDE staging failure: this process could not stage a
// chunked response (in-memory cap exceeded, spill file unavailable). The
// connection and the peer are healthy — only this call fails — so waiters
// must surface the underlying typed error instead of dressing it as
// ErrUnreachable and tripping fail-stop suspicion on a live peer.
type stageError struct{ err error }

func (e *stageError) Error() string { return e.err.Error() }
func (e *stageError) Unwrap() error { return e.err }

// unreachable wraps a transport-level failure as ErrUnreachable, preserving
// the caller-visible fail-stop semantics of the simulated network.
// Authentication refusals keep their ErrUnauthenticated identity — the peer
// is alive, it just refuses us — so callers never mistake a key mismatch for
// a fail-stopped peer.
func unreachable(to transport.Addr, err error) error {
	if errors.Is(err, transport.ErrClosed) || errors.Is(err, transport.ErrUnauthenticated) {
		return err
	}
	return fmt.Errorf("%w: %s (%v)", transport.ErrUnreachable, to, err)
}
