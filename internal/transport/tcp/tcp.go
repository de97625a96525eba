// Package tcp implements the transport.Transport contract over real TCP
// connections, so a PEPPER peer can run as its own OS process and clusters
// can span machines — the deployment model of the paper's evaluation, which
// ran 30 peer processes on a LAN cluster (Section 6.1).
//
// Wire format (multiplexed): every message is one length-prefixed frame
// (transport.WriteFrame) holding a gob-encoded header. Call frames carry a
// connection-scoped request ID; the matching response frame echoes it, so a
// single connection carries many concurrent in-flight calls and responses
// return in completion order, not issue order. Protocol chatter (ring
// stabilization, replica pushes) is therefore never serialized behind a slow
// state transfer sharing the connection — the availability protocols keep
// their maintenance traffic flowing under load.
//
// Outbound frames pass through a write-side batcher: queued frames are
// coalesced into one buffered write and flushed when the queue drains, when
// the buffered bytes reach Config.BatchBytes, or at the latest after
// Config.BatchDelay (Nagle with a knob; the default delay of zero adds no
// latency and still amortizes syscalls under pipelined load).
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
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
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
	// ConnsPerPeer bounds multiplexed connections per destination; calls are
	// spread round-robin across them. Default 2.
	ConnsPerPeer int
	// BatchBytes flushes the write batcher once this many bytes are
	// buffered. Default 64 KiB.
	BatchBytes int
	// BatchDelay is the longest the batcher waits for more frames before
	// flushing a non-empty buffer. Zero (the default) flushes as soon as the
	// queue drains, adding no latency.
	BatchDelay time.Duration
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
	// HandshakeTimeout bounds the whole connection handshake. Default 3s.
	HandshakeTimeout time.Duration
	// RedialBackoff is the initial delay before re-dialing a destination
	// whose last dial failed; it doubles per consecutive failure (with
	// jitter) up to RedialBackoffMax, and resets on success. While the
	// backoff window is open, calls to the destination fail fast instead of
	// hot-looping dials under churn. Defaults 100ms / 2s.
	RedialBackoff    time.Duration
	RedialBackoffMax time.Duration
	// ChaosChunkDrop, when n > 0, injects exactly one connection loss per
	// process: the first outbound stream to reach chunk sequence n has its
	// carrying connection killed just before that chunk is queued, forcing
	// a real resume over the real wire. Fault injection for tests and smoke
	// scripts only.
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
	if c.BatchBytes <= 0 {
		c.BatchBytes = 64 << 10
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
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 3 * time.Second
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 100 * time.Millisecond
	}
	if c.RedialBackoffMax <= 0 {
		c.RedialBackoffMax = 2 * time.Second
	}
	return c
}

// frame kinds.
const (
	kindCall = iota
	kindSend
	kindResp
	kindPing
	kindPong
	// Streamed bulk transfers (transport.Stream): a logical transfer is a
	// run of kindChunk frames closed by kindCommit (or torn down by
	// kindAbort); the terminal acknowledgment is a kindResp, whose payload
	// may itself travel as kindRespChunk frames when it exceeds the chunk
	// size. Stream frames share the connection, the request-ID space and the
	// batched writer with ordinary calls, so RPC chatter interleaves with a
	// long transfer instead of queueing behind it.
	kindChunk
	kindCommit
	kindAbort
	kindRespChunk
	// Stream resume: kindStreamResume asks the receiver for the high-water
	// chunk mark of a parked transfer (by stream ID); kindResumeMark is its
	// dedicated reply, so the chunked-response join logic keyed on kindResp
	// can never misread a mark. New kinds are appended here — the iota
	// values are the wire contract.
	kindStreamResume
	kindResumeMark
	// Authentication handshake frames, exchanged raw on a fresh connection
	// before the mux loops start: hello (pubkey + nonce), proof (transcript
	// MAC + signature), accept, reject.
	kindHsHello
	kindHsProof
	kindHsOK
	kindHsReject
)

// wireMsg is the header of every frame. Payload holds a codec envelope (or,
// for chunk frames, a raw slice of one). ID correlates a kindResp (or
// kindPong) with the kindCall/kindCommit (kindPing) that asked for it; IDs
// are scoped to one connection and direction.
type wireMsg struct {
	Kind    int
	ID      uint64
	Seq     int // chunk sequence number; on kindCommit/terminal kindResp: total chunk count; on kindResumeMark: the high-water mark
	From    string
	Method  string
	Payload []byte
	Err     string // kindResp only: non-empty when the handler or stream failed
	Fail    bool   // kindResp only: Err is a stream-protocol failure, not a handler error
	SID     string // stream frames (chunk, commit, abort, stream-resume): the transfer's resumable stream ID; required
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

	// Resumable inbound transfers, keyed by (sender, stream ID). Entries
	// outlive the connection that carried their chunks: a sender that loses
	// its connection mid-transfer re-dials, asks for the high-water mark,
	// and continues — the staged chunks never cross the wire twice.
	rsMu     sync.Mutex
	rstreams map[string]*rstream

	handshakeRejects atomic.Uint64
	streamResumes    atomic.Uint64
	chaosFired       atomic.Bool
	sidSeq           atomic.Uint64
	sidBase          string
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

type listener struct {
	ln net.Listener
	h  transport.Handler

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	dead  bool
}

// track records an accepted connection so a Deregister can fail-stop it;
// it reports false when the listener is already dead.
func (l *listener) track(conn net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return false
	}
	if l.conns == nil {
		l.conns = make(map[net.Conn]struct{})
	}
	l.conns[conn] = struct{}{}
	return true
}

func (l *listener) untrack(conn net.Conn) {
	l.mu.Lock()
	delete(l.conns, conn)
	l.mu.Unlock()
}

// kill closes the listener and every accepted connection: a fail-stop. The
// handler stops being invoked for new requests; in-flight responses are
// lost, exactly as when a simnet peer is killed mid-call.
func (l *listener) kill() {
	l.mu.Lock()
	l.dead = true
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.conns = nil
	l.mu.Unlock()
	l.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

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
	var base [6]byte
	_, _ = crand.Read(base[:])
	return &Transport{
		cfg:       cfg,
		listeners: make(map[transport.Addr]*listener),
		peers:     make(map[transport.Addr]*peerConns),
		rstreams:  make(map[string]*rstream),
		sidBase:   hex.EncodeToString(base[:]),
	}
}

// WireStats implements transport.WireStatsProvider.
func (t *Transport) WireStats() transport.WireStats {
	return transport.WireStats{
		AuthEnabled:      len(t.cfg.ClusterKey) > 0,
		HandshakeRejects: t.handshakeRejects.Load(),
		StreamResumes:    t.streamResumes.Load(),
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
	l := &listener{ln: ln, h: h}
	t.listeners[key] = l
	t.wg.Add(1)
	t.mu.Unlock()

	go t.acceptLoop(l)
	return key, nil
}

func (t *Transport) acceptLoop(l *listener) {
	defer t.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed (Deregister or Close)
		}
		t.wg.Add(1)
		go t.serveConn(conn, l)
	}
}

// hsPayload is the body of a handshake frame (gob-encoded inside
// wireMsg.Payload): the hello carries PubKey+Nonce, the proofs carry
// MAC+Sig over the role-labelled transcript (the server's proof carries all
// four).
type hsPayload struct {
	PubKey []byte
	Nonce  []byte
	MAC    []byte
	Sig    []byte
}

// writeHs writes one handshake frame directly (the mux loops have not
// started yet, so the connection is exclusively ours).
func writeHs(conn net.Conn, m wireMsg) error {
	body, err := encodeMsg(m)
	if err != nil {
		return err
	}
	return transport.WriteFrame(conn, body)
}

// readHs reads one handshake frame.
func readHs(conn net.Conn) (wireMsg, error) {
	raw, err := transport.ReadFrame(conn)
	if err != nil {
		return wireMsg{}, err
	}
	var m wireMsg
	err = decodeMsg(raw, &m)
	return m, err
}

// hsResult is what the server side of the handshake yields: the
// authenticated remote public key (nil when authentication is disabled) and,
// in the disabled case, the first ordinary frame that was read while
// checking for a hello — the serve loop processes it before reading more.
type hsResult struct {
	remotePub []byte
	deferred  []byte
}

// serverHandshake authenticates one accepted connection. With a cluster key
// configured, the dialer must open with a hello and prove possession of both
// the cluster secret and its identity key before a single mux frame is
// exchanged; anything else is rejected with a kindHsReject and counted.
// Without a cluster key the first frame is inspected: a hello from an
// auth-expecting dialer is rejected loudly (so a misconfigured cluster fails
// with a typed error, not a hang) and any other frame is handed back for
// normal serving.
func (t *Transport) serverHandshake(conn net.Conn) (hsResult, error) {
	reject := func(reason string) (hsResult, error) {
		t.handshakeRejects.Add(1)
		_ = writeHs(conn, wireMsg{Kind: kindHsReject, Err: reason})
		return hsResult{}, fmt.Errorf("%w: %s", transport.ErrUnauthenticated, reason)
	}
	if len(t.cfg.ClusterKey) == 0 {
		raw, err := transport.ReadFrame(conn)
		if err != nil {
			return hsResult{}, err
		}
		var m wireMsg
		if err := decodeMsg(raw, &m); err != nil {
			return hsResult{}, err
		}
		if m.Kind == kindHsHello {
			return reject("tcp: peer requires authentication but this process has no cluster key")
		}
		return hsResult{deferred: raw}, nil
	}
	_ = conn.SetDeadline(time.Now().Add(t.cfg.HandshakeTimeout))
	defer conn.SetDeadline(time.Time{})
	m, err := readHs(conn)
	if err != nil {
		return hsResult{}, err
	}
	if m.Kind != kindHsHello {
		return reject("tcp: connection is not authenticated (no handshake hello)")
	}
	var hello hsPayload
	if err := gob.NewDecoder(bytes.NewReader(m.Payload)).Decode(&hello); err != nil {
		return reject("tcp: malformed handshake hello")
	}
	sNonce, err := auth.NewNonce()
	if err != nil {
		return hsResult{}, err
	}
	tr := auth.HandshakeTranscript(hello.Nonce, sNonce, hello.PubKey, t.cfg.Identity.Public())
	srvProof := hsPayload{
		PubKey: t.cfg.Identity.Public(),
		Nonce:  sNonce,
		MAC:    auth.HandshakeMAC(t.cfg.ClusterKey, "srv", tr),
		Sig:    t.cfg.Identity.SignTranscript("srv", tr),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&srvProof); err != nil {
		return hsResult{}, err
	}
	if err := writeHs(conn, wireMsg{Kind: kindHsProof, Payload: buf.Bytes()}); err != nil {
		return hsResult{}, err
	}
	m, err = readHs(conn)
	if err != nil {
		// The dialer opened with a hello, saw this server's proof, and walked
		// away instead of answering: its check of our cluster-key MAC failed
		// (a wrong-key dialer refuses the server first). That is an
		// authentication failure of this connection, not network noise, so it
		// counts as a handshake reject on this side too.
		t.handshakeRejects.Add(1)
		return hsResult{}, fmt.Errorf("%w: tcp: dialer abandoned the handshake (%v)", transport.ErrUnauthenticated, err)
	}
	var proof hsPayload
	if m.Kind != kindHsProof || gob.NewDecoder(bytes.NewReader(m.Payload)).Decode(&proof) != nil {
		return reject("tcp: malformed handshake proof")
	}
	if !auth.CheckHandshakeMAC(t.cfg.ClusterKey, "cli", tr, proof.MAC) {
		return reject("tcp: cluster key mismatch")
	}
	if !auth.CheckTranscriptSig(hello.PubKey, "cli", tr, proof.Sig) {
		return reject("tcp: identity proof failed")
	}
	if err := writeHs(conn, wireMsg{Kind: kindHsOK}); err != nil {
		return hsResult{}, err
	}
	return hsResult{remotePub: hello.PubKey}, nil
}

// clientHandshake authenticates one dialed connection before the mux loops
// start. Failures carry the transport.ErrUnauthenticated identity so callers
// can tell a policy refusal from a fail-stopped peer.
func (t *Transport) clientHandshake(conn net.Conn) error {
	if len(t.cfg.ClusterKey) == 0 {
		return nil
	}
	unauthed := func(why string) error {
		return fmt.Errorf("%w: %s", transport.ErrUnauthenticated, why)
	}
	_ = conn.SetDeadline(time.Now().Add(t.cfg.HandshakeTimeout))
	defer conn.SetDeadline(time.Time{})
	dNonce, err := auth.NewNonce()
	if err != nil {
		return err
	}
	hello := hsPayload{PubKey: t.cfg.Identity.Public(), Nonce: dNonce}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&hello); err != nil {
		return err
	}
	if err := writeHs(conn, wireMsg{Kind: kindHsHello, Payload: buf.Bytes()}); err != nil {
		return err
	}
	m, err := readHs(conn)
	if err != nil {
		// An auth-disabled peer running an older loop just hangs up on the
		// unknown frame kind; surface that as the policy failure it is.
		return unauthed(fmt.Sprintf("tcp: connection closed during handshake (%v)", err))
	}
	if m.Kind == kindHsReject {
		return unauthed(m.Err)
	}
	var srvProof hsPayload
	if m.Kind != kindHsProof || gob.NewDecoder(bytes.NewReader(m.Payload)).Decode(&srvProof) != nil {
		return unauthed("tcp: malformed server handshake proof")
	}
	tr := auth.HandshakeTranscript(dNonce, srvProof.Nonce, hello.PubKey, srvProof.PubKey)
	if !auth.CheckHandshakeMAC(t.cfg.ClusterKey, "srv", tr, srvProof.MAC) {
		return unauthed("tcp: cluster key mismatch")
	}
	if !auth.CheckTranscriptSig(srvProof.PubKey, "srv", tr, srvProof.Sig) {
		return unauthed("tcp: server identity proof failed")
	}
	proof := hsPayload{
		MAC: auth.HandshakeMAC(t.cfg.ClusterKey, "cli", tr),
		Sig: t.cfg.Identity.SignTranscript("cli", tr),
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&proof); err != nil {
		return err
	}
	if err := writeHs(conn, wireMsg{Kind: kindHsProof, Payload: buf.Bytes()}); err != nil {
		return err
	}
	m, err = readHs(conn)
	if err != nil {
		return unauthed(fmt.Sprintf("tcp: connection closed awaiting handshake verdict (%v)", err))
	}
	switch m.Kind {
	case kindHsOK:
		return nil
	case kindHsReject:
		return unauthed(m.Err)
	default:
		return unauthed("tcp: unexpected handshake verdict frame")
	}
}

// resumeWindow is how long a receiver parks an interrupted resumable
// transfer, waiting for its sender to come back. Senders bound their retries
// well under this.
const resumeWindow = 60 * time.Second

// memoWindow is how long a COMMITTED transfer's outcome stays memoized for a
// re-sent commit whose first acknowledgment was lost. It only has to outlast
// one sender's resume attempts (streamRedialAttempts dials under
// RedialBackoffMax, and every contact renews it), not ride out an outage the
// way staged chunks do: every bulk call leaves a memo behind, so at hundreds
// of small replica pushes per second a minute of them is the receiver's
// largest heap consumer.
const memoWindow = 10 * time.Second

// rstream is one resumable inbound transfer. It lives in the transport-level
// registry, not the connection, so it survives the connection that carried
// its chunks. After commit the entry is kept (stager released, response
// memoized) for memoWindow, so a re-sent commit whose first acknowledgment was
// lost returns the same response without running the handler twice.
type rstream struct {
	mu        sync.Mutex
	from      string
	method    string
	stager    transport.ChunkStager
	committed bool
	total     int           // chunk count fixed at commit
	done      chan struct{} // closed when the handler has run
	resp      any
	herr      error
	expires   time.Time
}

func rsKey(from, sid string) string { return from + "\x00" + sid }

// rsGet returns the parked transfer for (from, sid), refreshing its expiry.
func (t *Transport) rsGet(from, sid string) *rstream {
	t.rsMu.Lock()
	defer t.rsMu.Unlock()
	e := t.rstreams[rsKey(from, sid)]
	if e != nil {
		e.mu.Lock()
		e.renewLocked()
		e.mu.Unlock()
	}
	return e
}

// renewLocked pushes the entry's expiry out by the window its state calls
// for. Callers hold e.mu.
func (e *rstream) renewLocked() {
	window := resumeWindow
	if e.committed {
		window = memoWindow
	}
	e.expires = time.Now().Add(window)
}

// rsCreate parks a new transfer, sweeping expired entries while it is here.
func (t *Transport) rsCreate(from, method, sid string) *rstream {
	e := &rstream{
		from:    from,
		method:  method,
		stager:  t.cfg.Stager(int64(t.cfg.MaxStreamBytes)),
		done:    make(chan struct{}),
		expires: time.Now().Add(resumeWindow),
	}
	now := time.Now()
	t.rsMu.Lock()
	for k, old := range t.rstreams {
		old.mu.Lock()
		expired := now.After(old.expires)
		var st transport.ChunkStager
		if expired {
			st, old.stager = old.stager, nil
		}
		old.mu.Unlock()
		if expired {
			delete(t.rstreams, k)
			if st != nil {
				st.Discard()
			}
		}
	}
	t.rstreams[rsKey(from, sid)] = e
	t.rsMu.Unlock()
	return e
}

// rsDrop discards a parked transfer (abort, protocol failure, expiry).
func (t *Transport) rsDrop(from, sid string) {
	t.rsMu.Lock()
	e := t.rstreams[rsKey(from, sid)]
	delete(t.rstreams, rsKey(from, sid))
	t.rsMu.Unlock()
	if e == nil {
		return
	}
	e.mu.Lock()
	st := e.stager
	e.stager = nil
	e.mu.Unlock()
	if st != nil {
		st.Discard()
	}
}

// resumeMark reports how far a parked transfer got: the count of staged
// chunks, the committed total when the transfer already applied, or 0 when
// nothing is parked (the sender restarts from the first chunk).
func (t *Transport) resumeMark(from, sid string) int {
	e := t.rsGet(from, sid)
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.committed {
		return e.total
	}
	return e.stager.Chunks()
}

// serveConn answers request frames on one inbound connection until the peer
// hangs up or a protocol error occurs. Each request is dispatched in its own
// goroutine and its response re-enters the connection through the shared
// batched writer, so a slow handler never blocks the requests pipelined
// behind it. Stream chunks are staged in the transport's resume registry,
// keyed by (sender, stream ID), and dispatched as one reassembled request on
// commit; a connection that dies mid-stream leaves its staged state parked
// there for the resume window. A stream frame without a stream ID is a
// protocol error.
func (t *Transport) serveConn(conn net.Conn, l *listener) {
	defer t.wg.Done()
	defer conn.Close()
	if !l.track(conn) {
		return
	}
	defer l.untrack(conn)
	// Authenticate before the mux loops exist: with a cluster key set, not
	// one request frame is read — let alone dispatched — from a connection
	// that has not proven possession of the secret. The remote public key
	// is the connection's authenticated identity; per-owner authority over
	// range claims is proven separately by advert signatures.
	hs, err := t.serverHandshake(conn)
	if err != nil {
		return
	}
	w := newBatchWriter(conn, t.cfg)
	// A dead writer must take the whole connection down: otherwise this loop
	// would keep reading and dispatching pipelined requests whose responses
	// are silently dropped, leaving callers to burn their full deadlines.
	w.onError = func(error) { conn.Close() }
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		w.loop()
	}()
	defer w.stop()
	h := l.h
	// failResumable rejects a transfer with a typed stream failure and drops
	// its parked state; the sender's Commit resolves with ErrStreamAborted
	// instead of burning its deadline.
	failResumable := func(id uint64, from, sid, reason string) {
		t.rsDrop(from, sid)
		_ = w.enqueueMsg(wireMsg{Kind: kindResp, ID: id, Fail: true, Err: reason})
	}
	handle := func(raw []byte) bool {
		var req wireMsg
		if err := decodeMsg(raw, &req); err != nil {
			return false
		}
		switch req.Kind {
		case kindChunk, kindCommit, kindAbort, kindStreamResume:
			if req.SID == "" {
				return false // protocol error: every sender stamps a stream ID
			}
		}
		switch req.Kind {
		case kindPing:
			_ = w.enqueueMsg(wireMsg{Kind: kindPong, ID: req.ID})
		case kindSend, kindCall:
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				t.dispatch(h, w, req)
			}()
		case kindChunk:
			e := t.rsGet(req.From, req.SID)
			if e == nil {
				if req.Seq != 0 {
					// Tail of a transfer whose parked state expired or was
					// rejected; tell the sender instead of staging a hole.
					failResumable(req.ID, req.From, req.SID, "tcp: no parked stream state for resumed chunk")
					return true
				}
				e = t.rsCreate(req.From, req.Method, req.SID)
			}
			e.mu.Lock()
			var apErr error
			reject := ""
			switch {
			case e.committed:
				if req.Seq >= e.total {
					reject = "tcp: chunk after commit"
				} // else: duplicate of an already-applied transfer; ignore
			case req.Seq < e.stager.Chunks():
				// Duplicate from a resend race; already staged.
			case req.Seq > e.stager.Chunks():
				reject = fmt.Sprintf("tcp: stream chunk %d out of sequence (want %d)", req.Seq, e.stager.Chunks())
			default:
				// A refused chunk — with the default stager the typed
				// ErrStageOverflow past MaxStreamBytes — fails the transfer;
				// the reason crosses the wire so the sender's error stays
				// actionable.
				apErr = e.stager.Append(req.Payload)
			}
			e.mu.Unlock()
			if reject != "" {
				failResumable(req.ID, req.From, req.SID, reject)
			} else if apErr != nil {
				failResumable(req.ID, req.From, req.SID, apErr.Error())
			}
		case kindCommit:
			t.commitResumable(h, w, req, failResumable)
		case kindAbort:
			t.rsDrop(req.From, req.SID)
		case kindStreamResume:
			_ = w.enqueueMsg(wireMsg{Kind: kindResumeMark, ID: req.ID, Seq: t.resumeMark(req.From, req.SID)})
		default:
			return false // protocol error: abandon the connection
		}
		return true
	}
	if hs.deferred != nil && !handle(hs.deferred) {
		return
	}
	for {
		raw, err := transport.ReadFrame(conn)
		if err != nil {
			return
		}
		if !handle(raw) {
			return
		}
	}
}

// commitResumable applies the terminal frame of a registry-parked transfer.
// The handler runs exactly once per stream ID: the first commit joins the
// staged chunks, dispatches, and memoizes the outcome; a re-sent commit
// (the first acknowledgment lost with its connection) waits for that
// dispatch and re-sends the memoized response through the new connection's
// writer.
func (t *Transport) commitResumable(h transport.Handler, w *batchWriter, req wireMsg, failResumable func(id uint64, from, sid, reason string)) {
	e := t.rsGet(req.From, req.SID)
	if e == nil {
		if req.Seq != 0 {
			failResumable(req.ID, req.From, req.SID, "tcp: no parked stream state for resumed commit")
			return
		}
		e = t.rsCreate(req.From, req.Method, req.SID)
	}
	e.mu.Lock()
	if e.committed {
		if req.Seq != e.total {
			e.mu.Unlock()
			failResumable(req.ID, req.From, req.SID, fmt.Sprintf("tcp: resumed commit count %d does not match committed %d", req.Seq, e.total))
			return
		}
		e.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			<-e.done
			t.respond(w, req.ID, e.resp, e.herr)
		}()
		return
	}
	body, err := e.stager.Join(req.Seq)
	if err != nil {
		e.mu.Unlock()
		failResumable(req.ID, req.From, req.SID, err.Error())
		return
	}
	e.committed = true
	e.total = req.Seq
	e.stager = nil // released by Join; the memo keeps only the outcome
	e.renewLocked()
	from, method := e.from, e.method
	e.mu.Unlock()
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		var resp any
		var herr error
		payload, derr := transport.Decode(body)
		if derr != nil {
			herr = derr
		} else {
			resp, herr = h(transport.Addr(from), method, payload)
		}
		e.resp, e.herr = resp, herr
		close(e.done)
		t.respond(w, req.ID, resp, herr)
	}()
}

// dispatch runs one request through the handler and, for calls, queues the
// response — chunked when it outgrows the chunk size, exactly like a
// stream's acknowledgment, so a small request (a pull, a rebalance probe)
// can be answered with an arbitrarily large range.
func (t *Transport) dispatch(h transport.Handler, w *batchWriter, req wireMsg) {
	payload, err := transport.Decode(req.Payload)
	if err != nil {
		if req.Kind == kindCall {
			_ = w.enqueueMsg(wireMsg{Kind: kindResp, ID: req.ID, Err: err.Error()})
		}
		return
	}
	resp, herr := h(transport.Addr(req.From), req.Method, payload)
	if req.Kind != kindCall {
		return // one-way: no response frame
	}
	t.respond(w, req.ID, resp, herr)
}

// respond queues one call's (or committed stream's) terminal response,
// chunking the encoded payload as kindRespChunk frames when it exceeds the
// chunk size. The batched writer preserves enqueue order per connection, so
// the chunk run lands before its terminal frame.
func (t *Transport) respond(w *batchWriter, id uint64, resp any, herr error) {
	out := wireMsg{Kind: kindResp, ID: id}
	if herr != nil {
		out.Err = herr.Error()
		_ = w.enqueueMsg(out)
		return
	}
	respBody, err := transport.Encode(resp)
	if err != nil {
		out.Err = err.Error()
		_ = w.enqueueMsg(out)
		return
	}
	if len(respBody) <= t.cfg.ChunkBytes {
		out.Payload = respBody
		_ = w.enqueueMsg(out)
		return
	}
	n := 0
	for off := 0; off < len(respBody); off += t.cfg.ChunkBytes {
		end := off + t.cfg.ChunkBytes
		if end > len(respBody) {
			end = len(respBody)
		}
		if err := w.enqueueMsg(wireMsg{Kind: kindRespChunk, ID: id, Seq: n, Payload: respBody[off:end]}); err != nil {
			return // connection dying; the caller sees its failure
		}
		n++
	}
	out.Seq = n
	_ = w.enqueueMsg(out)
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
	body, err := transport.Encode(payload)
	if err != nil {
		p.Resolve(nil, err)
		return p
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		p.Resolve(nil, transport.ErrClosed)
		return p
	}
	t.wg.Add(1)
	t.mu.Unlock()
	go func() {
		defer t.wg.Done()
		p.Resolve(t.roundTrip(ctx, wireMsg{Kind: kindCall, From: string(from), Method: method, Payload: body}, to))
	}()
	return p
}

// roundTrip performs one call exchange against to, bounded by ctx (or the
// default call timeout).
func (t *Transport) roundTrip(ctx context.Context, msg wireMsg, to transport.Addr) (any, error) {
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(t.cfg.CallTimeout)
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	mc, err := t.grabConn(ctx, to, deadline)
	if err != nil {
		return nil, unreachable(to, err)
	}
	resp, err := mc.exchange(ctx, msg)
	if err != nil {
		if errors.Is(err, transport.ErrFrameTooLarge) {
			return nil, err // permanent payload failure, not a fail-stop signal
		}
		var se *stageError
		if errors.As(err, &se) {
			return nil, se.err // local staging failure on a healthy connection
		}
		return nil, unreachable(to, err)
	}
	if resp.Err != "" {
		return nil, &RemoteError{Msg: resp.Err}
	}
	return transport.Decode(resp.Payload)
}

// Send implements transport.Transport: deliver asynchronously, dropping the
// message on any failure. Send frames share the multiplexed connections and
// the write batcher with calls.
func (t *Transport) Send(from, to transport.Addr, method string, payload any) {
	body, err := transport.Encode(payload)
	if err != nil {
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.wg.Add(1)
	t.mu.Unlock()
	go func() {
		defer t.wg.Done()
		deadline := time.Now().Add(t.cfg.CallTimeout)
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		defer cancel()
		mc, err := t.grabConn(ctx, to, deadline)
		if err != nil {
			return
		}
		_ = mc.enqueueMsg(wireMsg{Kind: kindSend, From: string(from), Method: method, Payload: body})
	}()
}

// OpenStream implements transport.StreamOpener: start one chunked transfer
// to the handler at to. The transfer's frames ride a pooled multiplexed
// connection, interleaving with concurrent RPC frames; its terminal
// acknowledgment is matched back by request ID exactly like a call response.
func (t *Transport) OpenStream(ctx context.Context, from, to transport.Addr, method string) (transport.Stream, error) {
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(t.cfg.CallTimeout)
	}
	mc, err := t.grabConn(ctx, to, deadline)
	if err != nil {
		return nil, unreachable(to, err)
	}
	id, ch, err := mc.register()
	if err != nil {
		return nil, unreachable(to, err)
	}
	return &tcpStream{
		t:      t,
		mc:     mc,
		to:     to,
		id:     id,
		ch:     ch,
		from:   string(from),
		method: method,
		// The stream ID names this transfer across connections: a random
		// per-process base plus a counter, so parked receiver state can
		// never be claimed by another process's stream.
		sid: fmt.Sprintf("%s-%d", t.sidBase, t.sidSeq.Add(1)),
	}, nil
}

// tcpStream is the sender half of one chunked transfer on a multiplexed
// connection.
type tcpStream struct {
	t      *Transport
	mc     *muxConn
	to     transport.Addr
	id     uint64
	ch     chan pendingResp
	from   string
	method string
	sid    string // resumable stream ID, constant across connections
	seq    int
	early  *pendingResp // receiver rejected the transfer before commit
	done   bool
}

// tcpStream survives connection loss: transport.CallBulk resumes it from the
// receiver's high-water mark instead of restarting from chunk 0.
var _ transport.Resumer = (*tcpStream)(nil)

func (s *tcpStream) MaxChunk() int { return s.t.cfg.ChunkBytes }

// Chunk queues the next sequence-numbered chunk frame, bounded by ctx (the
// per-chunk deadline). A receiver-side rejection that already arrived fails
// the transfer immediately instead of streaming the rest for nothing.
func (s *tcpStream) Chunk(ctx context.Context, data []byte) error {
	if s.done {
		return transport.ErrStreamAborted
	}
	if len(data) > s.t.cfg.ChunkBytes {
		return fmt.Errorf("tcp: stream chunk of %d bytes exceeds chunk size %d", len(data), s.t.cfg.ChunkBytes)
	}
	if s.early == nil {
		select {
		case r := <-s.ch:
			s.early = &r
		default:
		}
	}
	if s.early != nil {
		return s.earlyErr()
	}
	if n := s.t.cfg.ChaosChunkDrop; n > 0 && s.seq == n && s.t.chaosFired.CompareAndSwap(false, true) {
		// Fault injection: kill the carrying connection right before this
		// chunk, once per process. The enqueue below then fails and the
		// transfer must survive via a real resume on a fresh connection.
		s.mc.fail(errors.New("tcp: chaos-drop-chunk fault injected"))
	}
	msg := wireMsg{Kind: kindChunk, ID: s.id, Seq: s.seq, From: s.from, Method: s.method, Payload: data, SID: s.sid}
	if err := s.mc.w.enqueueMsgCtx(ctx, msg); err != nil {
		// A dead writer means the connection (and with it the peer, as far
		// as this transfer is concerned) is gone: keep the fail-stop error
		// identity callers test for, exactly as Commit and OpenStream do.
		return unreachable(s.to, err)
	}
	s.seq++
	return nil
}

// Commit sends the terminal frame and waits for the receiver's typed
// acknowledgment, applying the transport's default call timeout when ctx
// carries no deadline. A connection-level failure leaves the stream open
// (not done): the transfer is resumable, and a retried Commit after Resume
// reaches the receiver's memoized response without re-running its handler.
func (s *tcpStream) Commit(ctx context.Context) (any, error) {
	if s.done {
		return nil, transport.ErrStreamAborted
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.t.cfg.CallTimeout)
		defer cancel()
	}
	if s.early != nil {
		s.mc.unregister(s.id)
		return nil, s.earlyErr()
	}
	msg := wireMsg{Kind: kindCommit, ID: s.id, Seq: s.seq, From: s.from, Method: s.method, SID: s.sid}
	if err := s.mc.w.enqueueMsgCtx(ctx, msg); err != nil {
		s.mc.unregister(s.id)
		return nil, unreachable(s.to, err)
	}
	select {
	case r := <-s.ch:
		resp, err := s.resolveAck(r)
		if err == nil || !errors.Is(err, transport.ErrUnreachable) {
			s.done = true // settled: success, handler error, or stream failure
		}
		return resp, err
	case <-ctx.Done():
		s.mc.unregister(s.id)
		return nil, unreachable(s.to, ctx.Err())
	}
}

// Abort tears the transfer down: the receiver discards its staged chunks.
func (s *tcpStream) Abort(reason string) {
	if s.done {
		return
	}
	s.done = true
	s.mc.unregister(s.id)
	_ = s.mc.enqueueMsg(wireMsg{Kind: kindAbort, ID: s.id, From: s.from, Err: reason, SID: s.sid})
}

// streamRedialAttempts bounds the re-dials one Resume call makes before
// reporting the destination unreachable.
const streamRedialAttempts = 4

// Resume implements transport.Resumer: after a connection loss, re-dial the
// destination (bounded attempts, jittered exponential backoff), ask it for
// the transfer's high-water chunk mark, and re-attach the stream to the new
// connection. Returns the mark — the chunk sequence to continue from.
func (s *tcpStream) Resume(ctx context.Context) (int, error) {
	if s.done {
		return 0, transport.ErrStreamAborted
	}
	s.mc.unregister(s.id)
	backoff := s.t.cfg.RedialBackoff
	var lastErr error = transport.ErrUnreachable
	for attempt := 0; attempt < streamRedialAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(jitter(backoff)):
			case <-ctx.Done():
				return 0, unreachable(s.to, ctx.Err())
			}
			if backoff *= 2; backoff > s.t.cfg.RedialBackoffMax {
				backoff = s.t.cfg.RedialBackoffMax
			}
		}
		actx, cancel := context.WithTimeout(ctx, s.t.cfg.CallTimeout)
		deadline, _ := actx.Deadline()
		mc, err := s.t.grabConn(actx, s.to, deadline)
		if err != nil {
			cancel()
			lastErr = err
			continue
		}
		mark, err := mc.exchange(actx, wireMsg{Kind: kindStreamResume, From: s.from, Method: s.method, SID: s.sid})
		if err == nil && mark.Kind != kindResumeMark {
			err = fmt.Errorf("tcp: unexpected resume-mark reply kind %d", mark.Kind)
		}
		if err != nil {
			cancel()
			lastErr = err
			continue
		}
		id, ch, err := mc.register()
		cancel()
		if err != nil {
			lastErr = err
			continue
		}
		s.mc, s.id, s.ch = mc, id, ch
		s.seq = mark.Seq
		s.early = nil
		s.t.streamResumes.Add(1)
		return mark.Seq, nil
	}
	return 0, unreachable(s.to, lastErr)
}

// earlyErr converts a pre-commit receiver rejection into the caller error. A
// connection-level failure (the rejection is the connection dying, not the
// receiver refusing) leaves the stream resumable.
func (s *tcpStream) earlyErr() error {
	if _, err := s.resolveAck(*s.early); err != nil {
		if !errors.Is(err, transport.ErrUnreachable) {
			s.done = true
		}
		return err
	}
	s.done = true
	return transport.ErrStreamAborted // a success ack before commit is a protocol bug
}

// resolveAck interprets the terminal acknowledgment frame.
func (s *tcpStream) resolveAck(r pendingResp) (any, error) {
	if r.err != nil {
		var se *stageError
		if errors.As(r.err, &se) {
			return nil, se.err // local staging failure, not a fail-stop signal
		}
		return nil, unreachable(s.to, r.err)
	}
	if r.msg.Fail {
		return nil, &streamFailError{msg: r.msg.Err}
	}
	if r.msg.Err != "" {
		return nil, &RemoteError{Msg: r.msg.Err}
	}
	return transport.Decode(r.msg.Payload)
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

// peerConns is the set of multiplexed connections to one destination.
type peerConns struct {
	mu      sync.Mutex
	conns   []*muxConn
	rr      int
	dialing bool
	waiters []chan struct{}

	// Dial backoff: after a failed dial the destination is not re-dialed
	// before nextDial (jittered exponential in failCnt); attempts inside the
	// window fail fast with the last dial error instead of hot-looping
	// against a dead peer under churn.
	failCnt     int
	nextDial    time.Time
	lastDialErr error
}

// pruneLocked drops dead connections. Callers hold pc.mu.
func (pc *peerConns) pruneLocked() {
	live := pc.conns[:0]
	for _, mc := range pc.conns {
		if !mc.isDead() {
			live = append(live, mc)
		}
	}
	pc.conns = live
}

// notifyLocked wakes goroutines waiting for a dial to finish.
func (pc *peerConns) notifyLocked() {
	for _, ch := range pc.waiters {
		close(ch)
	}
	pc.waiters = nil
}

// peerEntry returns the connection set for addr, creating it if needed.
func (t *Transport) peerEntry(addr transport.Addr) (*peerConns, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, transport.ErrClosed
	}
	pc := t.peers[addr]
	if pc == nil {
		pc = &peerConns{}
		t.peers[addr] = pc
	}
	return pc, nil
}

// grabConn returns a healthy multiplexed connection to addr, dialing when
// the destination has fewer than ConnsPerPeer and reusing round-robin
// otherwise. A connection idle past IdlePingAfter is ping-checked first.
func (t *Transport) grabConn(ctx context.Context, addr transport.Addr, deadline time.Time) (*muxConn, error) {
	for {
		pc, err := t.peerEntry(addr)
		if err != nil {
			return nil, err
		}
		pc.mu.Lock()
		pc.pruneLocked()
		if len(pc.conns) > 0 && (len(pc.conns) >= t.cfg.ConnsPerPeer || pc.dialing) {
			mc := pc.conns[pc.rr%len(pc.conns)]
			pc.rr++
			pc.mu.Unlock()
			if err := t.ensureHealthy(mc, pc); err != nil {
				continue // conn was dead; dial or pick another
			}
			return mc, nil
		}
		if pc.dialing {
			// First connection is being dialed; wait for it rather than
			// racing a second dial.
			ch := make(chan struct{})
			pc.waiters = append(pc.waiters, ch)
			pc.mu.Unlock()
			select {
			case <-ch:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if len(pc.conns) == 0 && pc.failCnt > 0 && time.Now().Before(pc.nextDial) {
			// Inside the backoff window after a failed dial: fail fast with
			// the remembered cause rather than re-dialing a dead peer on
			// every call.
			fails, err := pc.failCnt, pc.lastDialErr
			pc.mu.Unlock()
			return nil, fmt.Errorf("tcp: dial backoff (%d consecutive failures): %w", fails, err)
		}
		pc.dialing = true
		pc.mu.Unlock()

		mc, err := t.dialConn(addr, deadline)
		pc.mu.Lock()
		pc.dialing = false
		pc.notifyLocked()
		if err != nil {
			pc.failCnt++
			step := t.cfg.RedialBackoff << (pc.failCnt - 1)
			if step <= 0 || step > t.cfg.RedialBackoffMax {
				step = t.cfg.RedialBackoffMax
			}
			pc.nextDial = time.Now().Add(jitter(step))
			pc.lastDialErr = err
			pc.mu.Unlock()
			return nil, err
		}
		pc.failCnt = 0
		pc.lastDialErr = nil
		pc.conns = append(pc.conns, mc)
		pc.mu.Unlock()
		// Close may have drained pc.conns between the dial and the append
		// above; re-checking after the append guarantees one side sees the
		// other (Close sets closed before draining), so no live connection
		// can be orphaned where Close's wg.Wait would hang on its readLoop.
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			mc.fail(transport.ErrClosed)
			return nil, transport.ErrClosed
		}
		return mc, nil
	}
}

// dialConn establishes one multiplexed connection and starts its loops.
func (t *Transport) dialConn(addr transport.Addr, deadline time.Time) (*muxConn, error) {
	timeout := t.cfg.DialTimeout
	if until := time.Until(deadline); until < timeout {
		timeout = until
	}
	if timeout <= 0 {
		return nil, context.DeadlineExceeded
	}
	conn, err := net.DialTimeout("tcp", string(addr), timeout)
	if err != nil {
		return nil, err
	}
	if err := t.clientHandshake(conn); err != nil {
		conn.Close()
		if errors.Is(err, transport.ErrUnauthenticated) {
			t.handshakeRejects.Add(1)
		}
		return nil, err
	}
	mc := &muxConn{
		conn:     conn,
		w:        newBatchWriter(conn, t.cfg),
		pending:  make(map[uint64]chan pendingResp),
		maxStage: t.cfg.MaxStreamBytes,
		stager:   t.cfg.Stager,
	}
	mc.lastRead.Store(time.Now().UnixNano())
	mc.w.onError = mc.fail
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, transport.ErrClosed
	}
	t.wg.Add(2)
	t.mu.Unlock()
	go func() {
		defer t.wg.Done()
		mc.w.loop()
	}()
	go func() {
		defer t.wg.Done()
		mc.readLoop()
	}()
	return mc, nil
}

// ensureHealthy ping-checks mc when it has been silent past IdlePingAfter,
// failing it (and reporting an error so the caller re-grabs) when the ping
// gets no pong in time.
func (t *Transport) ensureHealthy(mc *muxConn, pc *peerConns) error {
	if mc.isDead() {
		return errors.New("tcp: connection is dead")
	}
	idle := time.Since(time.Unix(0, mc.lastRead.Load()))
	if idle < t.cfg.IdlePingAfter {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), t.cfg.PingTimeout)
	defer cancel()
	if _, err := mc.exchange(ctx, wireMsg{Kind: kindPing}); err != nil {
		mc.fail(fmt.Errorf("tcp: idle health check failed: %w", err))
		pc.mu.Lock()
		pc.pruneLocked()
		pc.mu.Unlock()
		return err
	}
	return nil
}

// pendingResp carries one response (or the connection's death) to a waiter.
type pendingResp struct {
	msg wireMsg
	err error
}

// muxConn is one dialed connection multiplexing many in-flight calls:
// requests are tagged with connection-scoped IDs and responses are matched
// back by ID, in whatever order the peer finishes them.
type muxConn struct {
	conn net.Conn
	w    *batchWriter

	mu      sync.Mutex
	pending map[uint64]chan pendingResp
	respBuf map[uint64]transport.ChunkStager // staged kindRespChunk payloads by request ID
	nextID  uint64
	dead    bool
	deadErr error

	maxStage int                     // in-memory cap on staged chunked-response bytes per request
	stager   transport.StagerFactory // same factory as the receive path, so the caps agree
	lastRead atomic.Int64            // UnixNano of the last inbound frame
}

func (c *muxConn) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// exchange sends one request frame and waits for the matching response. A
// context expiry abandons the request — the connection stays usable and a
// late response is dropped — while a connection failure resolves every
// outstanding exchange at once.
func (c *muxConn) exchange(ctx context.Context, msg wireMsg) (wireMsg, error) {
	id, ch, err := c.register()
	if err != nil {
		return wireMsg{}, err
	}
	msg.ID = id

	if err := c.enqueueMsg(msg); err != nil {
		c.unregister(id)
		return wireMsg{}, err
	}
	select {
	case r := <-ch:
		return r.msg, r.err
	case <-ctx.Done():
		c.unregister(id)
		return wireMsg{}, ctx.Err()
	}
}

// register allocates a request ID and its response channel without sending
// anything: streams register at open time so a receiver-side rejection can
// resolve the transfer even before its commit frame is queued.
func (c *muxConn) register() (uint64, chan pendingResp, error) {
	ch := make(chan pendingResp, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return 0, nil, c.deadErr
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	return id, ch, nil
}

func (c *muxConn) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	st := c.respBuf[id]
	delete(c.respBuf, id)
	c.mu.Unlock()
	if st != nil {
		st.Discard()
	}
}

// enqueueMsg encodes and queues one frame for the batched writer.
func (c *muxConn) enqueueMsg(m wireMsg) error {
	return c.w.enqueueMsg(m)
}

// readLoop delivers response frames to their waiting exchanges until the
// connection fails, then resolves everything still pending.
func (c *muxConn) readLoop() {
	for {
		raw, err := transport.ReadFrame(c.conn)
		if err != nil {
			c.fail(err)
			return
		}
		c.lastRead.Store(time.Now().UnixNano())
		var m wireMsg
		if err := decodeMsg(raw, &m); err != nil {
			c.fail(err)
			return
		}
		if m.Kind == kindRespChunk {
			// Stage one piece of a chunked acknowledgment through the same
			// stager factory the receive path uses, so the caps of the two
			// directions always agree: the default stager bounds the dialer's
			// memory at MaxStreamBytes and refuses further chunks with the
			// typed ErrStageOverflow; a disk-spilling stager lifts the cap.
			c.mu.Lock()
			ch, live := c.pending[m.ID]
			var stageErr error
			if live {
				if c.respBuf == nil {
					c.respBuf = make(map[uint64]transport.ChunkStager)
				}
				st := c.respBuf[m.ID]
				if st == nil {
					st = c.stager(int64(c.maxStage))
					c.respBuf[m.ID] = st
				}
				if stageErr = st.Append(m.Payload); stageErr != nil {
					st.Discard()
					delete(c.pending, m.ID)
					delete(c.respBuf, m.ID)
				}
			}
			c.mu.Unlock()
			if stageErr != nil {
				ch <- pendingResp{err: &stageError{err: fmt.Errorf("tcp: staging chunked response: %w", stageErr)}}
			}
			continue
		}
		c.mu.Lock()
		ch := c.pending[m.ID]
		staged := c.respBuf[m.ID]
		delete(c.pending, m.ID)
		delete(c.respBuf, m.ID)
		c.mu.Unlock()
		if ch == nil {
			if staged != nil {
				staged.Discard()
			}
			continue
		}
		if m.Kind == kindResp && m.Seq > 0 && m.Err == "" {
			var body []byte
			var err error
			if staged != nil {
				body, err = staged.Join(m.Seq)
			} else {
				body, err = transport.JoinChunks(nil, m.Seq)
			}
			if err != nil {
				ch <- pendingResp{err: err}
				continue
			}
			m.Payload = body
		} else if staged != nil {
			staged.Discard()
		}
		ch <- pendingResp{msg: m}
	}
}

// fail marks the connection dead, closes it, and resolves every in-flight
// exchange with err — the orderly-cancellation path a peer's Deregister (or
// a network fault) triggers on the dial side.
func (c *muxConn) fail(err error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.deadErr = err
	pend := c.pending
	staged := c.respBuf
	c.pending = nil
	c.respBuf = nil
	c.mu.Unlock()
	c.conn.Close()
	c.w.stop()
	for _, st := range staged {
		st.Discard()
	}
	for _, ch := range pend {
		ch <- pendingResp{err: err}
	}
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
	ls := make([]*listener, 0, len(t.listeners))
	for _, l := range t.listeners {
		ls = append(ls, l)
	}
	t.listeners = make(map[transport.Addr]*listener)
	ps := make([]*peerConns, 0, len(t.peers))
	for _, p := range t.peers {
		ps = append(ps, p)
	}
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
	t.rsMu.Lock()
	parked := t.rstreams
	t.rstreams = make(map[string]*rstream)
	t.rsMu.Unlock()
	for _, e := range parked {
		e.mu.Lock()
		st := e.stager
		e.stager = nil
		e.mu.Unlock()
		if st != nil {
			st.Discard()
		}
	}
	return nil
}

// batchWriter coalesces queued frames into as few syscalls as possible: it
// keeps writing while frames are queued and flushes when the queue drains,
// when BatchBytes are buffered, or after BatchDelay at the latest.
type batchWriter struct {
	conn       net.Conn
	ch         chan []byte
	done       chan struct{}
	stopOnce   sync.Once
	failed     atomic.Bool
	batchBytes int
	batchDelay time.Duration
	writeWait  time.Duration
	onError    func(error) // optional: invoked once when the writer stops (write failure or stop)
}

func newBatchWriter(conn net.Conn, cfg Config) *batchWriter {
	return &batchWriter{
		conn:       conn,
		ch:         make(chan []byte, 256),
		done:       make(chan struct{}),
		batchBytes: cfg.BatchBytes,
		batchDelay: cfg.BatchDelay,
		writeWait:  2 * cfg.CallTimeout,
	}
}

// enqueueMsg encodes m and queues its frame, rejecting oversized messages
// with transport.ErrFrameTooLarge before they reach the wire.
func (w *batchWriter) enqueueMsg(m wireMsg) error {
	body, err := encodeMsg(m)
	if err != nil {
		return err
	}
	select {
	case w.ch <- body:
		return nil
	case <-w.done:
		return transport.ErrWriterStopped
	}
}

// enqueueMsgCtx is enqueueMsg bounded by ctx: stream chunks apply their
// per-chunk deadline here, so a stalled receiver fails the transfer instead
// of blocking the sender forever once the write queue backs up.
func (w *batchWriter) enqueueMsgCtx(ctx context.Context, m wireMsg) error {
	body, err := encodeMsg(m)
	if err != nil {
		return err
	}
	select {
	case w.ch <- body:
		return nil
	case <-w.done:
		return transport.ErrWriterStopped
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stop terminates the writer loop. Queued frames not yet written never reach
// the wire, so the connection's pending calls must not wait out their
// deadlines: stopping fires onError (once, with the typed
// transport.ErrWriterStopped) exactly like a write failure, and the dial
// side's onError — muxConn.fail — resolves every in-flight exchange
// promptly.
func (w *batchWriter) stop() {
	w.fail(transport.ErrWriterStopped)
}

// fail stops the writer and reports err to onError exactly once. The flag
// flips before onError runs, so the re-entrant stop() that muxConn.fail
// issues on its own writer terminates instead of deadlocking.
func (w *batchWriter) fail(err error) {
	w.stopOnce.Do(func() { close(w.done) })
	if w.failed.CompareAndSwap(false, true) {
		if w.onError != nil {
			w.onError(err)
		}
	}
}

func (w *batchWriter) loop() {
	buf := bytes.NewBuffer(make([]byte, 0, w.batchBytes))
	var delay *time.Timer
	defer func() {
		if delay != nil {
			delay.Stop()
		}
	}()
	for {
		select {
		case body := <-w.ch:
			buf.Reset()
			if err := transport.WriteFrame(buf, body); err != nil {
				continue // size-checked at enqueue; defensive only
			}
			// Coalesce: keep appending queued frames until the queue drains,
			// the size threshold is hit, or the batch window closes.
			var window <-chan time.Time
			if w.batchDelay > 0 {
				if delay == nil {
					delay = time.NewTimer(w.batchDelay)
				} else {
					delay.Reset(w.batchDelay)
				}
				window = delay.C
			}
		coalesce:
			for buf.Len() < w.batchBytes {
				select {
				case more := <-w.ch:
					if err := transport.WriteFrame(buf, more); err != nil {
						continue
					}
				case <-window:
					break coalesce
				case <-w.done:
					break coalesce
				default:
					if window == nil {
						break coalesce
					}
					select {
					case more := <-w.ch:
						if err := transport.WriteFrame(buf, more); err != nil {
							continue
						}
					case <-window:
						break coalesce
					case <-w.done:
						break coalesce
					}
				}
			}
			if delay != nil && !delay.Stop() {
				select {
				case <-delay.C:
				default:
				}
			}
			_ = w.conn.SetWriteDeadline(time.Now().Add(w.writeWait))
			if _, err := w.conn.Write(buf.Bytes()); err != nil {
				w.fail(err)
				return
			}
			_ = w.conn.SetWriteDeadline(time.Time{})
			if buf.Cap() > 4*w.batchBytes {
				// An outsized state transfer grew the buffer (up to a whole
				// 16 MiB frame); drop the capacity back so long-lived
				// connections are sized for their typical batch, not their
				// largest ever.
				buf = bytes.NewBuffer(make([]byte, 0, w.batchBytes))
			}
		case <-w.done:
			return
		}
	}
}

// encodeMsg gob-encodes one wire message, enforcing the frame size limit
// with a typed error so callers can tell an oversized state transfer from a
// fail-stopped peer.
func encodeMsg(m wireMsg) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&m); err != nil {
		return nil, err
	}
	if buf.Len() > transport.MaxFrameSize {
		return nil, fmt.Errorf("%w: %s message of %d bytes", transport.ErrFrameTooLarge, m.Method, buf.Len())
	}
	return buf.Bytes(), nil
}

// decodeMsg parses one frame body into a wire message.
func decodeMsg(b []byte, m *wireMsg) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(m)
}

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

// jitter spreads a backoff delay uniformly over [d/2, d), so peers backing
// off from the same failure do not re-dial in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(mrand.Int63n(int64(d/2)))
}
