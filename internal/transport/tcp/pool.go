package tcp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// peerConns is the set of multiplexed connections to one destination.
type peerConns struct {
	mu      sync.Mutex
	conns   []*muxConn
	rr      int
	dialing chan struct{} // non-nil while a dial is in progress; closed when it ends

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
// Waiting is bounded by ctx and a dial by ctx's deadline.
func (t *Transport) grabConn(ctx context.Context, addr transport.Addr) (*muxConn, error) {
	for {
		pc, err := t.peerEntry(addr)
		if err != nil {
			return nil, err
		}
		pc.mu.Lock()
		pc.pruneLocked()
		if len(pc.conns) > 0 && (len(pc.conns) >= t.cfg.ConnsPerPeer || pc.dialing != nil) {
			mc := pc.conns[pc.rr%len(pc.conns)]
			pc.rr++
			pc.mu.Unlock()
			if err := t.ensureHealthy(mc); err != nil {
				continue // conn is dead and pruned next time round; dial or pick another
			}
			return mc, nil
		}
		if ch := pc.dialing; ch != nil {
			// First connection is being dialed; wait for it rather than
			// racing a second dial.
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
		pc.dialing = make(chan struct{})
		pc.mu.Unlock()

		mc, err := t.dialConn(ctx, addr)
		pc.mu.Lock()
		close(pc.dialing)
		pc.dialing = nil
		if err != nil {
			pc.failCnt++
			pc.nextDial = time.Now().Add(transport.BackoffDelay(t.cfg.RedialBackoff, t.cfg.RedialBackoffMax, pc.failCnt))
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

// dialConn establishes one multiplexed connection and starts its loops. The
// dial is bounded by DialTimeout, or by ctx's deadline when that is sooner.
func (t *Transport) dialConn(ctx context.Context, addr transport.Addr) (*muxConn, error) {
	timeout := t.cfg.DialTimeout
	if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < timeout {
		timeout = time.Until(deadline)
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
		conn:    conn,
		w:       newBatchWriter(conn, 2*t.cfg.CallTimeout),
		pending: make(map[uint64]chan pendingResp),
		stager:  t.newStager,
	}
	mc.lastRead.Store(time.Now().UnixNano())
	mc.w.onError = mc.fail
	if !t.track(mc.w.loop) || !t.track(mc.readLoop) {
		mc.fail(transport.ErrClosed) // also stops the writer, if it got to start
		return nil, transport.ErrClosed
	}
	return mc, nil
}

// ensureHealthy ping-checks mc when it has been silent past IdlePingAfter,
// failing it (and reporting an error so the caller re-grabs) when the ping
// gets no pong in time.
func (t *Transport) ensureHealthy(mc *muxConn) error {
	if mc.isDead() {
		return errors.New("tcp: connection is dead")
	}
	if time.Since(time.Unix(0, mc.lastRead.Load())) < t.cfg.IdlePingAfter {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), t.cfg.PingTimeout)
	defer cancel()
	if _, err := mc.exchange(ctx, wireMsg{Kind: kindPing}); err != nil {
		mc.fail(fmt.Errorf("tcp: idle health check failed: %w", err))
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

	stager   func() transport.ChunkStager // same factory and cap as the receive path, so the two directions agree
	lastRead atomic.Int64                 // UnixNano of the last inbound frame
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
		msg.release()
		return wireMsg{}, err
	}
	msg.ID = id
	return c.await(ctx, msg, ch)
}

// await queues msg, whose ID is registered to ch, and waits for its response.
// The response is the caller's to release.
func (c *muxConn) await(ctx context.Context, msg wireMsg, ch chan pendingResp) (wireMsg, error) {
	if err := c.w.enqueue(ctx, msg); err != nil {
		c.unregister(msg.ID)
		return wireMsg{}, err
	}
	select {
	case r := <-ch:
		return r.msg, r.err
	case <-ctx.Done():
		c.unregister(msg.ID)
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

// readLoop delivers response frames to their waiting exchanges until the
// connection fails, then resolves everything still pending. A response is
// handed over with its read buffer, which the waiter releases once it has
// decoded the payload; a chunk's bytes are copied when they are staged, and
// its buffer goes back at once.
func (c *muxConn) readLoop() {
	r := newConnReader(c.conn)
	for {
		m, err := readMsg(r)
		if err != nil {
			c.fail(err)
			return
		}
		c.lastRead.Store(time.Now().UnixNano())
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
					st = c.stager()
					c.respBuf[m.ID] = st
				}
				if stageErr = st.Append(m.Payload); stageErr != nil {
					st.Discard()
					delete(c.pending, m.ID)
					delete(c.respBuf, m.ID)
				}
			}
			c.mu.Unlock()
			m.release()
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
			m.release()
			continue // abandoned by its caller; staging only ever exists beside a pending entry
		}
		if m.Kind == kindResp && m.Seq > 0 && m.Err == "" {
			m.release() // the terminal frame of a chunked response carries no body of its own
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
