package tcp

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/transport"
)

// OpenStream implements transport.StreamOpener: start one chunked transfer
// to the handler at to. The transfer's frames ride a pooled multiplexed
// connection, interleaving with concurrent RPC frames; its terminal
// acknowledgment is matched back by request ID exactly like a call response.
func (t *Transport) OpenStream(ctx context.Context, from, to transport.Addr, method string) (transport.Stream, error) {
	ctx, cancel := t.withCallTimeout(ctx)
	defer cancel()
	mc, err := t.grabConn(ctx, to)
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
	early  error // the receiver's answer before commit: a rejection, or the connection's death
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
			s.early = s.earlyErr(r)
		default:
		}
	}
	if s.early != nil {
		return s.early
	}
	if n := s.t.cfg.ChaosChunkDrop; n > 0 && s.seq == n && s.t.chaosFired.CompareAndSwap(false, true) {
		// Fault injection: kill the carrying connection right before this
		// chunk, once per process. The enqueue below then fails and the
		// transfer must survive via a real resume on a fresh connection.
		s.mc.fail(errors.New("tcp: chaos-drop-chunk fault injected"))
	}
	msg := wireMsg{Kind: kindChunk, ID: s.id, Seq: s.seq, From: s.from, Method: s.method, Payload: data, SID: s.sid}
	if err := s.mc.w.enqueue(ctx, msg); err != nil {
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
// The frame carries what is left of ctx's own deadline (before the default
// timeout), past which the caller resumes no more: the receiver keeps the
// memo that long.
func (s *tcpStream) Commit(ctx context.Context) (any, error) {
	if s.done {
		return nil, transport.ErrStreamAborted
	}
	var ttl time.Duration
	if deadline, ok := ctx.Deadline(); ok {
		ttl = max(time.Until(deadline), 1) // an expired deadline must not read as none
	}
	ctx, cancel := s.t.withCallTimeout(ctx)
	defer cancel()
	if s.early != nil {
		s.mc.unregister(s.id)
		return nil, s.early
	}
	msg := wireMsg{Kind: kindCommit, ID: s.id, Seq: s.seq, From: s.from, Method: s.method, SID: s.sid, TTL: ttl}
	ack, err := s.mc.await(ctx, msg, s.ch)
	resp, err := outcome(s.to, ack, err)
	if err == nil || !errors.Is(err, transport.ErrUnreachable) {
		s.done = true // settled: success, handler error, or stream failure
	}
	return resp, err
}

// Abort tears the transfer down: the receiver discards its staged chunks.
func (s *tcpStream) Abort(reason string) {
	if s.done {
		return
	}
	s.done = true
	s.mc.unregister(s.id)
	_ = s.mc.w.enqueue(context.Background(), wireMsg{Kind: kindAbort, ID: s.id, From: s.from, Err: reason, SID: s.sid})
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
	var lastErr error
	for attempt := 0; attempt < streamRedialAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(transport.BackoffDelay(s.t.cfg.RedialBackoff, s.t.cfg.RedialBackoffMax, attempt)):
			case <-ctx.Done():
				return 0, unreachable(s.to, ctx.Err())
			}
		}
		if lastErr = s.reattach(ctx); lastErr == nil {
			s.t.streamResumes.Add(1)
			return s.seq, nil
		}
	}
	return 0, unreachable(s.to, lastErr)
}

// reattach makes one resume attempt: grab a connection, learn the receiver's
// high-water mark over it, and move the stream onto it.
func (s *tcpStream) reattach(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, s.t.cfg.CallTimeout)
	defer cancel()
	mc, err := s.t.grabConn(ctx, s.to)
	if err != nil {
		return err
	}
	mark, err := mc.exchange(ctx, wireMsg{Kind: kindStreamResume, From: s.from, Method: s.method, SID: s.sid})
	if err != nil {
		return err
	}
	if mark.Kind != kindResumeMark {
		return fmt.Errorf("tcp: unexpected resume-mark reply kind %d", mark.Kind)
	}
	id, ch, err := mc.register()
	if err != nil {
		return err
	}
	s.mc, s.id, s.ch = mc, id, ch
	s.seq = mark.Seq
	s.early = nil
	return nil
}

// earlyErr converts a pre-commit receiver rejection into the caller error,
// once: outcome releases the response. A connection-level failure (the
// rejection is the connection dying, not the receiver refusing) leaves the
// stream resumable.
func (s *tcpStream) earlyErr(r pendingResp) error {
	_, err := outcome(s.to, r.msg, r.err)
	if err == nil {
		err = transport.ErrStreamAborted // a success ack before commit is a protocol bug
	}
	if !errors.Is(err, transport.ErrUnreachable) {
		s.done = true
	}
	return err
}
