package tcp

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/transport"
)

// OpenStream implements transport.StreamOpener: start one chunked transfer
// to the handler at to. The transfer's frames ride one pooled multiplexed
// connection, interleaving with concurrent RPC frames; its terminal
// acknowledgment is matched back by request ID exactly like a call response.
// A transfer that is fed one chunk and committed never becomes a stream on
// the wire: it is sent as one ordinary call frame (see Commit).
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
	return &tcpStream{outbound: outbound{mc: mc, to: to, id: id, ch: ch}, from: string(from), method: method}, nil
}

// tcpStream is the sender half of one chunked transfer on a multiplexed
// connection. It holds back its first chunk: the next Chunk sends it as chunk
// frame 0, and a Commit that finds it still held sends it as the call frame
// of a transfer that fits one chunk. The receiver stages the chunk frames
// under the stream's request ID, on this connection only, so a transfer whose
// connection dies is gone at both ends.
type tcpStream struct {
	outbound
	from   string
	method string
	seq    int    // chunk frames sent
	held   []byte // the first chunk, not yet sent
	early  error  // the receiver's answer before commit: a rejection, or the connection's death
	done   bool
}

func (s *tcpStream) MaxChunk() int { return s.mc.t.cfg.ChunkBytes }

// Chunk queues the next sequence-numbered chunk frame, bounded by ctx (the
// per-chunk deadline). A receiver-side rejection that already arrived fails
// the transfer immediately instead of streaming the rest for nothing. The
// first chunk is held back until the next Chunk or Commit.
func (s *tcpStream) Chunk(ctx context.Context, data []byte) error {
	if s.done {
		return transport.ErrStreamAborted
	}
	if len(data) > s.mc.t.cfg.ChunkBytes {
		return fmt.Errorf("tcp: stream chunk of %d bytes exceeds chunk size %d", len(data), s.mc.t.cfg.ChunkBytes)
	}
	if s.seq == 0 && s.held == nil && len(data) > 0 {
		s.held = data // the whole transfer, if Commit comes next
		return nil
	}
	if held := s.held; held != nil {
		s.held = nil
		if err := s.send(ctx, held); err != nil {
			return err
		}
	}
	return s.send(ctx, data)
}

// send queues data as chunk frame s.seq.
func (s *tcpStream) send(ctx context.Context, data []byte) error {
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
	if n := s.mc.t.cfg.ChaosChunkDrop; n > 0 && s.seq == n && s.mc.t.chaosDrops.CompareAndSwap(0, 1) {
		// Fault injection: kill the carrying connection right before this
		// chunk, once per process. The enqueue below then fails, and the
		// transfer with it.
		s.mc.fail(errors.New("tcp: chaos-drop-chunk fault injected"))
	}
	msg := wireMsg{Kind: kindChunk, ID: s.id, Seq: s.seq, From: s.from, Method: s.method, Payload: data}
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
// carries no deadline. It settles the transfer whatever the outcome: a
// connection lost under it reads as ErrUnreachable, as for Call.
func (s *tcpStream) Commit(ctx context.Context) (any, error) {
	ctx, cancel := s.mc.t.withCallTimeout(ctx)
	defer cancel()
	if err := s.commit(ctx); err != nil {
		return nil, err
	}
	return s.wait(ctx)
}

// CommitAsync is Commit with the wait left to the returned Pending, exactly
// as CallAsync leaves it: transport.CallBulkAsync sends a transfer that fits
// one chunk this way, with no goroutine.
func (s *tcpStream) CommitAsync(ctx context.Context) *transport.Pending {
	ctx, cancel := s.mc.t.withCallTimeout(ctx)
	if err := s.commit(ctx); err != nil {
		cancel()
		return transport.Resolved(nil, err)
	}
	return s.async(ctx, cancel)
}

// commit sends the terminal frame. A transfer whose only chunk is still held
// goes out instead as one kindCall frame, byte-identical to a Call of the
// same payload: the receiver decodes it from its read buffer and dispatches
// it with no stream state, so it stages nothing.
func (s *tcpStream) commit(ctx context.Context) error {
	if s.done {
		return transport.ErrStreamAborted
	}
	s.done = true
	msg := wireMsg{Kind: kindCommit, ID: s.id, Seq: s.seq, From: s.from, Method: s.method}
	switch {
	case s.held != nil:
		msg = wireMsg{Kind: kindCall, ID: s.id, From: s.from, Method: s.method, Payload: s.held}
		s.held = nil
	case s.early != nil:
		s.mc.unregister(s.id)
		return s.early
	}
	if err := s.mc.post(ctx, msg); err != nil {
		return failure(s.to, err)
	}
	return nil
}

// Abort tears the transfer down: the receiver discards its staged chunks.
func (s *tcpStream) Abort(reason string) {
	if s.done {
		return
	}
	s.done = true
	s.held = nil
	s.mc.unregister(s.id)
	if s.seq == 0 {
		return // no frame went out: the receiver holds nothing
	}
	_ = s.mc.w.enqueue(context.Background(), wireMsg{Kind: kindAbort, ID: s.id, From: s.from, Err: reason})
}

// earlyErr converts a pre-commit answer — the receiver's rejection, or the
// connection's death — into the caller error, once: outcome releases the
// response.
func (s *tcpStream) earlyErr(r pendingResp) error {
	_, err := outcome(s.to, r.msg, r.err)
	if err == nil {
		err = transport.ErrStreamAborted // a success ack before commit is a protocol bug
	}
	return err
}
