package tcp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/transport"
)

type listener struct {
	ln net.Listener
	h  transport.Handler

	mu    sync.Mutex
	conns map[net.Conn]struct{} // accepted connections; nil once killed
}

// track records an accepted connection so a Deregister can fail-stop it;
// it reports false when the listener is already dead.
func (l *listener) track(conn net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conns == nil {
		return false
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
	conns := l.conns // ours alone once replaced
	l.conns = nil
	l.mu.Unlock()
	l.ln.Close()
	for c := range conns {
		c.Close()
	}
}

func (t *Transport) acceptLoop(l *listener) {
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed (Deregister or Close)
		}
		if !t.track(func() { t.serveConn(conn, l) }) {
			conn.Close()
			return
		}
	}
}

// inbound is the serving side of one accepted, authenticated connection.
type inbound struct {
	t       *Transport
	h       transport.Handler
	w       *batchWriter
	streams inboundStreams
}

// serveConn answers request frames on one inbound connection until the peer
// hangs up or a protocol error occurs. Each request is dispatched in its own
// goroutine, which writes the response itself through the connection's
// shared batched writer, so a slow handler never blocks the requests
// pipelined behind it; the loop itself only queues (batchWriter.queue). Stream chunks are staged per connection, under the
// request ID their frames carry, and dispatched as one reassembled request on
// commit; a connection that dies mid-stream takes its staging with it.
func (t *Transport) serveConn(conn net.Conn, l *listener) {
	defer conn.Close()
	if !l.track(conn) {
		return
	}
	defer l.untrack(conn)
	// Authenticate before the mux loops exist: with a cluster key set, not
	// one request frame is read — let alone dispatched — from a connection
	// that has not proven possession of the secret. Per-owner authority over
	// range claims is proven separately by advert signatures.
	first, err := t.serverHandshake(conn)
	if err != nil {
		return
	}
	t.openConns.Add(1)
	defer t.openConns.Add(-1)
	w := newBatchWriter(conn, 2*t.cfg.CallTimeout, t.track)
	// A dead writer must take the whole connection down: otherwise this loop
	// would keep reading and dispatching pipelined requests whose responses
	// are silently dropped, leaving callers to burn their full deadlines.
	w.onError = func(error) { conn.Close() }
	defer w.stop()
	c := &inbound{t: t, h: l.h, w: w, streams: inboundStreams{stager: t.newStager}}
	defer c.streams.close()
	if first != nil && !c.handle(*first) {
		return
	}
	r := newConnReader(conn)
	for {
		req, err := readMsg(r)
		if err != nil || !c.handle(req) {
			return
		}
	}
}

// handle processes one request frame; false reports a protocol error, on
// which the connection is abandoned. It is the frame's last owner: a request
// body is decoded, and a chunk staged, before handle returns and releases the
// frame's buffer, so nothing it starts reads the frame's bytes.
func (c *inbound) handle(req wireMsg) bool {
	defer req.release()
	switch req.Kind {
	case kindPing:
		_ = c.w.queue(wireMsg{Kind: kindPong, ID: req.ID})
	case kindSend, kindCall:
		payload, err := transport.Decode(req.Payload)
		from, method, id, call := req.From, req.Method, req.ID, req.Kind == kindCall
		c.t.track(func() {
			resp, herr := c.invoke(from, method, payload, err)
			if call { // a kindSend is one-way: no response frame
				c.respond(id, resp, herr)
			}
		})
	case kindChunk:
		if err := c.streams.stage(req.ID, req.Seq, req.Payload); err != nil {
			c.failStream(req.ID, err)
		}
	case kindCommit:
		body, err := c.streams.commit(req.ID, req.Seq)
		if err != nil {
			c.failStream(req.ID, err)
			break
		}
		from, method, id := req.From, req.Method, req.ID
		c.t.track(func() {
			payload, err := transport.Decode(body)
			resp, herr := c.invoke(from, method, payload, err)
			c.respond(id, resp, herr)
		})
	case kindAbort:
		c.streams.drop(req.ID)
	default:
		return false
	}
	return true
}

// inboundStreams stages the streamed requests in flight on one inbound
// connection, keyed by the request ID their frames carry. Only the
// connection's serve loop uses it, and it discards whatever is still staged
// when the connection ends: a sender whose connection dies has lost its
// transfer, and learns so as ErrUnreachable.
type inboundStreams struct {
	stager  func() transport.ChunkStager
	staging map[uint64]transport.ChunkStager
}

var errNoStagedStream = errors.New("tcp: no staged stream for this frame")

// stage files chunk seq of stream id. Only chunk 0 opens a stream, and every
// later chunk must be the next in sequence. An error is a stream-protocol
// failure: the stream's staging is discarded, and the error text is the
// reason the sender is told.
func (s *inboundStreams) stage(id uint64, seq int, data []byte) error {
	st := s.staging[id]
	if st == nil && seq == 0 {
		if s.staging == nil {
			s.staging = make(map[uint64]transport.ChunkStager)
		}
		st = s.stager()
		s.staging[id] = st
	}
	var err error
	switch {
	case st == nil:
		err = errNoStagedStream
	case seq != st.Chunks():
		err = fmt.Errorf("tcp: stream chunk %d out of sequence (want %d)", seq, st.Chunks())
	default:
		// A refused chunk — with the default stager the typed
		// ErrStageOverflow past MaxStreamBytes — fails the transfer; the
		// reason crosses the wire so the sender's error stays actionable.
		err = st.Append(data)
	}
	if err != nil {
		s.drop(id)
	}
	return err
}

// commit ends stream id, whose sender sent total chunks, and returns its
// reassembled body. Errors are stream-protocol failures, as for stage.
func (s *inboundStreams) commit(id uint64, total int) ([]byte, error) {
	st := s.staging[id]
	if st == nil {
		return nil, errNoStagedStream
	}
	delete(s.staging, id)
	return st.Join(total)
}

// drop discards stream id's staging, if any (an abort, a failure).
func (s *inboundStreams) drop(id uint64) {
	if st := s.staging[id]; st != nil {
		delete(s.staging, id)
		st.Discard()
	}
}

// close discards every stream still staged: the connection is gone.
func (s *inboundStreams) close() {
	for id := range s.staging {
		s.drop(id)
	}
}

// send sends one frame of a handler's response on the connection's writer,
// writing it on the handler's goroutine when the connection is idle. Nothing
// bounds the wait but writeWait and the connection's own death, which stops
// the writer.
func (c *inbound) send(m wireMsg) error {
	return c.w.enqueue(context.Background(), m)
}

// failStream tells the sender its transfer was refused (and dropped),
// so its Commit resolves with a typed stream failure, not a burnt deadline.
func (c *inbound) failStream(id uint64, reason error) {
	_ = c.w.queue(wireMsg{Kind: kindResp, ID: id, Fail: true, Err: reason.Error()})
}

// invoke runs the handler on a decoded request payload, or reports the error
// that decoding it failed with.
func (c *inbound) invoke(from, method string, payload any, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return c.h(transport.Addr(from), method, payload)
}

// respond queues the terminal response of one call or committed stream,
// chunking the encoded payload as kindRespChunk frames when it exceeds the
// chunk size — so a small request (a pull, a rebalance probe) can be answered
// with an arbitrarily large range. The batched writer keeps each enqueuer's
// frames in order, so the chunk run lands before its terminal frame. The body
// is encoded into a pooled buffer, which goes back once its frames are built.
func (c *inbound) respond(id uint64, resp any, herr error) {
	out := wireMsg{Kind: kindResp, ID: id}
	var bp *[]byte
	if herr == nil {
		bp, herr = encode(resp)
	}
	chunk := c.t.cfg.ChunkBytes
	switch {
	case herr != nil:
		out.Err = herr.Error()
	case len(*bp) <= chunk:
		out.Payload, out.buf = *bp, bp // enqueue releases it
	default:
		body := *bp
		for off := 0; off < len(body); off += chunk {
			part := wireMsg{Kind: kindRespChunk, ID: id, Seq: out.Seq, Payload: body[off:min(off+chunk, len(body))]}
			if err := c.send(part); err != nil {
				putBuf(bp)
				return // connection dying; the caller sees its failure
			}
			out.Seq++
		}
		putBuf(bp)
	}
	_ = c.send(out)
}
