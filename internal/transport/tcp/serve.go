package tcp

import (
	"context"
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
	t *Transport
	h transport.Handler
	w *batchWriter
}

// serveConn answers request frames on one inbound connection until the peer
// hangs up or a protocol error occurs. Each request is dispatched in its own
// goroutine and its response re-enters the connection through the shared
// batched writer, so a slow handler never blocks the requests pipelined
// behind it. Stream chunks are staged in the transport's resume registry,
// keyed by (sender, stream ID), and dispatched as one reassembled request on
// commit; a connection that dies mid-stream leaves its staged state parked
// there for the resume window.
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
	w := newBatchWriter(conn, 2*t.cfg.CallTimeout)
	// A dead writer must take the whole connection down: otherwise this loop
	// would keep reading and dispatching pipelined requests whose responses
	// are silently dropped, leaving callers to burn their full deadlines.
	w.onError = func(error) { conn.Close() }
	if !t.track(w.loop) {
		return
	}
	defer w.stop()
	c := &inbound{t: t, h: l.h, w: w}
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
	case kindChunk, kindCommit, kindAbort, kindStreamResume:
		if req.SID == "" {
			return false // every sender stamps a stream ID
		}
	}
	switch req.Kind {
	case kindPing:
		_ = c.send(wireMsg{Kind: kindPong, ID: req.ID})
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
		if err := c.t.resume.stage(req.From, req.Method, req.SID, req.Seq, req.Payload); err != nil {
			c.failStream(req.ID, err)
		}
	case kindCommit:
		e, body, first, err := c.t.resume.commit(req.From, req.Method, req.SID, req.Seq, req.TTL)
		if err != nil {
			c.failStream(req.ID, err)
			break
		}
		id, sid := req.ID, req.SID
		c.t.track(func() {
			if first {
				payload, err := transport.Decode(body)
				resp, herr := c.invoke(e.from, e.method, payload, err)
				c.t.resume.settle(e, sid, resp, herr)
			}
			<-e.done
			c.respond(id, e.resp, e.herr)
		})
	case kindAbort:
		c.t.resume.drop(req.From, req.SID)
	case kindStreamResume:
		_ = c.send(wireMsg{Kind: kindResumeMark, ID: req.ID, Seq: c.t.resume.mark(req.From, req.SID)})
	default:
		return false
	}
	return true
}

// send queues one frame on the connection's writer. Nothing bounds the wait
// but the connection's own death, which stops the writer.
func (c *inbound) send(m wireMsg) error {
	return c.w.enqueue(context.Background(), m)
}

// failStream tells the sender the registry refused (and dropped) its transfer,
// so its Commit resolves with a typed stream failure, not a burnt deadline.
func (c *inbound) failStream(id uint64, reason error) {
	_ = c.send(wireMsg{Kind: kindResp, ID: id, Fail: true, Err: reason.Error()})
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
// with an arbitrarily large range. The batched writer preserves enqueue order
// per connection, so the chunk run lands before its terminal frame. The body
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
