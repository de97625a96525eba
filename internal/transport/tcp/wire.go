package tcp

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"repro/internal/transport"
)

// frame kinds. The iota values are the wire contract: a new kind is
// appended.
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
	Seq     int // chunk sequence number; on kindCommit/terminal kindResp: total chunk count
	From    string
	Method  string
	Payload []byte
	Err     string // kindResp only: non-empty when the handler or stream failed
	Fail    bool   // kindResp only: Err is a stream-protocol failure, not a handler error

	// buf is the pooled buffer Payload aliases, nil when it aliases none. It
	// is not on the wire. On the send side it holds the body request or
	// respond encoded, and enqueue releases it once the body is framed; on the
	// receive side it holds the frame readMsg read, and whoever consumes the
	// payload releases it once the payload is decoded or staged.
	buf *[]byte
}

// release hands m's pooled buffer back and detaches Payload from it. Only
// the message's one owner calls it, when it is done with Payload; a copy of
// m made before must not read Payload after.
func (m *wireMsg) release() {
	if m.buf != nil {
		putBuf(m.buf)
		m.buf, m.Payload = nil, nil
	}
}

// frameCodec encodes wireMsg as the frame header: its fields in declaration
// order, integers as varints, strings and Payload length-prefixed (see
// ARCHITECTURE.md "The mux wire format").
var frameCodec = transport.NewCodec[wireMsg]()

// bufs lends the package's byte buffers: the frames readMsg reads, the
// bodies encode encodes, and the frames enqueue builds, which the batcher
// writes. Each goes back once its bytes are consumed — decoded, staged,
// framed or written — so a message's bytes are copied once on each end and
// allocated by neither.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte {
	bp := bufs.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// putBuf returns bp to the pool unless it has grown past maxPooledBuf.
func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		bufs.Put(bp)
	}
}

// encode encodes payload's envelope into a pooled buffer, for a message that
// carries it as Payload (with buf set) to enqueue.
func encode(payload any) (*[]byte, error) {
	bp := getBuf()
	b, err := transport.AppendEncode(*bp, payload)
	*bp = b
	if err != nil {
		putBuf(bp)
		return nil, err
	}
	return bp, nil
}

// readBufSize is the read buffer of one connection's mux loop: one read
// syscall fetches a burst of small frames, and a body larger than the buffer
// is read past it, straight into the frame buffer. It is kept small because
// every connection end holds one for its lifetime.
const readBufSize = 1 << 10

// newConnReader buffers a connection's reads once its handshake is over: the
// handshake reads unbuffered, so no byte it did not consume is left behind in
// a buffer the mux loop does not own.
func newConnReader(conn net.Conn) *bufio.Reader { return bufio.NewReaderSize(conn, readBufSize) }

// readMsg reads one frame and decodes its header. Together with appendFrame
// it is the only code in the package that knows how a frame is laid out. The
// frame is read into a pooled buffer that the returned Payload aliases (m.buf
// holds it), so the caller releases m once it has decoded or staged the
// payload; a frame without one has its buffer back in the pool already.
func readMsg(r io.Reader) (wireMsg, error) {
	n, err := transport.ReadFrameHeader(r)
	if err != nil {
		return wireMsg{}, err
	}
	// Only now take a buffer: a connection waiting for its next frame holds
	// none.
	bp := getBuf()
	*bp, err = transport.ReadFrameBody(r, n, *bp)
	var m wireMsg
	if err == nil {
		m, err = frameCodec.DecodeAliasing(*bp)
	}
	if err != nil || m.Payload == nil { // an empty Payload decodes as nil
		putBuf(bp)
		return m, err
	}
	m.buf = bp
	return m, nil
}

// appendFrame appends m to b as one length-prefixed frame, enforcing the
// frame size limit with a typed error so callers can tell an oversized state
// transfer from a fail-stopped peer. On error it returns b as it was.
func appendFrame(b []byte, m wireMsg) ([]byte, error) {
	// Room for the prefix, the header's integers and every string, so the
	// header is encoded with no regrowth.
	start := len(b)
	frame := slices.Grow(b, transport.FrameHeaderLen+64+len(m.From)+len(m.Method)+len(m.Payload)+len(m.Err))
	frame = append(frame, make([]byte, transport.FrameHeaderLen)...)
	frame, err := frameCodec.Append(frame, m)
	n := len(frame) - start - transport.FrameHeaderLen
	if err == nil && n > transport.MaxFrameSize {
		err = fmt.Errorf("%w: %s message of %d bytes", transport.ErrFrameTooLarge, m.Method, n)
	}
	if err != nil {
		return b, err
	}
	transport.PutFrameHeader(frame[start:], n)
	return frame, nil
}

// hsPayload is the body of a handshake frame (encoded inside
// wireMsg.Payload): the hello carries PubKey+Nonce, the proofs carry
// MAC+Sig over the role-labelled transcript (the server's proof carries all
// four).
type hsPayload struct {
	PubKey []byte
	Nonce  []byte
	MAC    []byte
	Sig    []byte
}

// writeMsg writes m as one frame directly to w: the handshake runs before the
// mux loops start, so the connection is exclusively its own.
func writeMsg(w io.Writer, m wireMsg) error {
	frame, err := appendFrame(nil, m)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

var hsCodec = transport.NewCodec[hsPayload]()

// writeHs writes one handshake frame of the given kind carrying body.
func writeHs(w io.Writer, kind int, body hsPayload) error {
	b, err := hsCodec.Append(nil, body)
	if err != nil {
		return err
	}
	return writeMsg(w, wireMsg{Kind: kind, Payload: b})
}

// hsBody decodes the body of a handshake frame read with readMsg; ok is false
// when it does not parse.
func hsBody(m wireMsg) (hsPayload, bool) {
	body, err := hsCodec.Decode(m.Payload)
	return body, err == nil
}
