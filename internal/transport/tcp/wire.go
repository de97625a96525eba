package tcp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/transport"
)

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
	// TTL is kindCommit only: how long the sender's context had left when it
	// sent the commit, 0 when it has no deadline. No re-sent commit can come
	// after that, so the receiver keeps the transfer's memo no longer.
	TTL time.Duration
}

// frameCodec encodes wireMsg as the frame header: its fields in declaration
// order, integers as varints, strings and Payload length-prefixed (see
// ARCHITECTURE.md "The mux wire format").
var frameCodec = transport.NewCodec[wireMsg]()

// readBufs recycles the buffers frames are read into: decoding copies out
// everything a wireMsg keeps, so a frame's bytes are garbage once readMsg
// returns.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

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
// it is the only code in the package that knows how a frame is laid out.
func readMsg(r io.Reader) (wireMsg, error) {
	n, err := transport.ReadFrameHeader(r)
	if err != nil {
		return wireMsg{}, err
	}
	// Only now take a buffer: a connection waiting for its next frame holds
	// none.
	bp := readBufs.Get().(*[]byte)
	raw, err := transport.ReadFrameBody(r, n, *bp)
	var m wireMsg
	if err == nil {
		m, err = frameCodec.Decode(raw)
	}
	if cap(raw) <= maxPooledBuf {
		*bp = raw
		readBufs.Put(bp)
	}
	return m, err
}

// appendFrame appends m to buf as one length-prefixed frame, enforcing the
// frame size limit with a typed error so callers can tell an oversized state
// transfer from a fail-stopped peer. On error buf is left as it was.
func appendFrame(buf *bytes.Buffer, m wireMsg) error {
	// Room for the prefix, the header's integers and every string, so the
	// header is encoded in place with no second copy.
	buf.Grow(transport.FrameHeaderLen + 64 + len(m.From) + len(m.Method) + len(m.Payload) + len(m.Err) + len(m.SID))
	frame := append(buf.AvailableBuffer(), make([]byte, transport.FrameHeaderLen)...)
	frame, err := frameCodec.Append(frame, m)
	n := len(frame) - transport.FrameHeaderLen
	if err == nil && n > transport.MaxFrameSize {
		err = fmt.Errorf("%w: %s message of %d bytes", transport.ErrFrameTooLarge, m.Method, n)
	}
	if err != nil {
		return err
	}
	transport.PutFrameHeader(frame, n)
	buf.Write(frame)
	return nil
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
	var frame bytes.Buffer
	if err := appendFrame(&frame, m); err != nil {
		return err
	}
	_, err := w.Write(frame.Bytes())
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
