package tcp

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

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
}

// readMsg reads one frame and decodes its header. Together with appendFrame
// it is the only code in the package that knows how a frame is laid out.
func readMsg(r io.Reader) (wireMsg, error) {
	var m wireMsg
	raw, err := transport.ReadFrame(r)
	if err == nil {
		err = gob.NewDecoder(bytes.NewReader(raw)).Decode(&m)
	}
	return m, err
}

// appendFrame appends m to buf as one length-prefixed frame, enforcing the
// frame size limit with a typed error so callers can tell an oversized state
// transfer from a fail-stopped peer. On error buf is left as it was.
func appendFrame(buf *bytes.Buffer, m wireMsg) error {
	start := buf.Len()
	buf.Grow(256 + len(m.Payload)) // prefix, gob's type descriptor and the header fields, in one allocation
	var hdr [transport.FrameHeaderLen]byte
	buf.Write(hdr[:])
	err := gob.NewEncoder(buf).Encode(&m)
	n := buf.Len() - start - len(hdr)
	if err == nil && n > transport.MaxFrameSize {
		err = fmt.Errorf("%w: %s message of %d bytes", transport.ErrFrameTooLarge, m.Method, n)
	}
	if err != nil {
		buf.Truncate(start)
		return err
	}
	transport.PutFrameHeader(buf.Bytes()[start:], n)
	return nil
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

// writeHs writes one handshake frame of the given kind carrying body.
func writeHs(w io.Writer, kind int, body hsPayload) error {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(&body); err != nil {
		return err
	}
	return writeMsg(w, wireMsg{Kind: kind, Payload: b.Bytes()})
}

// hsBody decodes the body of a handshake frame read with readMsg; ok is false
// when it does not parse.
func hsBody(m wireMsg) (body hsPayload, ok bool) {
	return body, gob.NewDecoder(bytes.NewReader(m.Payload)).Decode(&body) == nil
}
