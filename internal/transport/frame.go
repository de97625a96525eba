package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Length-prefixed framing for stream transports: each frame is a 4-byte
// big-endian length followed by that many payload bytes. Frames carry
// Encode'd envelopes, so the stream is a sequence of self-describing
// messages.

// MaxFrameSize bounds one frame (16 MiB); a peer sending a larger length
// prefix is corrupt or hostile and the connection is abandoned.
const MaxFrameSize = 16 << 20

// FrameHeaderLen is the size of a frame's length prefix.
const FrameHeaderLen = 4

// PutFrameHeader stamps the length prefix of an n-byte payload into
// hdr[:FrameHeaderLen], for senders that build a frame in place.
func PutFrameHeader(hdr []byte, n int) {
	binary.BigEndian.PutUint32(hdr, uint32(n))
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: frame of %d bytes", ErrFrameTooLarge, len(payload))
	}
	var hdr [FrameHeaderLen]byte
	PutFrameHeader(hdr[:], len(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: frame length %d", ErrFrameTooLarge, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
