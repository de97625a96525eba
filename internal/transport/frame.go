package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
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
	n, err := ReadFrameHeader(r)
	if err != nil {
		return nil, err
	}
	frame, err := ReadFrameBody(r, n, nil)
	if err != nil {
		return nil, err
	}
	return frame, nil
}

// ReadFrameHeader reads a frame's length prefix, refusing one beyond
// MaxFrameSize.
func ReadFrameHeader(r io.Reader) (int, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return 0, fmt.Errorf("%w: frame length %d", ErrFrameTooLarge, n)
	}
	return int(n), nil
}

// ReadFrameBody reads the n bytes of a frame's body into buf's storage. It
// grows buf only as the bytes arrive, so a corrupt or hostile length prefix
// costs about what the peer actually sent, not MaxFrameSize. On error the
// returned slice's contents are undefined, but its storage can be reused.
func ReadFrameBody(r io.Reader, n int, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n, max(2*cap(buf), 4<<10))-len(buf))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		if err == io.EOF && len(buf) > 0 {
			err = io.ErrUnexpectedEOF
		}
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}
