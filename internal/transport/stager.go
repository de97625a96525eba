package transport

import (
	"bytes"
	"errors"
	"fmt"
)

// ErrStageOverflow reports a chunked transfer that exceeded the in-memory
// staging cap (MaxStreamBytes) on a transport without disk spill. It is a
// typed, actionable condition: raise the cap, or configure a disk-backed
// storage backend (pepperd -data-dir), whose stagers spill to files and are
// not bounded by the cap at all.
var ErrStageOverflow = errors.New("transport: staged transfer exceeds the in-memory cap")

func init() {
	// A receiver that refuses a stream past its cap reports the overflow as
	// the stream failure reason; registering the sentinel keeps the sender's
	// error typed (errors.Is(err, ErrStageOverflow)) across the wire.
	RegisterWireError(ErrStageOverflow)
}

// ChunkStager accumulates the chunks of one inbound transfer — a streamed
// request on the receiver, or a chunked response on the dial side — until
// the transfer commits (Join) or dies (Discard). Implementations are used by
// one connection goroutine at a time.
//
// The default stager holds chunks in RAM and enforces the transport's
// MaxStreamBytes cap with ErrStageOverflow; the disk-backed storage engine
// supplies one that spills to files, so BOTH sides of the cap agree: a
// transport either caps in RAM everywhere or spills everywhere.
type ChunkStager interface {
	// Append stages the next chunk. An error poisons the transfer; the
	// caller discards the stager and aborts the stream. The chunk is only
	// lent: its bytes are reused once Append returns, so a stager that keeps
	// them copies them.
	Append(chunk []byte) error
	// Chunks returns how many chunks are staged.
	Chunks() int
	// Bytes returns the staged byte count.
	Bytes() int64
	// Join validates the staged sequence against the committed chunk count,
	// returns the reassembled payload and releases the staging resources.
	Join(total int) ([]byte, error)
	// Discard drops all staged chunks and releases resources; idempotent,
	// and safe to call after Join.
	Discard()
}

// StagerFactory creates a fresh stager for one transfer. maxBytes is the
// transport's in-memory cap; disk-backed factories may ignore it.
type StagerFactory func(maxBytes int64) ChunkStager

// memStager is the default ChunkStager: RAM staging under a byte cap. It
// keeps a copy of every chunk: a transport hands Append a slice of its read
// buffer, which it reuses once Append returns.
type memStager struct {
	chunks [][]byte
	bytes  int64
	max    int64
}

// NewMemStager returns the default in-memory stager. maxBytes <= 0 means
// uncapped.
func NewMemStager(maxBytes int64) ChunkStager { return &memStager{max: maxBytes} }

func (s *memStager) Append(chunk []byte) error {
	if s.max > 0 && s.bytes+int64(len(chunk)) > s.max {
		return fmt.Errorf("%w: %d staged + %d incoming bytes over the %d-byte cap (raise MaxStreamBytes or use disk staging via a durable storage backend)",
			ErrStageOverflow, s.bytes, len(chunk), s.max)
	}
	s.chunks = append(s.chunks, bytes.Clone(chunk))
	s.bytes += int64(len(chunk))
	return nil
}

func (s *memStager) Chunks() int  { return len(s.chunks) }
func (s *memStager) Bytes() int64 { return s.bytes }

func (s *memStager) Join(total int) ([]byte, error) {
	out, err := JoinChunks(s.chunks, total)
	s.Discard()
	return out, err
}

func (s *memStager) Discard() {
	s.chunks = nil
	s.bytes = 0
}
