package storage

import (
	"fmt"
	"io"
	"os"

	"repro/internal/transport"
)

// diskStager stages one chunked transfer's frames in a spill file instead of
// RAM, which lifts the transport's MaxStreamBytes cap: on a durable backend
// every chunked transfer flows through here — in either direction, a
// streamed request or a chunked response. A bulk call that fits one chunk is
// sent as a plain call frame and staged nowhere, so small replica pushes and
// hand-offs touch no spill file. Chunk boundaries are
// retained (as lengths) so Join can validate the committed chunk count
// exactly like the in-memory stager does. The reassembled payload is read
// back once at commit time for decoding; only the decode, not the staging,
// occupies memory.
type diskStager struct {
	dir   string
	f     *os.File
	sizes []int
	bytes int64
	err   error
}

func newDiskStager(dir string) *diskStager { return &diskStager{dir: dir} }

// Append spills one chunk to the stage file (created lazily, so aborted
// transfers that never stage a chunk touch no disk).
func (s *diskStager) Append(chunk []byte) error {
	if s.err != nil {
		return s.err
	}
	if s.f == nil {
		f, err := os.CreateTemp(s.dir, "stream-*.stage")
		if err != nil {
			s.err = fmt.Errorf("storage: creating stream spill file: %w", err)
			return s.err
		}
		s.f = f
	}
	if _, err := s.f.Write(chunk); err != nil {
		s.err = fmt.Errorf("storage: staging stream chunk: %w", err)
		return s.err
	}
	s.sizes = append(s.sizes, len(chunk))
	s.bytes += int64(len(chunk))
	return nil
}

// Chunks returns the number of staged chunks.
func (s *diskStager) Chunks() int { return len(s.sizes) }

// Bytes returns the staged byte count.
func (s *diskStager) Bytes() int64 { return s.bytes }

// Join validates the committed chunk count, reads the payload back and
// removes the spill file.
func (s *diskStager) Join(total int) ([]byte, error) {
	defer s.Discard()
	if s.err != nil {
		return nil, s.err
	}
	if len(s.sizes) != total {
		return nil, fmt.Errorf("%w: committed %d chunks, staged %d", transport.ErrStreamAborted, total, len(s.sizes))
	}
	if s.f == nil { // zero-chunk transfer
		return nil, nil
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("storage: rewinding stream spill file: %w", err)
	}
	out := make([]byte, s.bytes)
	if _, err := io.ReadFull(s.f, out); err != nil {
		return nil, fmt.Errorf("storage: reading staged stream back: %w", err)
	}
	return out, nil
}

// Discard removes the spill file; idempotent.
func (s *diskStager) Discard() {
	if s.f != nil {
		name := s.f.Name()
		s.f.Close()
		os.Remove(name)
		s.f = nil
	}
}
