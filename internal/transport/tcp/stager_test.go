package tcp

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/transport"
)

// stagerConfig is a transport tuned so staging limits trip quickly: small
// chunks force the stream path, and a small MaxStreamBytes makes the RAM cap
// reachable without moving gigabytes in a unit test.
func stagerConfig() Config {
	return Config{
		DialTimeout:    time.Second,
		CallTimeout:    20 * time.Second,
		ConnsPerPeer:   1,
		ChunkBytes:     32 << 10,
		MaxStreamBytes: 128 << 10,
	}
}

// A streamed request past MaxStreamBytes is refused by the receiver with the
// typed ErrStageOverflow, and the sentinel survives the wire: the sender can
// errors.Is it and act (raise the cap or configure disk staging).
func TestStreamOverflowIsTypedAtSender(t *testing.T) {
	echo := func(_ transport.Addr, _ string, p any) (any, error) { return p, nil }
	tr := New(stagerConfig())
	t.Cleanup(func() { tr.Close() })
	a, err := tr.Listen("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Listen("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}

	_, err = transport.CallBulk(tr, context.Background(), a, b, "rep.push", streamMsg{Data: patterned(512 << 10)})
	if !errors.Is(err, transport.ErrStageOverflow) {
		t.Fatalf("oversized stream: err = %v, want ErrStageOverflow", err)
	}
	// The refusal is per-transfer: the connection still serves traffic, and a
	// transfer under the cap goes through.
	resp, err := transport.CallBulk(tr, context.Background(), a, b, "rep.push", streamMsg{Data: patterned(64 << 10)})
	if err != nil {
		t.Fatalf("in-cap stream after refusal: %v", err)
	}
	if got := resp.(streamMsg); len(got.Data) != 64<<10 {
		t.Fatalf("in-cap stream corrupted: %d bytes", len(got.Data))
	}
}

// A chunked RESPONSE past MaxStreamBytes is refused on the dial side with the
// same typed error: both directions of the staging cap agree.
func TestDialSideResponseOverflowIsTyped(t *testing.T) {
	big := func(_ transport.Addr, _ string, p any) (any, error) {
		return streamMsg{Data: patterned(512 << 10)}, nil
	}
	tr := New(stagerConfig())
	t.Cleanup(func() { tr.Close() })
	a, err := tr.Listen("127.0.0.1:0", big)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Listen("127.0.0.1:0", big)
	if err != nil {
		t.Fatal(err)
	}

	_, err = tr.Call(context.Background(), a, b, "store.scan", echoMsg{N: 1})
	if !errors.Is(err, transport.ErrStageOverflow) {
		t.Fatalf("oversized response: err = %v, want ErrStageOverflow", err)
	}
}

// A disk-spilling stager from the storage engine lifts the cap on both
// directions at once: a transfer several times MaxStreamBytes round-trips —
// outbound as a streamed request staged to disk at the receiver, inbound as a
// chunked response staged to disk at the dialer.
func TestDiskStagerLiftsStreamCap(t *testing.T) {
	echo := func(_ transport.Addr, _ string, p any) (any, error) { return p, nil }
	cfg := stagerConfig()
	cfg.Stager = storage.DiskFactory{Dir: t.TempDir()}.NewStager
	tr := New(cfg)
	t.Cleanup(func() { tr.Close() })
	a, err := tr.Listen("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Listen("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}

	want := patterned(1 << 20) // 8x the RAM cap
	resp, err := transport.CallBulk(tr, context.Background(), a, b, "rep.push", streamMsg{Data: want})
	if err != nil {
		t.Fatalf("disk-staged bulk call: %v", err)
	}
	got, ok := resp.(streamMsg)
	if !ok {
		t.Fatalf("bulk response type %T", resp)
	}
	if !bytes.Equal(got.Data, want) {
		t.Fatal("disk-staged payload corrupted in flight")
	}
}

// releaseCounter counts the calls that release a stager, Join and Discard,
// to catch one released twice or never.
type releaseCounter struct {
	transport.ChunkStager
	releases *int
}

func (s releaseCounter) Join(total int) ([]byte, error) {
	*s.releases++
	return s.ChunkStager.Join(total)
}

func (s releaseCounter) Discard() {
	*s.releases++
	s.ChunkStager.Discard()
}

// A connection's stream staging is driven here directly: no sockets. Every
// case stages chunks c0 and c1 of stream 1 and then takes its step; a
// stream-protocol failure drops the stream and releases its stager once,
// and anything else leaves it to commit.
func TestInboundStreamStaging(t *testing.T) {
	cases := []struct {
		name     string
		run      func(s *inboundStreams) error // the step under test
		want     string                        // substring of its error; "" = must succeed
		wantBody string                        // stream 1 committed with 2 chunks then yields this; "" = it was dropped
	}{
		{
			name:     "chunks in order",
			run:      func(s *inboundStreams) error { return nil },
			wantBody: "c0c1",
		},
		{
			name: "duplicate chunk rejected",
			run:  func(s *inboundStreams) error { return s.stage(1, 1, []byte("resent")) },
			want: "chunk 1 out of sequence (want 2)",
		},
		{
			name: "gap rejected",
			run:  func(s *inboundStreams) error { return s.stage(1, 3, []byte("c3")) },
			want: "chunk 3 out of sequence (want 2)",
		},
		{
			name: "staging refusal rejected with its typed reason",
			run:  func(s *inboundStreams) error { return s.stage(1, 2, make([]byte, 1<<20)) },
			want: transport.ErrStageOverflow.Error(),
		},
		{
			name: "commit count mismatch rejected",
			run: func(s *inboundStreams) error {
				_, err := s.commit(1, 3)
				return err
			},
			want: "committed 3 chunks, staged 2",
		},
		{
			name:     "chunk with no staged stream rejected",
			run:      func(s *inboundStreams) error { return s.stage(9, 4, []byte("c4")) },
			want:     errNoStagedStream.Error(),
			wantBody: "c0c1",
		},
		{
			name: "commit with no staged stream rejected",
			run: func(s *inboundStreams) error {
				_, err := s.commit(9, 4)
				return err
			},
			want:     errNoStagedStream.Error(),
			wantBody: "c0c1",
		},
		{
			name: "chunk after an abort is refused",
			run: func(s *inboundStreams) error {
				s.drop(1)
				return s.stage(1, 2, []byte("c2"))
			},
			want: errNoStagedStream.Error(),
		},
		{
			name: "the connection's end discards its streams",
			run: func(s *inboundStreams) error {
				s.close()
				return nil
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			releases := 0
			s := &inboundStreams{stager: func() transport.ChunkStager {
				return releaseCounter{ChunkStager: transport.NewMemStager(64 << 10), releases: &releases}
			}}
			for i, c := range []string{"c0", "c1"} {
				if err := s.stage(1, i, []byte(c)); err != nil {
					t.Fatalf("stage chunk %d: %v", i, err)
				}
			}
			err := tc.run(s)
			if (tc.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			if tc.wantBody == "" {
				if _, err := s.commit(1, 2); !errors.Is(err, errNoStagedStream) {
					t.Errorf("dropped stream still committed: %v", err)
				}
				if releases != 1 {
					t.Errorf("dropped stream's stager released %d times, want 1", releases)
				}
				return
			}
			body, err := s.commit(1, 2)
			if err != nil || string(body) != tc.wantBody || releases != 1 {
				t.Errorf("commit = %q, %v, stager released %d times; want %q, released once", body, err, releases, tc.wantBody)
			}
		})
	}
}
