package tcp

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// aliasMsg asks for Size bytes generated from Seed+1 and carries the bytes
// generated from Seed, so either end can tell whether what it decoded is what
// was sent.
type aliasMsg struct {
	Seed int64
	Size int
	Data []byte
}

func init() { transport.RegisterMessage(aliasMsg{}) }

func seeded(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// Frames are read into pooled buffers and their headers' Payload aliases
// them; bodies are encoded and framed in pooled buffers too. A decoded value
// must never share those bytes: many calls pipelined on one connection, each
// with its own random payload, must each get back exactly what they asked
// for, and keep it, while the buffers go round. Some replies are larger than
// a chunk (kindRespChunk frames, staged on the dial side) and some requests
// go through CallBulk streams (kindChunk frames, staged at the receiver).
// Every decoded request and reply is checked again once all calls are done,
// so a byte overwritten after its check is caught too; run it under -race.
func TestPooledBuffersNeverReachDecodedValues(t *testing.T) {
	const chunk = 8 << 10
	var (
		mu   sync.Mutex
		seen []aliasMsg // every request the handler decoded
	)
	handler := func(_ transport.Addr, _ string, p any) (any, error) {
		req, ok := p.(aliasMsg)
		if !ok {
			return nil, fmt.Errorf("payload type %T", p)
		}
		if !bytes.Equal(req.Data, seeded(req.Seed, len(req.Data))) {
			return nil, fmt.Errorf("request %d decoded to other bytes than were sent", req.Seed)
		}
		mu.Lock()
		seen = append(seen, req)
		mu.Unlock()
		return aliasMsg{Seed: req.Seed + 1, Data: seeded(req.Seed+1, req.Size)}, nil
	}
	tr := New(Config{DialTimeout: time.Second, CallTimeout: 30 * time.Second, ConnsPerPeer: 1, ChunkBytes: chunk})
	t.Cleanup(func() { tr.Close() })
	a, err := tr.Listen("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Listen("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 8, 30
	replies := make([][]aliasMsg, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			ctx := context.Background()
			for i := 0; i < perWorker; i++ {
				seed := int64(w*1000+i) * 2
				req := aliasMsg{Seed: seed, Size: rnd.Intn(3 * chunk), Data: seeded(seed, rnd.Intn(3*chunk))}
				var resp any
				var err error
				if i%3 == 0 {
					resp, err = transport.CallBulk(tr, ctx, a, b, "bulk", req)
				} else {
					resp, err = tr.Call(ctx, a, b, "call", req)
				}
				if err != nil {
					t.Errorf("call %d: %v", seed, err)
					return
				}
				got, ok := resp.(aliasMsg)
				if !ok || got.Seed != seed+1 || !bytes.Equal(got.Data, seeded(seed+1, req.Size)) {
					t.Errorf("call %d: reply is not the %d bytes asked for", seed, req.Size)
					return
				}
				replies[w] = append(replies[w], got)
			}
		}(w)
	}
	wg.Wait()

	for _, rs := range replies {
		for _, r := range rs {
			if !bytes.Equal(r.Data, seeded(r.Seed, len(r.Data))) {
				t.Errorf("reply %d changed after it was checked", r.Seed)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != workers*perWorker {
		t.Fatalf("handler decoded %d requests, want %d", len(seen), workers*perWorker)
	}
	for _, r := range seen {
		if !bytes.Equal(r.Data, seeded(r.Seed, len(r.Data))) {
			t.Errorf("request %d changed after the handler checked it", r.Seed)
		}
	}
}
