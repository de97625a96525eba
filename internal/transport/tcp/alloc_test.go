//go:build !race

package tcp

import (
	"context"
	"testing"

	"repro/internal/transport"
)

// A call costs one copy of its response's bytes in allocations: the copy the
// caller's decode makes. The body the handler's reply is encoded into, the
// frame it is built into, the batch it is written in and the buffer it is
// read into are all pooled, and the frame header's Payload aliases the read
// buffer instead of copying it. The race detector's instrumentation
// allocates on its own, hence the build tag.
func TestCallAllocatesOnceForItsResponse(t *testing.T) {
	const size, calls = 40 << 10, 500
	reply := streamMsg{Data: patterned(size)}
	handler := func(transport.Addr, string, any) (any, error) { return reply, nil }
	tr, a, b := newPair(t, handler, handler)
	ctx := context.Background()
	call := func() {
		resp, err := tr.Call(ctx, a, b, "get", echoMsg{N: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.(streamMsg); len(got.Data) != size {
			t.Fatalf("response of %d bytes, want %d", len(got.Data), size)
		}
	}
	for i := 0; i < 20; i++ { // dial, and fill the pools
		call()
	}
	n := allocatedBy(func() {
		for i := 0; i < calls; i++ {
			call()
		}
	})
	perCall := float64(n) / calls
	t.Logf("%.0f bytes allocated per call, %.2fx the %d-byte response", perCall, perCall/size, size)
	if perCall > 1.5*size {
		t.Fatalf("a call allocated %.0f bytes, %.2fx its %d-byte response; want at most 1.5x", perCall, perCall/size, size)
	}
}
