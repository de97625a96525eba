package tcp

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// gatedConn is a net.Conn whose Write announces itself, then blocks until the
// test lets it through: the batcher's coalescing can be observed write by
// write with no timing involved.
type gatedConn struct {
	net.Conn             // nil: any method the writer is not meant to call panics
	writes   chan []byte // each Write's bytes, announced before it blocks
	release  chan error  // one receive per Write: its result
	deadline atomic.Pointer[time.Time]
}

func newGatedConn() *gatedConn {
	return &gatedConn{writes: make(chan []byte), release: make(chan error)}
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.writes <- append([]byte(nil), b...)
	if err := <-c.release; err != nil {
		return 0, err
	}
	return len(b), nil
}

func (c *gatedConn) SetWriteDeadline(t time.Time) error {
	c.deadline.Store(&t)
	return nil
}

// startWriter runs a batchWriter over a gated conn until the test ends.
func startWriter(t *testing.T) (*batchWriter, *gatedConn) {
	conn := newGatedConn()
	w := newBatchWriter(conn, time.Minute)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		w.loop()
	}()
	t.Cleanup(func() {
		w.stop()
		for {
			select {
			case <-conn.writes: // a write left blocked, or a straggler after stop
				conn.release <- nil
			case <-exited:
				return
			}
		}
	})
	return w, conn
}

// frameOf is what enqueue(m) puts on the wire.
func frameOf(t *testing.T, m wireMsg) []byte {
	t.Helper()
	frame, err := appendFrame(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestBatchWriterCoalescesFramesQueuedDuringAWrite(t *testing.T) {
	w, conn := startWriter(t)
	ctx := context.Background()
	msgs := []wireMsg{
		{Kind: kindCall, ID: 1, Method: "m"},
		{Kind: kindCall, ID: 2, Method: "m"},
		{Kind: kindPing, ID: 3},
		{Kind: kindResp, ID: 4, Payload: []byte("x")},
	}
	if err := w.enqueue(ctx, msgs[0]); err != nil {
		t.Fatal(err)
	}
	first := <-conn.writes // the writer is now blocked inside Write
	if !bytes.Equal(first, frameOf(t, msgs[0])) {
		t.Fatalf("first write carried %d bytes, want exactly the first frame", len(first))
	}
	if dl := conn.deadline.Load(); dl == nil || dl.IsZero() {
		t.Error("write issued without a write deadline")
	}
	var want []byte
	for _, m := range msgs[1:] {
		if err := w.enqueue(ctx, m); err != nil {
			t.Fatal(err)
		}
		want = append(want, frameOf(t, m)...)
	}
	conn.release <- nil
	if got := <-conn.writes; !bytes.Equal(got, want) {
		t.Fatalf("frames queued during a write left as %d bytes, want all three in one %d-byte write, in order", len(got), len(want))
	}
	conn.release <- nil
}

func TestBatchWriterFlushesAtTheByteThreshold(t *testing.T) {
	w, conn := startWriter(t)
	ctx := context.Background()
	big := func(id uint64) wireMsg {
		return wireMsg{Kind: kindChunk, ID: id, Payload: make([]byte, batchBytes*5/8)}
	}
	if err := w.enqueue(ctx, wireMsg{Kind: kindPing}); err != nil {
		t.Fatal(err)
	}
	<-conn.writes
	for id := uint64(1); id <= 3; id++ {
		if err := w.enqueue(ctx, big(id)); err != nil {
			t.Fatal(err)
		}
	}
	conn.release <- nil
	// Two frames cross the threshold, so the batch goes without the third.
	want := append(frameOf(t, big(1)), frameOf(t, big(2))...)
	if got := <-conn.writes; !bytes.Equal(got, want) {
		t.Fatalf("batch of %d bytes, want the first two frames (%d bytes)", len(got), len(want))
	}
	conn.release <- nil
	if got := <-conn.writes; !bytes.Equal(got, frameOf(t, big(3))) {
		t.Fatalf("trailing write of %d bytes, want the third frame alone", len(got))
	}
	conn.release <- nil
}

func TestBatchWriterRefusesOversizedMessageBeforeQueueing(t *testing.T) {
	w := newBatchWriter(newGatedConn(), time.Minute) // no loop: nothing drains the queue
	err := w.enqueue(context.Background(), wireMsg{Kind: kindCall, Method: "big", Payload: make([]byte, transport.MaxFrameSize)})
	if !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if n := len(w.ch); n != 0 {
		t.Fatalf("%d frames queued by a refused enqueue", n)
	}
}

// fillQueue leaves w (which has no loop running) with a full queue, so the
// next enqueue blocks.
func fillQueue(t *testing.T, w *batchWriter) {
	t.Helper()
	for i := 0; i < cap(w.ch); i++ {
		if err := w.enqueue(context.Background(), wireMsg{Kind: kindPing}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBatchWriterStopFailsABlockedEnqueue(t *testing.T) {
	w := newBatchWriter(newGatedConn(), time.Minute)
	var onErr []error
	w.onError = func(err error) { onErr = append(onErr, err) }
	fillQueue(t, w)
	blocked := make(chan error)
	go func() { blocked <- w.enqueue(context.Background(), wireMsg{Kind: kindPing}) }()
	w.stop()
	if err := <-blocked; !errors.Is(err, transport.ErrWriterStopped) {
		t.Fatalf("blocked enqueue failed with %v, want ErrWriterStopped", err)
	}
	w.stop()
	if len(onErr) != 1 || !errors.Is(onErr[0], transport.ErrWriterStopped) {
		t.Fatalf("onError calls = %v, want exactly one ErrWriterStopped", onErr)
	}
}

func TestBatchWriterEnqueueIsBoundedByItsContext(t *testing.T) {
	w := newBatchWriter(newGatedConn(), time.Minute)
	fillQueue(t, w)
	ctx, cancel := context.WithCancel(context.Background())
	blocked := make(chan error)
	go func() { blocked <- w.enqueue(ctx, wireMsg{Kind: kindPing}) }()
	cancel()
	if err := <-blocked; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked enqueue failed with %v, want context.Canceled", err)
	}
}

func TestBatchWriterWriteErrorFiresOnErrorOnce(t *testing.T) {
	conn := newGatedConn()
	w := newBatchWriter(conn, time.Minute)
	var calls int
	var got error
	w.onError = func(err error) {
		calls++
		got = err
		w.stop() // what muxConn.fail does: must not recurse or deadlock
	}
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		w.loop()
	}()
	if err := w.enqueue(context.Background(), wireMsg{Kind: kindPing}); err != nil {
		t.Fatal(err)
	}
	<-conn.writes
	boom := errors.New("connection reset")
	conn.release <- boom
	<-exited
	w.stop()
	if calls != 1 || got != boom {
		t.Fatalf("onError called %d times with %v, want once with the write error", calls, got)
	}
}
