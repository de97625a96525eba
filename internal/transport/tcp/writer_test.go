package tcp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// gatedConn is a net.Conn whose Write announces itself, then blocks until the
// test lets it through: the batcher's coalescing can be observed write by
// write with no timing involved. Once closed, every Write fails at once.
type gatedConn struct {
	net.Conn             // nil: any method the writer is not meant to call panics
	writes   chan []byte // each Write's bytes, announced before it blocks
	release  chan error  // one receive per Write: its result
	closed   chan struct{}
	deadline atomic.Pointer[time.Time]
}

func newGatedConn() *gatedConn {
	return &gatedConn{writes: make(chan []byte), release: make(chan error), closed: make(chan struct{})}
}

func (c *gatedConn) Write(b []byte) (int, error) {
	select {
	case c.writes <- append([]byte(nil), b...):
	case <-c.closed:
		return 0, net.ErrClosed
	}
	select {
	case err := <-c.release:
		if err != nil {
			return 0, err
		}
		return len(b), nil
	case <-c.closed:
		return 0, net.ErrClosed
	}
}

func (c *gatedConn) SetWriteDeadline(t time.Time) error {
	c.deadline.Store(&t)
	return nil
}

// writerHarness drives a batchWriter over a gatedConn. The writer has no
// goroutine of its own, so an enqueue that may end up writing runs on a
// goroutine the harness starts; cleanup stops the writer, fails any write
// left blocked, and waits for those goroutines.
type writerHarness struct {
	w    *batchWriter
	conn *gatedConn
	wg   sync.WaitGroup
}

func newWriterHarness(t *testing.T) *writerHarness {
	h := &writerHarness{conn: newGatedConn()}
	h.w = newBatchWriter(h.conn, time.Minute, h.spawn)
	t.Cleanup(func() {
		h.w.stop()
		close(h.conn.closed)
		h.wg.Wait()
	})
	return h
}

// spawn starts the goroutine the writer hands itself to, which cleanup waits
// for.
func (h *writerHarness) spawn(f func()) bool {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		f()
	}()
	return true
}

// enqueue runs w.enqueue(ctx, m) on a goroutine of its own and returns its
// result, once it has one.
func (h *writerHarness) enqueue(ctx context.Context, m wireMsg) <-chan error {
	res := make(chan error, 1)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		res <- h.w.enqueue(ctx, m)
	}()
	return res
}

// busy starts an enqueue that writes its frame and is held inside the write.
func (h *writerHarness) busy(t *testing.T, m wireMsg) (first []byte, res <-chan error) {
	t.Helper()
	res = h.enqueue(context.Background(), m)
	return <-h.conn.writes, res
}

// fillQueue queues frames behind the held write until the queue is full, so
// the next enqueue blocks.
func (h *writerHarness) fillQueue(t *testing.T) {
	t.Helper()
	for i := 0; i < cap(h.w.ch); i++ {
		if err := h.w.enqueue(context.Background(), wireMsg{Kind: kindPing}); err != nil {
			t.Fatal(err)
		}
	}
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
	h := newWriterHarness(t)
	ctx := context.Background()
	msgs := []wireMsg{
		{Kind: kindCall, ID: 1, Method: "m"},
		{Kind: kindCall, ID: 2, Method: "m"},
		{Kind: kindPing, ID: 3},
		{Kind: kindResp, ID: 4, Payload: []byte("x")},
	}
	first, res := h.busy(t, msgs[0]) // its enqueuer is now blocked inside Write
	if !bytes.Equal(first, frameOf(t, msgs[0])) {
		t.Fatalf("first write carried %d bytes, want exactly the first frame", len(first))
	}
	if dl := h.conn.deadline.Load(); dl == nil || dl.IsZero() {
		t.Error("write issued without a write deadline")
	}
	var want []byte
	for _, m := range msgs[1:] {
		// The connection is busy: these queue, and return without writing.
		if err := h.w.enqueue(ctx, m); err != nil {
			t.Fatal(err)
		}
		want = append(want, frameOf(t, m)...)
	}
	h.conn.release <- nil
	if got := <-h.conn.writes; !bytes.Equal(got, want) {
		t.Fatalf("frames queued during a write left as %d bytes, want all three in one %d-byte write, in order", len(got), len(want))
	}
	h.conn.release <- nil
	if err := <-res; err != nil {
		t.Fatalf("the enqueuer that wrote: %v", err)
	}
	if dl := h.conn.deadline.Load(); dl == nil || dl.IsZero() {
		t.Error("write deadline cleared after a write: every write sets its own")
	}
}

func TestBatchWriterFlushesAtTheByteThreshold(t *testing.T) {
	h := newWriterHarness(t)
	ctx := context.Background()
	big := func(id uint64) wireMsg {
		return wireMsg{Kind: kindChunk, ID: id, Payload: make([]byte, batchBytes*5/8)}
	}
	_, res := h.busy(t, wireMsg{Kind: kindPing})
	for id := uint64(1); id <= 3; id++ {
		if err := h.w.enqueue(ctx, big(id)); err != nil {
			t.Fatal(err)
		}
	}
	h.conn.release <- nil
	// Two frames cross the threshold, so the batch goes without the third.
	want := append(frameOf(t, big(1)), frameOf(t, big(2))...)
	if got := <-h.conn.writes; !bytes.Equal(got, want) {
		t.Fatalf("batch of %d bytes, want the first two frames (%d bytes)", len(got), len(want))
	}
	h.conn.release <- nil
	if got := <-h.conn.writes; !bytes.Equal(got, frameOf(t, big(3))) {
		t.Fatalf("trailing write of %d bytes, want the third frame alone", len(got))
	}
	h.conn.release <- nil
	if err := <-res; err != nil {
		t.Fatalf("the enqueuer that wrote: %v", err)
	}
}

func TestBatchWriterRefusesOversizedMessageBeforeQueueing(t *testing.T) {
	h := newWriterHarness(t)
	err := h.w.enqueue(context.Background(), wireMsg{Kind: kindCall, Method: "big", Payload: make([]byte, transport.MaxFrameSize)})
	if !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	h.w.mu.Lock()
	defer h.w.mu.Unlock()
	if n := len(h.w.ch); n != 0 || h.w.writing {
		t.Fatalf("a refused enqueue left %d frames queued (writing = %t)", n, h.w.writing)
	}
}

func TestBatchWriterStopFailsABlockedEnqueue(t *testing.T) {
	h := newWriterHarness(t)
	var onErr []error
	h.w.onError = func(err error) { onErr = append(onErr, err) }
	_, writer := h.busy(t, wireMsg{Kind: kindPing})
	h.fillQueue(t)
	blocked := h.enqueue(context.Background(), wireMsg{Kind: kindPing})
	h.w.stop()
	if err := <-blocked; !errors.Is(err, transport.ErrWriterStopped) {
		t.Fatalf("blocked enqueue failed with %v, want ErrWriterStopped", err)
	}
	h.w.stop()
	if len(onErr) != 1 || !errors.Is(onErr[0], transport.ErrWriterStopped) {
		t.Fatalf("onError calls = %v, want exactly one ErrWriterStopped", onErr)
	}
	// The write in progress finishes, and its enqueuer leaves the queue
	// unwritten.
	h.conn.release <- nil
	if err := <-writer; err != nil {
		t.Fatalf("the enqueuer whose frame was written: %v", err)
	}
	select {
	case b := <-h.conn.writes:
		t.Fatalf("a stopped writer wrote %d more bytes", len(b))
	default:
	}
}

func TestBatchWriterEnqueueIsBoundedByItsContext(t *testing.T) {
	h := newWriterHarness(t)
	h.busy(t, wireMsg{Kind: kindPing})
	h.fillQueue(t)
	ctx, cancel := context.WithCancel(context.Background())
	blocked := h.enqueue(ctx, wireMsg{Kind: kindPing})
	cancel()
	if err := <-blocked; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked enqueue failed with %v, want context.Canceled", err)
	}
}

func TestBatchWriterWriteErrorFiresOnErrorOnce(t *testing.T) {
	h := newWriterHarness(t)
	var calls int
	var got error
	h.w.onError = func(err error) {
		calls++
		got = err
		h.w.stop() // what muxConn.fail does: must not recurse or deadlock
	}
	_, res := h.busy(t, wireMsg{Kind: kindPing})
	boom := errors.New("connection reset")
	h.conn.release <- boom
	if err := <-res; err != boom {
		t.Fatalf("the enqueuer whose write failed got %v, want the write error", err)
	}
	h.w.stop()
	if calls != 1 || got != boom {
		t.Fatalf("onError called %d times with %v, want once with the write error", calls, got)
	}
}

// Frames from many concurrent enqueuers reach the connection each exactly
// once and, per enqueuer, in the order it enqueued them: inbound.respond
// relies on that to land a chunk run before its terminal frame.
func TestBatchWriterKeepsEachEnqueuersOrder(t *testing.T) {
	const senders, frames = 8, 300
	h := newWriterHarness(t)
	var (
		mu   sync.Mutex
		wire []byte
	)
	go func() { // the peer: reads every write, sometimes slowly
		for n := 0; ; n++ {
			select {
			case b := <-h.conn.writes:
				mu.Lock()
				wire = append(wire, b...)
				mu.Unlock()
				if n%7 == 0 {
					time.Sleep(50 * time.Microsecond)
				}
				h.conn.release <- nil
			case <-h.conn.closed:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				m := wireMsg{Kind: kindCall, ID: uint64(i), Method: fmt.Sprint(s), Payload: make([]byte, i%5*1000)}
				if err := h.w.enqueue(context.Background(), m); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for { // a hand-off may still be writing the last frames
		h.w.mu.Lock()
		idle := !h.w.writing
		h.w.mu.Unlock()
		if idle {
			break
		}
		runtime.Gosched()
	}
	mu.Lock()
	r := bytes.NewReader(wire)
	mu.Unlock()
	next := make(map[string]uint64)
	for r.Len() > 0 {
		m, err := readMsg(r)
		if err != nil {
			t.Fatal(err)
		}
		if m.ID != next[m.Method] {
			t.Fatalf("sender %s: frame %d reached the wire after frame %d", m.Method, m.ID, next[m.Method]-1)
		}
		next[m.Method]++
		m.release()
	}
	for s := 0; s < senders; s++ {
		if n := next[fmt.Sprint(s)]; n != frames {
			t.Fatalf("sender %d: %d of %d frames reached the wire", s, n, frames)
		}
	}
}

// queue never writes on its caller, the serve loop: it returns while the
// write of its frame is still held, and frames it queues keep their order.
func TestBatchWriterQueueLeavesTheWriteToAGoroutine(t *testing.T) {
	h := newWriterHarness(t)
	a, b := wireMsg{Kind: kindPong, ID: 1}, wireMsg{Kind: kindPong, ID: 2}
	if err := h.w.queue(a); err != nil {
		t.Fatal(err)
	}
	first := <-h.conn.writes // held: nobody has released it
	if err := h.w.queue(b); err != nil {
		t.Fatal(err)
	}
	h.conn.release <- nil
	second := <-h.conn.writes
	h.conn.release <- nil
	if !bytes.Equal(append(first, second...), append(frameOf(t, a), frameOf(t, b)...)) {
		t.Fatal("queued frames reached the wire out of order")
	}
}

// An enqueuer's writes end by its context's deadline: against a peer that
// reads a few bytes and then stops, enqueue returns by the deadline, and a
// goroutine finishes the frame from the byte the cut write stopped at, then
// writes what queued behind it.
func TestBatchWriterHandsOffWhatItsDeadlineLeaves(t *testing.T) {
	local, peer := net.Pipe()
	var wg sync.WaitGroup
	t.Cleanup(wg.Wait) // runs last: closing the pipe ends a blocked write
	t.Cleanup(func() { local.Close(); peer.Close() })
	w := newBatchWriter(local, time.Minute, func(f func()) bool {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
		return true
	})
	t.Cleanup(w.stop)
	first := wireMsg{Kind: kindCall, ID: 1, Method: "m", Payload: make([]byte, 4096)}
	second := wireMsg{Kind: kindCall, ID: 2, Method: "m"}
	want := append(frameOf(t, first), frameOf(t, second)...)

	got := make([]byte, 10)
	read := make(chan error, 1)
	go func() { // the peer takes 10 bytes, then stops reading
		_, err := io.ReadFull(peer, got)
		read <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := w.enqueue(ctx, first); err != nil {
		t.Fatalf("enqueue cut by its deadline: %v, want nil (the rest is handed off)", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("enqueue returned after %v, past its 50ms deadline", took)
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if err := w.enqueue(context.Background(), second); err != nil {
		t.Fatal(err)
	}
	rest := make([]byte, len(want)-len(got))
	if _, err := io.ReadFull(peer, rest); err != nil {
		t.Fatal(err)
	}
	if got = append(got, rest...); !bytes.Equal(got, want) {
		t.Fatal("the handed-off write did not resume where the cut write stopped")
	}
}
