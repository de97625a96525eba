package tcp

import (
	"context"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// batchBytes flushes the write batcher once this many bytes are buffered.
const batchBytes = 64 << 10

// maxPooledBuf is the largest buffer the package's pool keeps: an outsized
// state transfer (up to a whole 16 MiB frame) is dropped rather than held for
// the next small batch.
const maxPooledBuf = 4 * batchBytes

// batchWriter coalesces queued frames into as few syscalls as possible: it
// keeps appending while frames are queued and flushes when the queue drains
// or batchBytes are buffered, so it amortizes syscalls under pipelined load
// and never holds a frame back waiting for company.
type batchWriter struct {
	conn      net.Conn
	ch        chan *[]byte // whole frames in pooled buffers; sized to absorb a pipelined burst without blocking callers
	done      chan struct{}
	failed    atomic.Bool // flipped by the one call to fail that closes done
	writeWait time.Duration
	onError   func(error) // optional: invoked once when the writer stops (write failure or stop)
}

func newBatchWriter(conn net.Conn, writeWait time.Duration) *batchWriter {
	return &batchWriter{
		conn:      conn,
		ch:        make(chan *[]byte, 256),
		done:      make(chan struct{}),
		writeWait: writeWait,
	}
}

// enqueue frames m into a pooled buffer and queues the frame, rejecting
// oversized messages with transport.ErrFrameTooLarge before they reach the
// queue. It releases m's pooled body, queued or not: the caller hands it
// over, and the body is framed exactly once. The wait for queue space is
// bounded by ctx: stream chunks apply their per-chunk deadline here, so a
// stalled receiver fails the transfer instead of blocking the sender forever
// once the write queue backs up.
func (w *batchWriter) enqueue(ctx context.Context, m wireMsg) error {
	fp := getBuf()
	frame, err := appendFrame(*fp, m)
	m.release()
	if err != nil {
		putBuf(fp)
		return err
	}
	*fp = frame
	select {
	case w.ch <- fp:
		return nil
	case <-w.done:
		err = transport.ErrWriterStopped
	case <-ctx.Done():
		err = ctx.Err()
	}
	putBuf(fp)
	return err
}

// stop terminates the writer loop. Queued frames not yet written never reach
// the wire, so the connection's pending calls must not wait out their
// deadlines: stopping fires onError (once, with the typed
// transport.ErrWriterStopped) exactly like a write failure, and the dial
// side's onError — muxConn.fail — resolves every in-flight exchange
// promptly.
func (w *batchWriter) stop() {
	w.fail(transport.ErrWriterStopped)
}

// fail stops the writer and reports err to onError exactly once. The flag
// flips before onError runs, so the re-entrant stop() that muxConn.fail
// issues on its own writer terminates instead of deadlocking.
func (w *batchWriter) fail(err error) {
	if w.failed.CompareAndSwap(false, true) {
		close(w.done)
		if w.onError != nil {
			w.onError(err)
		}
	}
}

func (w *batchWriter) loop() {
	for {
		select {
		case frame := <-w.ch:
			if err := w.write(frame); err != nil {
				w.fail(err)
				return
			}
		case <-w.done:
			return
		}
	}
}

// write sends frame and whatever is queued behind it in one batch: it keeps
// appending queued frames to the first one's buffer until the queue drains or
// the size threshold is hit, so a frame that goes alone is never copied. Each
// buffer goes back to the pool once its bytes are in the batch, the batch's
// own once it is written.
func (w *batchWriter) write(batch *[]byte) error {
coalesce:
	for len(*batch) < batchBytes {
		select {
		case more := <-w.ch:
			*batch = append(*batch, *more...)
			putBuf(more)
		case <-w.done:
			break coalesce
		default:
			break coalesce
		}
	}
	_ = w.conn.SetWriteDeadline(time.Now().Add(w.writeWait))
	_, err := w.conn.Write(*batch)
	putBuf(batch)
	if err == nil {
		_ = w.conn.SetWriteDeadline(time.Time{})
	}
	return err
}
