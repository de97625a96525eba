package tcp

import (
	"context"
	"errors"
	"net"
	"os"
	"sync"
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

// drainWrites is how many writes an enqueuer that finds the connection idle
// makes before it hands the frames still queued to a goroutine: its own, and
// then a few batches of frames that queued behind it. The queue is rarely
// deep enough to reach it: in a 20 s mixed read/write run, 806 of 340,457
// frames queued at all and 34 drains were handed off.
const drainWrites = 4

// batchWriter serializes one connection's outbound frames without a goroutine
// of its own. An enqueuer that finds the connection idle writes its frame
// itself, then flushes whatever queued behind it while it wrote, so requests
// are written by their callers and replies by their handlers. Frames that
// queue during a write are coalesced into one write of up to batchBytes, so
// syscalls amortize under pipelined load and no frame waits for company.
// Each enqueuer's frames reach the connection in the order it enqueued them.
type batchWriter struct {
	conn      net.Conn
	ch        chan *[]byte // frames queued behind the write in progress, in pooled buffers; sized to absorb a pipelined burst without blocking callers
	done      chan struct{}
	failed    atomic.Bool // flipped by the one call to fail that closes done
	writeWait time.Duration
	spawn     func(func()) bool // starts the goroutine an enqueuer hands the writer to; false once the owner is closing
	onError   func(error)       // optional: invoked once when the writer stops (write failure or stop)

	mu      sync.Mutex
	writing bool // some goroutine holds the writer; nobody else writes
}

func newBatchWriter(conn net.Conn, writeWait time.Duration, spawn func(func()) bool) *batchWriter {
	return &batchWriter{
		conn:      conn,
		ch:        make(chan *[]byte, 256),
		done:      make(chan struct{}),
		writeWait: writeWait,
		spawn:     spawn,
	}
}

// enqueue frames m into a pooled buffer and sends the frame: written now, by
// this goroutine, when the connection is idle, or queued behind the write in
// progress. Oversized messages are refused with transport.ErrFrameTooLarge
// before they reach the queue. It releases m's pooled body, sent or not: the
// caller hands it over, and the body is framed exactly once. The wait for
// queue space is bounded by ctx: stream chunks apply their per-chunk deadline
// here, so a stalled receiver fails the transfer instead of blocking the
// sender forever once the write queue backs up. So are this goroutine's
// writes: what ctx's deadline leaves unwritten goes to a goroutine (drain).
func (w *batchWriter) enqueue(ctx context.Context, m wireMsg) error {
	fp, err := frame(m)
	if err != nil {
		return err
	}
	until, _ := ctx.Deadline()
	if len(w.ch) == 0 && w.claim() {
		return w.drain(fp, until, drainWrites)
	}
	if err := w.push(ctx, fp); err != nil {
		return err
	}
	// The writer may have let go since: if so, write the queue here.
	if w.claim() {
		w.drain(nil, until, drainWrites)
	}
	return nil
}

// queue is enqueue for the serve loop's own frames (a pong, a stream
// refusal): it never writes on the calling goroutine, so the loop keeps
// reading while the connection's writes back up, and its frames keep their
// order. An idle writer goes to a goroutine.
func (w *batchWriter) queue(m wireMsg) error {
	fp, err := frame(m)
	if err == nil {
		err = w.push(context.Background(), fp)
	}
	if err == nil && w.claim() && w.keep() {
		w.handOff(nil)
	}
	return err
}

// frame frames m into a pooled buffer and releases m's body.
func frame(m wireMsg) (*[]byte, error) {
	fp := getBuf()
	f, err := appendFrame(*fp, m)
	m.release()
	if err != nil {
		putBuf(fp)
		return nil, err
	}
	*fp = f
	return fp, nil
}

// push queues fp behind the write in progress, waiting for space until ctx
// ends or the writer stops.
func (w *batchWriter) push(ctx context.Context, fp *[]byte) error {
	select {
	case w.ch <- fp:
		return nil
	case <-w.done:
		putBuf(fp)
		return transport.ErrWriterStopped
	case <-ctx.Done():
		putBuf(fp)
		return ctx.Err()
	}
}

// claim makes the caller the writer, if nobody is.
func (w *batchWriter) claim() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.writing || w.failed.Load() {
		return false
	}
	w.writing = true
	return true
}

// keep reports whether frames are queued for the writer to write, and lets
// the writer go when none are. Deciding both under one lock with claim is
// what leaves no frame queued with nobody to write it.
func (w *batchWriter) keep() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.ch) > 0 && !w.failed.Load() {
		return true
	}
	w.writing = false
	return false
}

// drain writes batch, if any, and then the queue until it is empty; the
// caller holds the writer. Its writes end by until (zero: no bound), and it
// makes at most writes of them (<= 0: no bound), so no enqueuer waits past its
// deadline or spends long writing other goroutines' frames. What is left then
// — the bytes a write could not finish by until, and the queue — goes to
// handOff. drain returns batch's write error: a later one belongs to senders
// that have returned, and reaches them through onError.
func (w *batchWriter) drain(batch *[]byte, until time.Time, writes int) error {
	var err error
	if batch != nil {
		batch, err = w.write(batch, until)
	}
	for n := 1; batch == nil; n++ {
		if !w.keep() {
			return err
		}
		if n == writes {
			break
		}
		batch, _ = w.write(<-w.ch, until) // keep saw it queued, and only the writer takes from ch
	}
	w.handOff(batch)
	return err
}

// handOff passes the writer, with batch if any, to a goroutine that drains
// with no bound and ends when the queue is empty or a write fails. It is the
// only goroutine the writer starts.
func (w *batchWriter) handOff(batch *[]byte) {
	if !w.spawn(func() { w.drain(batch, time.Time{}, 0) }) {
		w.fail(transport.ErrClosed)
	}
}

// stop terminates the writer. Queued frames not yet written never reach the
// wire, so the connection's pending calls must not wait out their deadlines:
// stopping fires onError (once, with the typed transport.ErrWriterStopped)
// exactly like a write failure, and the dial side's onError — muxConn.fail —
// resolves every in-flight exchange promptly.
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

// write sends batch and whatever is queued behind it in one write: it keeps
// appending queued frames to batch's buffer until the queue drains or the
// size threshold is hit, so a frame that goes alone is never copied. Each
// buffer goes back to the pool once its bytes are in the batch, the batch's
// own once it is written. Every write sets its own deadline, writeWait from
// now or until when that is sooner, so none is cleared. When until cuts the
// write short, write returns the bytes it left, in a pooled buffer, for the
// next writer to finish; any other failed write stops the writer.
func (w *batchWriter) write(batch *[]byte, until time.Time) (*[]byte, error) {
coalesce:
	for len(*batch) < batchBytes {
		select {
		case more := <-w.ch:
			*batch = append(*batch, *more...)
			putBuf(more)
		default:
			break coalesce
		}
	}
	deadline := time.Now().Add(w.writeWait)
	cut := !until.IsZero() && until.Before(deadline)
	if cut {
		deadline = until
	}
	_ = w.conn.SetWriteDeadline(deadline)
	n, err := w.conn.Write(*batch)
	if cut && errors.Is(err, os.ErrDeadlineExceeded) {
		rest := getBuf()
		*rest = append(*rest, (*batch)[n:]...)
		putBuf(batch)
		return rest, nil
	}
	putBuf(batch)
	if err != nil {
		w.fail(err)
	}
	return nil, err
}
