package transport

import (
	"context"
	"errors"
	"fmt"
)

// Chunked streaming state transfer: the contract that lets bulk state —
// replica pushes, split/merge hand-offs, range pulls — cross the wire in
// sequence-numbered chunk frames instead of one frame bounded by
// MaxFrameSize.
//
// A logical transfer is opened with OpenStream, fed with Chunk (each chunk
// at most MaxChunk bytes, carrying a strictly increasing sequence number on
// the wire), and finished with Commit, which delivers the terminal frame and
// blocks for the receiver's typed acknowledgment: the handler's decoded
// response, or its error. The receiver stages chunks into a buffer and hands
// the reassembled payload to its handler only when the terminal frame
// arrives — a transfer that loses a chunk, is aborted, or whose connection
// dies mid-stream never reaches the handler, so the receiver's state is
// bit-for-bit unchanged (the atomic-commit property the availability
// protocols rely on: a peer can crash mid-hand-off without leaving its
// successor holding half a range).
//
// The TCP transport implements the contract natively: its chunk frames
// interleave with ordinary multiplexed RPC frames on the pooled connection
// (ring stabilization keeps flowing beside a multi-second state transfer).
// simnet does not; it carries each call as one message. Protocol layers do
// not use Stream directly; they call CallBulk/CallBulkAsync, which have
// exactly Call's semantics with the frame-size bound removed on a streaming
// transport.

// DefaultChunkBytes is the chunk size used when a transport's configuration
// does not set its own: large enough to amortize per-frame overhead, small
// enough that protocol chatter interleaving between chunks never waits long
// behind one frame.
const DefaultChunkBytes = 256 << 10

// ErrStreamAborted reports a transfer that was torn down — by an explicit
// Abort, a dropped chunk, or receiver-side staging limits — before its
// terminal frame committed. The receiver has discarded all staged chunks.
var ErrStreamAborted = errors.New("transport: stream aborted")

// Stream is the sender half of one chunked transfer. A Stream is used by a
// single goroutine: Chunk calls are ordered, and exactly one of Commit or
// Abort ends the transfer.
type Stream interface {
	// MaxChunk returns the transport's chunk size: the largest data slice
	// one Chunk call may carry.
	MaxChunk() int
	// Chunk sends the next sequence-numbered chunk. The context bounds this
	// chunk's hand-off to the transport (the per-chunk deadline); a chunk
	// that cannot be queued fails the whole transfer. data is lent to the
	// stream until the next Chunk or Commit returns: a transport may hold a
	// transfer's first chunk back and send it with that call, so the caller
	// must not change it before then.
	Chunk(ctx context.Context, data []byte) error
	// Commit sends the terminal frame and blocks for the receiver's typed
	// acknowledgment: the handler's response value, or its error. The
	// receiver applies the transfer atomically before acknowledging.
	Commit(ctx context.Context) (any, error)
	// Abort tears the transfer down; the receiver discards staged chunks
	// without ever invoking its handler. Safe to call after a failure and
	// idempotent; Abort after Commit is a no-op.
	Abort(reason string)
}

// StreamOpener is implemented by transports with native chunked streaming.
// OpenStream starts one logical transfer to the handler registered at to for
// method; the receiver observes the reassembled payload as a single request,
// exactly as if it had arrived in one (unbounded) Call frame.
type StreamOpener interface {
	OpenStream(ctx context.Context, from, to Addr, method string) (Stream, error)
}

// Resumer is a declaration no stream implements: a transfer whose connection
// dies fails as ErrUnreachable, and a hand-off whose reply is lost is asked
// again by its protocol (Reask). It stays only because the benchmark's stream
// decorator still names it; the next change to the benchmark deletes both.
type Resumer interface {
	Resume(ctx context.Context) (int, error)
}

// asyncCommitter is implemented by a stream that can send its terminal frame
// now and leave the wait for the acknowledgment to the returned Pending, as
// TCP's does.
type asyncCommitter interface {
	CommitAsync(ctx context.Context) *Pending
}

// CallBulk performs a request/response whose payload and response may exceed
// MaxFrameSize. On a streaming transport the encoded payload travels as
// chunk frames and commits atomically at the receiver; on any other
// transport it degrades to a plain Call (bounded by the transport's frame
// limit, if it has one). Deadlines, fail-stop error identities and handler
// error propagation match Call: a connection lost under the transfer reads
// as ErrUnreachable, though the handler may have run, and a chunk that
// cannot be sent aborts the transfer.
//
// The payload is encoded once, here, and the chunks are slices of that one
// body. A body that fits one chunk costs no more than a Call: a transport may
// send it as a plain call frame (TCP does), which is safe because a response
// is unbounded for every call.
func CallBulk(t Transport, ctx context.Context, from, to Addr, method string, payload any) (any, error) {
	so, ok := t.(StreamOpener)
	if !ok {
		return t.Call(ctx, from, to, method, payload)
	}
	st, body, err := openBulk(so, ctx, from, to, method, payload)
	if err != nil {
		return nil, err
	}
	return transfer(ctx, st, body)
}

// CallBulkAsync is CallBulk issued asynchronously, so bulk transfers can be
// pipelined exactly like CallAsync pipelines plain calls (replica refresh
// fans one push out to k successors as one burst). A body that fits one chunk
// of a stream that commits asynchronously is sent before CallBulkAsync
// returns, as CallAsync sends a call; any other transfer runs on a goroutine.
func CallBulkAsync(t Transport, ctx context.Context, from, to Addr, method string, payload any) *Pending {
	so, ok := t.(StreamOpener)
	if !ok {
		return CallAsync(t, ctx, from, to, method, payload)
	}
	st, body, err := openBulk(so, ctx, from, to, method, payload)
	if err != nil {
		return Resolved(nil, err)
	}
	if ac, ok := st.(asyncCommitter); ok && len(body) <= chunkSize(st) {
		if err := feed(ctx, st, body); err != nil {
			return Resolved(nil, err)
		}
		return ac.CommitAsync(ctx)
	}
	return Go(func() (any, error) { return transfer(ctx, st, body) })
}

// openBulk encodes payload and opens the stream that carries it.
func openBulk(so StreamOpener, ctx context.Context, from, to Addr, method string, payload any) (Stream, []byte, error) {
	body, err := Encode(payload)
	if err != nil {
		return nil, nil, err
	}
	st, err := so.OpenStream(ctx, from, to, method)
	return st, body, err
}

// transfer sends body on st and commits it.
func transfer(ctx context.Context, st Stream, body []byte) (any, error) {
	if err := feed(ctx, st, body); err != nil {
		return nil, err
	}
	return st.Commit(ctx)
}

// feed sends body as st's chunks, aborting the transfer on a chunk error.
func feed(ctx context.Context, st Stream, body []byte) error {
	size := chunkSize(st)
	for off := 0; off < len(body); off += size {
		if err := st.Chunk(ctx, body[off:min(off+size, len(body))]); err != nil {
			st.Abort(err.Error())
			return err
		}
	}
	return nil
}

func chunkSize(st Stream) int {
	if size := st.MaxChunk(); size > 0 {
		return size
	}
	return DefaultChunkBytes
}

// JoinChunks validates a staged chunk sequence against the committed count
// and reassembles it. Shared by receiver-side implementations.
func JoinChunks(chunks [][]byte, total int) ([]byte, error) {
	if len(chunks) != total {
		return nil, fmt.Errorf("%w: committed %d chunks, staged %d", ErrStreamAborted, total, len(chunks))
	}
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	out := make([]byte, 0, n)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, nil
}
