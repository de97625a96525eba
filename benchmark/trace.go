package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datastore"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// Tracing from outside the program: a decorator around every endpoint's TCP
// transport records one span per dial-side call, stream and server-side
// handler, and the load generator opens one root span per client operation.
// The root's id travels in the context the client passes down, so dial-side
// spans name their parent; server-side and background spans carry method and
// endpoint only (there is no wire trace context yet) and are joined by method.

// spanKind says which boundary recorded a span.
type spanKind uint8

const (
	spanOp      spanKind = iota // root: one client operation, send to completion
	spanRPC                     // dial side of Call / CallAsync
	spanStream                  // dial side of OpenStream .. Commit
	spanHandler                 // server side of a registered handler
)

func (k spanKind) String() string {
	return [...]string{"op", "rpc", "stream", "handler"}[k]
}

// MarshalJSON writes the kind by name so the trace file reads without a key.
func (k spanKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch. Bytes is exact for streams (chunk bytes) and filled on the
// sampled subset of calls whose payloads were measured; zero otherwise.
type span struct {
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent,omitempty"`
	Kind   spanKind `json:"kind"`
	Name   string   `json:"name"`           // operation kind, or RPC method
	At     string   `json:"at"`             // endpoint that recorded it
	From   string   `json:"from,omitempty"` // handler spans: the caller
	Start  int64    `json:"start"`
	End    int64    `json:"end"`
	Bytes  int64    `json:"bytes,omitempty"`
	Failed bool     `json:"failed,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// sizeEvery is the payload-size sampling stride: measuring a payload costs a
// full encode, so only every sizeEvery-th call of a method pays it.
const sizeEvery = 32

// methodSizes accumulates the sampled payload sizes of one method.
type methodSizes struct {
	calls, sampled, reqBytes, respBytes atomic.Int64
}

// tracer collects the spans of one run in memory.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	sizes sync.Map // method -> *methodSizes

	// Scan segments answered to client operations, and the items they carried.
	segments, segmentItems atomic.Int64

	capMu      sync.Mutex
	smallReq   any // a captured ds.insertItem request
	segmentRsp any // the largest captured ds.scanSegment response
	segmentLen int
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<17)}
	t.on.Store(true)
	return t
}

func (t *tracer) now() int64    { return int64(time.Since(t.epoch)) }
func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile dumps every span as JSON.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.snapshot()); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

type spanCtxKey struct{}

// withSpan attaches a root span id to ctx; dial-side spans recorded under it
// name that id as their parent.
func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, id)
}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanCtxKey{}).(uint64)
	return id
}

// sample measures the encoded size of every sizeEvery-th exchange of a
// method, and keeps one insert request and the largest scan-segment response
// of the client's operations for the codec measurements.
func (t *tracer) sample(parent uint64, method string, req, resp any) int64 {
	v, _ := t.sizes.LoadOrStore(method, &methodSizes{})
	ms := v.(*methodSizes)
	if ms.calls.Add(1)%sizeEvery != 1 {
		return 0
	}
	var rq, rs int
	if b, err := transport.Encode(req); err == nil {
		rq = len(b)
	}
	if resp != nil {
		if b, err := transport.Encode(resp); err == nil {
			rs = len(b)
		}
	}
	ms.sampled.Add(1)
	ms.reqBytes.Add(int64(rq))
	ms.respBytes.Add(int64(rs))
	if parent == 0 {
		return int64(rq + rs) // not a client operation's call: nothing to keep
	}
	switch method {
	case "ds.insertItem":
		t.capMu.Lock()
		if t.smallReq == nil {
			t.smallReq = req
		}
		t.capMu.Unlock()
	case "ds.scanSegment":
		t.capMu.Lock()
		if rs > t.segmentLen {
			t.segmentRsp, t.segmentLen = resp, rs
		}
		t.capMu.Unlock()
	}
	return int64(rq + rs)
}

// countSegment tallies one scan segment answered to a client operation.
func (t *tracer) countSegment(parent uint64, method string, resp any) {
	if parent == 0 || method != "ds.scanSegment" {
		return
	}
	if seg, ok := resp.(datastore.SegmentResult); ok {
		t.segments.Add(1)
		t.segmentItems.Add(int64(len(seg.Items)))
	}
}

// meanBytes reports the sampled mean request+response size of a method and
// how many calls it saw.
func (t *tracer) meanBytes(method string) (mean float64, calls int64) {
	v, ok := t.sizes.Load(method)
	if !ok {
		return 0, 0
	}
	ms := v.(*methodSizes)
	n := ms.sampled.Load()
	if n == 0 {
		return 0, ms.calls.Load()
	}
	return float64(ms.reqBytes.Load()+ms.respBytes.Load()) / float64(n), ms.calls.Load()
}

// tracedTransport decorates one endpoint's TCP transport. Embedding keeps
// Send, Close, Deregister, Listen and WireStats working unchanged; Register,
// Call, CallAsync and OpenStream are wrapped with spans.
type tracedTransport struct {
	*tcp.Transport
	tr *tracer
	at string
}

func (t *tracer) wrap(inner *tcp.Transport, at string) *tracedTransport {
	return &tracedTransport{Transport: inner, tr: t, at: at}
}

// Register wraps the endpoint's handler with server-side spans.
func (t *tracedTransport) Register(addr transport.Addr, h transport.Handler) error {
	return t.Transport.Register(addr, func(from transport.Addr, method string, payload any) (any, error) {
		if !t.tr.on.Load() {
			return h(from, method, payload)
		}
		start := t.tr.now()
		resp, err := h(from, method, payload)
		t.tr.record(span{ID: t.tr.newID(), Kind: spanHandler, Name: method, At: string(addr), From: string(from),
			Start: start, End: t.tr.now(), Failed: err != nil})
		return resp, err
	})
}

// Call records one synchronous dial-side exchange.
func (t *tracedTransport) Call(ctx context.Context, from, to transport.Addr, method string, payload any) (any, error) {
	if !t.tr.on.Load() {
		return t.Transport.Call(ctx, from, to, method, payload)
	}
	start := t.tr.now()
	resp, err := t.Transport.Call(ctx, from, to, method, payload)
	end := t.tr.now()
	t.tr.countSegment(spanFrom(ctx), method, resp)
	t.tr.record(span{ID: t.tr.newID(), Parent: spanFrom(ctx), Kind: spanRPC, Name: method, At: t.at,
		Start: start, End: end, Bytes: t.tr.sample(spanFrom(ctx), method, payload, resp), Failed: err != nil})
	return resp, err
}

// CallAsync records one pipelined exchange; the span ends when the call
// resolves, not when it was issued.
func (t *tracedTransport) CallAsync(ctx context.Context, from, to transport.Addr, method string, payload any) *transport.Pending {
	if !t.tr.on.Load() {
		return t.Transport.CallAsync(ctx, from, to, method, payload)
	}
	start := t.tr.now()
	inner := t.Transport.CallAsync(ctx, from, to, method, payload)
	out := transport.NewPending()
	go func() {
		resp, err := inner.Result()
		end := t.tr.now()
		t.tr.countSegment(spanFrom(ctx), method, resp)
		t.tr.record(span{ID: t.tr.newID(), Parent: spanFrom(ctx), Kind: spanRPC, Name: method, At: t.at,
			Start: start, End: end, Bytes: t.tr.sample(spanFrom(ctx), method, payload, resp), Failed: err != nil})
		out.Resolve(resp, err)
	}()
	return out
}

// OpenStream records one bulk transfer from open to commit, with its exact
// chunk bytes.
func (t *tracedTransport) OpenStream(ctx context.Context, from, to transport.Addr, method string) (transport.Stream, error) {
	st, err := t.Transport.OpenStream(ctx, from, to, method)
	if err != nil || !t.tr.on.Load() {
		return st, err
	}
	return &tracedStream{Stream: st, t: t, method: method, parent: spanFrom(ctx), start: t.tr.now()}, nil
}

// tracedStream counts the chunk bytes of one transfer and closes its span at
// Commit or Abort.
type tracedStream struct {
	transport.Stream
	t      *tracedTransport
	method string
	parent uint64
	start  int64
	bytes  int64
	done   bool
}

func (s *tracedStream) Chunk(ctx context.Context, data []byte) error {
	s.bytes += int64(len(data))
	return s.Stream.Chunk(ctx, data)
}

func (s *tracedStream) finish(failed bool) {
	if s.done {
		return
	}
	s.done = true
	s.t.tr.record(span{ID: s.t.tr.newID(), Parent: s.parent, Kind: spanStream, Name: s.method, At: s.t.at,
		Start: s.start, End: s.t.tr.now(), Bytes: s.bytes, Failed: failed})
}

func (s *tracedStream) Commit(ctx context.Context) (any, error) {
	resp, err := s.Stream.Commit(ctx)
	if err == nil {
		s.finish(false)
	}
	return resp, err
}

func (s *tracedStream) Abort(reason string) {
	s.Stream.Abort(reason)
	s.finish(true)
}

// Resume keeps resumable transfers resumable through the decorator:
// transport.CallBulk looks for this method on the stream it was handed.
func (s *tracedStream) Resume(ctx context.Context) (int, error) {
	r, ok := s.Stream.(transport.Resumer)
	if !ok {
		return 0, fmt.Errorf("stream to %s is not resumable", s.method)
	}
	return r.Resume(ctx)
}

// attribute splits a parent span's duration between itself and its children.
// Children are clipped to the parent's interval, so a child that outlives its
// parent counts only while the parent ran. Self time is the part of the
// interval no child covers; covered time is shared equally among the
// children active at each instant, so overlapping pipelined calls never
// count an instant twice and self + Σ byName is the parent's duration (to
// within the nanoseconds integer division drops).
func attribute(parent span, children []span) (self int64, byName map[string]int64) {
	type edge struct {
		at    int64
		delta int
		name  string
	}
	byName = make(map[string]int64)
	var edges []edge
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi <= lo {
			continue
		}
		edges = append(edges, edge{lo, +1, c.Name}, edge{hi, -1, c.Name})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta // close before open at a tie
	})
	active := make(map[string]int)
	n := 0
	prev := parent.Start
	var covered int64
	for _, e := range edges {
		if seg := e.at - prev; seg > 0 && n > 0 {
			covered += seg
			for name, k := range active {
				byName[name] += seg * int64(k) / int64(n)
			}
		}
		prev = e.at
		active[e.name] += e.delta
		if active[e.name] == 0 {
			delete(active, e.name)
		}
		n += e.delta
	}
	return parent.dur() - covered, byName
}
