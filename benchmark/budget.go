package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// agg is a count and a sum: of span durations in nanoseconds, or of bytes.
type agg struct {
	n   int
	sum int64
}

func (a agg) add(v int64) agg { return agg{a.n + 1, a.sum + v} }

// meanUs is the mean of durations in microseconds.
func (a agg) meanUs() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.n) / 1e3
}

// spanStats is what the spans of the measured phases add up to.
type spanStats struct {
	ops         []span            // root spans, one per client operation
	children    map[uint64][]span // dial-side spans by the root span they belong to
	clientRTT   map[string]agg    // dial-side spans under a client operation, by method
	handlerFrom map[string]agg    // server-side spans of the client's requests, by method
	handlerAll  map[string]agg    // every server-side span, by layer
	background  map[string]int    // dial-side spans of no client operation, by layer
	pushes      agg               // rep.push streams: count and bytes
	wireBytes   float64           // every dial-side byte: streams exact, calls by sampled mean
	traced      time.Duration     // how long the tracer was on inside the measured phases
}

// layerOf is the module a method belongs to: the prefix before the dot.
func layerOf(method string) string { return method[:strings.IndexByte(method+".", '.')] }

func (r *run) gatherSpans() *spanStats {
	st := &spanStats{
		children:    make(map[uint64][]span),
		clientRTT:   make(map[string]agg),
		handlerFrom: make(map[string]agg),
		handlerAll:  make(map[string]agg),
		background:  make(map[string]int),
		traced:      r.stepR.elapsed + r.step2R.elapsed,
	}
	for _, sl := range r.closedSlices(true) {
		st.traced += sl.res.elapsed
	}
	for _, s := range r.tracer.snapshot() {
		if s.Start < r.measureFrom {
			continue
		}
		switch s.Kind {
		case spanOp:
			st.ops = append(st.ops, s)
		case spanHandler:
			st.handlerAll[layerOf(s.Name)] = st.handlerAll[layerOf(s.Name)].add(s.dur())
			if s.From == clientID {
				st.handlerFrom[s.Name] = st.handlerFrom[s.Name].add(s.dur())
			}
		default:
			if s.Kind == spanStream {
				st.wireBytes += float64(s.Bytes)
				if s.Name == "rep.push" {
					st.pushes = st.pushes.add(s.Bytes)
				}
			} else if m, _ := r.tracer.meanBytes(s.Name); m > 0 {
				st.wireBytes += m
			}
			if s.Parent == 0 {
				st.background[layerOf(s.Name)]++
				continue
			}
			st.children[s.Parent] = append(st.children[s.Parent], s)
			st.clientRTT[s.Name] = st.clientRTT[s.Name].add(s.dur())
		}
	}
	return st
}

// spanMetrics reads the per-layer numbers off the spans of the measured
// phases and prints the latency budget of each operation kind.
func (r *run) spanMetrics() {
	rep, st := r.rep, r.gatherSpans()
	mean := func(name string, a agg) { rep.setN(name, a.meanUs(), a.n) }
	perSecond := func(name string, n int) { rep.set(name, float64(n)/st.traced.Seconds()) }

	mean("router.next_hop_rtt_us", st.clientRTT["rt.nextHop"])
	mean("router.next_hop_handler_us", st.handlerFrom["rt.nextHop"])
	perSecond("router.bg_calls_per_s", st.background["rt"])
	mean("datastore.insert_handler_us", st.handlerFrom["ds.insertItem"])
	mean("datastore.delete_handler_us", st.handlerFrom["ds.deleteItem"])
	mean("datastore.scan_segment_handler_us", st.handlerFrom["ds.scanSegment"])
	mean("datastore.insert_rtt_us", st.clientRTT["ds.insertItem"])
	mean("datastore.scan_segment_rtt_us", st.clientRTT["ds.scanSegment"])
	mean("replication.replica_items_rtt_us", st.clientRTT["rep.scan"])
	mean("replication.push_handler_us", st.handlerAll["rep"])
	perSecond("replication.push_per_s", st.pushes.n)
	mean("ring.handler_us", st.handlerAll["ring"])
	perSecond("ring.bg_calls_per_s", st.background["ring"])
	if m, n := r.tracer.meanBytes("gossip.exchange"); n > 0 {
		rep.set("gossip.exchange_bytes", m)
	}
	if segs := r.tracer.segments.Load(); segs > 0 {
		rep.setN("datastore.items_per_segment", float64(r.tracer.segmentItems.Load())/float64(segs), int(segs))
	}

	// Loaded wire time per client RPC: round trip minus the handler's mean for
	// that method.
	var wire, rpcs float64
	for m, a := range st.clientRTT {
		if w := a.meanUs() - st.handlerFrom[m].meanUs(); w > 0 {
			wire += w * float64(a.n)
		}
		rpcs += float64(a.n)
	}
	if rpcs > 0 {
		rep.setN("tcp.wire_us_per_rpc", wire/rpcs, int(rpcs))
	}

	r.budgets(st)

	// Span counts cover the time the tracer was on; client counters cover all
	// of the measured phases. Scale to the same window.
	muts := float64(r.end.cli.Inserts + r.end.cli.Deletes - r.base.cli.Inserts - r.base.cli.Deletes)
	if share := st.traced.Seconds() / r.measured.Seconds(); muts > 0 {
		rep.set("replication.push_bytes_per_mutation", float64(st.pushes.sum)/(muts*share))
	}
	if len(st.ops) > 0 {
		rep.set("transport.bytes_per_op", st.wireBytes/float64(len(st.ops)))
	}
}

// budget sums the root spans of one operation kind; times in nanoseconds.
type budget struct {
	n     int
	total float64
	self  float64
	cover map[string]float64 // time attributed to each method's RPCs
	calls map[string]int
}

// budgets prints, for each operation kind, where the mean duration of a root
// span goes: the client's self time and the time its RPCs cover, attributed
// to methods without counting overlapped instants twice. Of a method's
// covered time, the server-side handler mean explains its share, and an idle
// round trip (the echo measurement, plus the codec on a segment-sized
// response) explains the wire; what is left is waiting that no layer's own
// cost accounts for, and its share of all operations' time is
// client.unattributed_share.
func (r *run) budgets(st *spanStats) {
	rep := r.rep
	value := func(name string) float64 { return rep.Metrics[name].Value }
	idleWire := func(method string) float64 {
		w := value("tcp.call_rtt_us")
		if mb, _ := r.tracer.meanBytes(method); method == "ds.scanSegment" && mb > 0 && value("transport.bytes_segment") > 0 {
			codec := (value("transport.encode_ns_segment") + value("transport.decode_ns_segment")) / 1e3
			w += codec * mb / value("transport.bytes_segment")
		}
		return w
	}

	byKind := map[string]*budget{}
	for _, o := range st.ops {
		kind := "mutate"
		if o.Name == opQuery.String() {
			kind = "query"
		}
		b := byKind[kind]
		if b == nil {
			b = &budget{cover: map[string]float64{}, calls: map[string]int{}}
			byKind[kind] = b
		}
		self, by := attribute(o, st.children[o.ID])
		b.n++
		b.total += float64(o.dur())
		b.self += float64(self)
		for m, c := range by {
			b.cover[m] += float64(c)
		}
		for _, c := range st.children[o.ID] {
			b.calls[c.Name]++
		}
	}

	var totalAll, unattrAll float64
	for _, kind := range []string{"query", "mutate"} {
		b := byKind[kind]
		if b == nil {
			continue
		}
		n := float64(b.n)
		meanTotal := b.total / n / 1e3
		line := fmt.Sprintf("budget %s: mean %.1f us over %d ops = client self %.1f", kind, meanTotal, b.n, b.self/n/1e3)
		methods := make([]string, 0, len(b.cover))
		for m := range b.cover {
			methods = append(methods, m)
		}
		sort.Strings(methods)
		unattr := 0.0
		for _, m := range methods {
			cover := b.cover[m] / n / 1e3
			handlerShare, explained := 0.0, 1.0
			if rtt := st.clientRTT[m].meanUs(); rtt > 0 {
				handlerShare = min(1, st.handlerFrom[m].meanUs()/rtt)
				explained = min(1, (st.handlerFrom[m].meanUs()+idleWire(m))/rtt)
			}
			unattr += cover * (1 - explained)
			line += fmt.Sprintf(" + %s [%.2f calls: handler %.1f, wire %.1f of which idle %.1f]", m,
				float64(b.calls[m])/n, cover*handlerShare, cover*(1-handlerShare), cover*(explained-handlerShare))
		}
		line += fmt.Sprintf("; unattributed %.1f us (%.0f %%)", unattr, 100*unattr/meanTotal)
		rep.Notes = append(rep.Notes, line)
		rep.setN("client."+kind+"_self_us", b.self/n/1e3, b.n)
		totalAll += b.total / 1e3
		unattrAll += unattr * n
		if kind == "query" {
			rep.setN("client.segments_per_query", float64(b.calls["ds.scanSegment"])/n, b.n)
		}
	}
	if totalAll > 0 {
		rep.set("client.unattributed_share", unattrAll/totalAll)
	}
}
