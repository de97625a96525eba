package main

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/datastore"
	"repro/internal/history"
	"repro/internal/keyspace"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// benchEcho is the payload of the transport measurements' echo handler.
type benchEcho struct{ Body []byte }

func init() { transport.RegisterMessage(benchEcho{}) }

// perLayer fills the per-layer metrics of a traced run: what the spans say
// about each layer under the workload, and direct timed calls into each layer
// with the cluster idle. A layer the workload does not use reports zero.
func (r *run) perLayer(ctx context.Context) error {
	for _, d := range perLayer {
		if _, ok := r.rep.Metrics[d.name]; !ok {
			r.rep.set(d.name, 0)
		}
	}
	r.processMetrics()
	if err := r.directMetrics(ctx); err != nil {
		return err
	}
	r.counterMetrics()
	r.spanMetrics()
	return nil
}

// iters scales a direct measurement's repeat count down on a smoke run.
func (r *run) iters(n int) int {
	if r.cfg.spec.smokeRun {
		return n/20 + 2
	}
	return n
}

// timePer runs f n times and returns the mean time of one call.
func timePer(n int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(start) / time.Duration(n)
}

// medianOf runs f n times and returns the median time of one call: the
// direct measurements share the machine with the cluster's background work,
// and a median shrugs off the calls a stabilisation round landed on.
func medianOf(n int, f func()) time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		start := time.Now()
		f()
		d[i] = time.Since(start)
	}
	return sortedDurations(d)[n/2]
}

// processMetrics reports what the process as a whole spent, from the
// untraced slices of the closed phase and an idle window after it.
func (r *run) processMetrics() {
	rep := r.rep
	plain, traced := r.closedSlices(false), r.closedSlices(true)
	alloc, ops := perOp(plain, func(sl *slice) float64 { return float64(sl.allocBytes) / 1024 })
	rep.setN("process.alloc_kb_per_op", alloc, ops)
	mallocs, _ := perOp(plain, func(sl *slice) float64 { return float64(sl.mallocs) })
	rep.setN("process.mallocs_per_op", mallocs, ops)
	if base, _ := cpuPerOp(plain); base > 0 {
		with, _ := cpuPerOp(traced)
		rep.set("process.trace_overhead_pct", 100*(with-base)/base)
	}
	// Goodput of the last third of the closed phase over the first, from the
	// untraced slices: below one, throughput decays as the run goes on.
	if third := len(plain) / 3; third > 0 {
		first, _ := goodput(plain[:third])
		last, _ := goodput(plain[len(plain)-third:])
		if first > 0 {
			rep.set("process.goodput_tail_ratio", last/first)
		}
	}

	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rep.set("process.gc_pause_ms", float64(m.PauseTotalNs-r.gcPauseBase)/1e6)
	rep.set("process.heap_mb_end", float64(m.HeapAlloc)/(1<<20))
	rep.set("process.goroutines_end", float64(runtime.NumGoroutine()))

	// Idle window: no client load, so this is what stabilisation, replica
	// refresh, router refresh, leases and gossip cost on their own.
	idle := time.Duration(r.iters(1500)) * time.Millisecond
	before := cpuTime()
	time.Sleep(idle)
	rep.set("process.idle_cpu_share", float64(cpuTime()-before)/float64(idle)/float64(r.nproc))
}

// counterMetrics reports the counters the layers export, differenced over
// the measured phases where they are cumulative.
func (r *run) counterMetrics() {
	rep := r.rep
	d, b := r.end.cli, r.base.cli
	ops := float64(d.Inserts + d.Deletes + d.Queries - b.Inserts - b.Deletes - b.Queries)
	muts := float64(d.Inserts + d.Deletes - b.Inserts - b.Deletes)
	per := func(name string, end, base uint64) {
		if ops > 0 {
			rep.set(name, float64(end-base)/ops)
		}
	}
	per("client.descents_per_op", d.Descents, b.Descents)
	per("client.retries_per_op", d.Retries, b.Retries)
	per("client.stale_routes_per_op", d.StaleRoutes, b.StaleRoutes)
	per("client.replica_reads_per_op", d.ReplicaReads, b.ReplicaReads)
	if n := d.Descents - b.Descents; n > 0 {
		rep.setN("client.hops_per_descent", float64(d.Hops-b.Hops)/float64(n), int(n))
	}
	if look := d.Cache.Hits + d.Cache.Misses - b.Cache.Hits - b.Cache.Misses; look > 0 {
		rep.setN("routecache.hit_ratio", float64(d.Cache.Hits-b.Cache.Hits)/float64(look), int(look))
	}
	rep.set("routecache.invalidations", float64(d.Cache.Invalidations-b.Cache.Invalidations))
	rep.set("routecache.evictions", float64(d.Cache.Evictions-b.Cache.Evictions))

	var rejects, stepDowns, adoptions, sigRejects, hsRejects, resumes uint64
	for _, n := range r.cl.nodes {
		ws := n.tcp.WireStats()
		hsRejects += ws.HandshakeRejects
		resumes += ws.StreamResumes
		if n.dead {
			continue
		}
		p := n.sa.CurrentPeer()
		rejects += p.Store.StaleEpochRejects.Load()
		stepDowns += p.Store.StepDowns.Load()
		adoptions += p.Store.LeaseAdoptions.Load()
		sigRejects += p.Rep.SigRejects.Load()
		if p.Gossip != nil {
			sigRejects += p.Gossip.SigRejects()
		}
	}
	rep.set("datastore.stale_epoch_rejects", float64(rejects))
	rep.set("datastore.step_downs", float64(stepDowns))
	rep.set("datastore.lease_adoptions", float64(adoptions))
	rep.set("replication.sig_rejects", float64(sigRejects))
	rep.set("auth.handshake_rejects", float64(hsRejects))
	rep.set("tcp.stream_resumes", float64(resumes))

	rep.setN("datastore.split_ms", median(r.cl.splitMs), len(r.cl.splitMs))
	var revive []float64
	for _, k := range r.kills {
		revive = append(revive, ms(k.revive))
	}
	rep.setN("datastore.revive_ms", median(revive), len(revive))

	rep.set("history.events_end", float64(r.end.events))
	if muts > 0 {
		rep.set("history.events_per_mutation", float64(r.end.events-r.base.events)/muts)
	}
	if r.cfg.spec.wal && muts > 0 {
		records := float64(r.end.walRecords - r.base.walRecords)
		rep.set("storage.wal_records_per_mutation", records/muts)
		// Inserts carry the payload; deletes carry a key only.
		userBytes := float64(d.Inserts-b.Inserts)*(payloadBytes+8) + float64(d.Deletes-b.Deletes)*8
		rep.set("storage.wal_bytes_per_user_byte", records*r.walRecordBytes/userBytes)
		rep.set("storage.snapshots", float64(r.end.snapshots-r.base.snapshots))
		rep.set("storage.load_ms", ms(r.loadTime))
	}
	rep.set("storage.lost_acked_writes", float64(rep.LostAckedWrites))

	joins := make([]float64, len(r.cl.joinTime))
	for i, j := range r.cl.joinTime {
		joins[i] = ms(j)
	}
	rep.setN("ring.join_ms", median(joins), len(joins))
	if r.cfg.spec.secured {
		rep.set("gossip.rounds_per_s", float64(r.end.rounds-r.base.rounds)/r.measured.Seconds())
		rep.set("gossip.members", float64(r.cl.nodes[0].sa.CurrentPeer().Gossip.MemberCount()))
	}

	// The fixed rates' verdict: the higher of R and 2R whose step kept 99 % of
	// its operations inside the limit and whose generator did not fall behind
	// by more than the limit (no growing backlog).
	ok := func(res *result) bool {
		lag, _, err := percentile(res.lag, 0.95)
		return err == nil && lag < r.cfg.spec.slo &&
			float64(res.failed+res.incorrect+res.late) <= 0.01*float64(res.attempted)
	}
	switch {
	case ok(r.step2R):
		rep.set("client.rate_ok_ops_s", 2*r.cfg.spec.rate)
	case ok(r.stepR):
		rep.set("client.rate_ok_ops_s", r.cfg.spec.rate)
	}
	rep.setPercentile("client.sched_lag_p99_ms", r.stepR.lag, 0.99)
	rep.setPercentile("client.insert_p50_us", r.stepR.lat(opInsert), 0.50)
	rep.setPercentile("client.delete_p50_us", r.stepR.lat(opDelete), 0.50)
}

// directMetrics times calls into single layers with the cluster idle.
func (r *run) directMetrics(ctx context.Context) error {
	rep := r.rep
	rng := rand.New(rand.NewSource(r.cfg.seed + 9))
	maxKey := int64(r.drv.oracle.preloadMax)

	// routecache: lookups on the client's cache as the run left it.
	cache := r.cli.Cache()
	rep.set("routecache.lookup_ns", float64(timePer(r.iters(200_000), func() {
		cache.Lookup(keyspace.Key(rng.Int63n(maxKey)))
	})))

	// history: one append, alone and from nproc goroutines.
	appends := r.iters(100_000)
	log := history.NewLog()
	rep.set("history.append_ns_1", float64(timePer(appends, func() { log.Added("peer", 1) })))
	log = history.NewLog()
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < r.nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < appends/r.nproc; i++ {
				log.Added("peer", 1)
			}
		}()
	}
	wg.Wait()
	rep.set("history.append_ns_nproc", float64(time.Since(start))/float64(appends))

	// core: the in-ring twin of the client's scan engine, from the seed peer.
	seedPeer := r.cl.nodes[0].sa.CurrentPeer()
	coreQuery := func(span int64) func() {
		return func() {
			lo := keyspace.Key(keyStep + rng.Int63n(maxKey-span))
			_, _, _ = seedPeer.RangeQueryUnjournaled(ctx, keyspace.ClosedInterval(lo, lo+keyspace.Key(span)))
		}
	}
	rep.set("core.query_p50_us", us(medianOf(r.iters(200), coreQuery(narrowSpan))))
	rep.set("core.query_wide_p50_us", us(medianOf(r.iters(40), coreQuery(int64(r.cfg.spec.fit(wideSpan))))))

	r.codecMetrics()
	if err := r.tcpMetrics(ctx, nil, "tcp."); err != nil {
		return err
	}
	if r.cfg.spec.secured {
		if err := r.tcpMetrics(ctx, r.cl.key, "auth."); err != nil {
			return err
		}
		id, err := auth.NewIdentity()
		if err != nil {
			return err
		}
		sig := id.SignAdvert("peer", 1, 2, 3)
		rep.set("auth.sign_advert_us", us(timePer(r.iters(500), func() { sig = id.SignAdvert("peer", 1, 2, 3) })))
		ring := auth.NewKeyring()
		rep.set("auth.verify_advert_us", us(timePer(r.iters(500), func() { _ = ring.VerifyAdvert("peer", 1, 2, 3, sig) })))
		g := seedPeer.Gossip
		rep.set("gossip.round_us", us(medianOf(r.iters(10), func() { g.RunRound(ctx) })))
	}
	if r.cfg.spec.wal {
		return r.storageMetrics()
	}
	return nil
}

// codecMetrics times the wire codec on payloads the traced run captured: one
// insert request and the largest scan-segment response.
func (r *run) codecMetrics() {
	rep := r.rep
	small, segment := r.tracer.smallReq, r.tracer.segmentRsp
	if small == nil { // a read-only workload sends no insert: time the item it would carry
		small = datastore.Item{Key: keyStep, Payload: payloadFor(keyStep)}
	}
	codec := func(v any, n int, enc, dec, size string) []byte {
		b, err := transport.Encode(v)
		if err != nil {
			return nil
		}
		rep.set(size, float64(len(b)))
		rep.set(enc, float64(timePer(n, func() { _, _ = transport.Encode(v) })))
		rep.set(dec, float64(timePer(n, func() { _, _ = transport.Decode(b) })))
		return b
	}
	b := codec(small, r.iters(2000), "transport.encode_ns_small", "transport.decode_ns_small", "transport.bytes_small")
	if segment != nil {
		codec(segment, r.iters(40), "transport.encode_ns_segment", "transport.decode_ns_segment", "transport.bytes_segment")
	}
	var buf bytes.Buffer
	rep.set("transport.frame_roundtrip_ns", float64(timePer(r.iters(20_000), func() {
		buf.Reset()
		_ = transport.WriteFrame(&buf, b)
		_, _ = transport.ReadFrame(&buf)
	})))
}

// tcpMetrics measures the TCP transport on a fresh pair of endpoints with an
// echo handler: round trip, pipelined throughput, first call on a fresh
// connection (dial, and with a cluster key the handshake), bulk stream rate.
// With a key it reports only what the handshake changes.
func (r *run) tcpMetrics(ctx context.Context, key []byte, prefix string) error {
	rep := r.rep
	server := tcp.New(tcp.Config{ClusterKey: key})
	defer server.Close()
	addr, err := server.Listen("127.0.0.1:0", func(_ transport.Addr, _ string, payload any) (any, error) {
		if e, ok := payload.(benchEcho); ok && len(e.Body) > 1<<20 {
			return benchEcho{}, nil // bulk: acknowledge, do not send it back
		}
		return payload, nil
	})
	if err != nil {
		return err
	}
	var firstErr error
	call := func(c *tcp.Transport, msg benchEcho) {
		if _, err := c.Call(ctx, "bench-echo", addr, "echo", msg); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	small := benchEcho{Body: make([]byte, payloadBytes)}
	rep.set(prefix+"dial_first_call_us", us(medianOf(5, func() {
		c := tcp.New(tcp.Config{ClusterKey: key, ConnsPerPeer: 1})
		call(c, small)
		c.Close()
	})))
	if key != nil || firstErr != nil {
		return firstErr
	}
	cli := tcp.New(tcp.Config{ConnsPerPeer: 1})
	defer cli.Close()
	call(cli, small)
	rep.set("tcp.call_rtt_us", us(medianOf(r.iters(500), func() { call(cli, small) })))

	const depth = 8
	calls := r.iters(4000)
	start := time.Now()
	window := make([]*transport.Pending, 0, depth)
	for i := 0; i < calls; i++ {
		if len(window) == depth {
			if _, err := window[0].Result(); err != nil && firstErr == nil {
				firstErr = err
			}
			window = window[1:]
		}
		window = append(window, cli.CallAsync(ctx, "bench-echo", addr, "echo", small))
	}
	for _, p := range window {
		_, _ = p.Result()
	}
	rep.set("tcp.pipelined_calls_s_d8", float64(calls)/time.Since(start).Seconds())

	bulk := benchEcho{Body: make([]byte, 8<<20)}
	start = time.Now()
	if _, err := transport.CallBulk(cli, ctx, "bench-echo", addr, "echo", bulk); err != nil && firstErr == nil {
		firstErr = err
	}
	rep.set("tcp.stream_mb_s", 8/time.Since(start).Seconds())
	return firstErr
}

// storageMetrics times the WAL at the workload's sync policy, and the cost of
// the fsync alone on a backend that batches.
func (r *run) storageMetrics() error {
	rep := r.rep
	rec := func(i int) storage.Record {
		return storage.Record{Kind: storage.RecPut, Epoch: 1, Key: keyspace.Key(i), Payload: payloadFor(keyspace.Key(i))}
	}
	open := func(name string, opts storage.Options) (*storage.Disk, error) {
		d, err := storage.OpenDisk(filepath.Join(r.cfg.runDir, name), opts)
		if err != nil {
			return nil, err
		}
		return d, d.Append(storage.Record{Kind: storage.RecClaim, Epoch: 1, Lo: 0, Hi: 0})
	}
	d, err := open("append", storage.Options{}) // SyncInterval 0: fsync per append
	if err != nil {
		return err
	}
	i := 0
	rep.set("storage.append_us", us(medianOf(r.iters(200), func() { i++; _ = d.Append(rec(i)) })))
	st := d.Stats()
	r.walRecordBytes = float64(st.WALBytes) / float64(st.Records)
	if err := d.Close(); err != nil {
		return err
	}
	b, err := open("sync", storage.Options{SyncInterval: time.Hour})
	if err != nil {
		return err
	}
	rep.set("storage.fsync_us", us(medianOf(r.iters(200), func() { i++; _ = b.Append(rec(i)); _ = b.Sync() })))
	return b.Close()
}
