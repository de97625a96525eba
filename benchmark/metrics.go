package main

// metricDef is one metric the benchmark reports. BENCHMARK.json lists the
// same names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd are the metrics a user of the system sees, and the only ones the
// benchmark bounds. Every workload reports every one of them, from the
// untraced run, and none is ever zero. They are the four whose spread over
// ten seeds stayed well inside a bound on every workload (README.md has the
// measurements); the latency percentiles and the goodput did not, and are
// reported beside the per-layer metrics instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"slo_ok_share", "ratio", "higher", 0.08},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayer are the metrics of single layers, from the traced run and from
// direct timed calls, named layer.metric after the module they measure. They
// carry no bound. The first group are end-to-end measurements that cannot be
// bounded under the benchmark contract: a workload without that operation
// has no value for them, the share metrics are zero on a healthy run, and the
// percentiles and the goodput vary between runs of the same code by more
// than any bound the contract allows.
var perLayer = []metricDef{
	{"op_p50_ms", "ms", "lower", 0},
	{"op_p95_ms", "ms", "lower", 0},
	{"hi_p95_ms", "ms", "lower", 0},
	{"goodput_ops_s", "ops/s", "higher", 0},
	{"query_p50_ms", "ms", "lower", 0},
	{"query_p99_ms", "ms", "lower", 0},
	{"mutate_p50_ms", "ms", "lower", 0},
	{"mutate_p99_ms", "ms", "lower", 0},
	{"hi_p99_ms", "ms", "lower", 0},
	{"slo_miss_share", "ratio", "lower", 0},
	{"failed_share", "ratio", "lower", 0},
	{"outage_ms", "ms", "lower", 0},

	{"client.query_self_us", "us", "lower", 0},
	{"client.mutate_self_us", "us", "lower", 0},
	{"client.descents_per_op", "ratio", "lower", 0},
	{"client.hops_per_descent", "ratio", "lower", 0},
	{"client.segments_per_query", "ratio", "lower", 0},
	{"client.retries_per_op", "ratio", "lower", 0},
	{"client.stale_routes_per_op", "ratio", "lower", 0},
	{"client.replica_reads_per_op", "ratio", "lower", 0},
	{"client.insert_p50_us", "us", "lower", 0},
	{"client.delete_p50_us", "us", "lower", 0},
	{"client.rate_ok_ops_s", "ops/s", "higher", 0},
	{"client.sched_lag_p99_ms", "ms", "lower", 0},
	{"client.unattributed_share", "ratio", "lower", 0},

	{"routecache.hit_ratio", "ratio", "higher", 0},
	{"routecache.lookup_ns", "ns", "lower", 0},
	{"routecache.invalidations", "count", "lower", 0},
	{"routecache.evictions", "count", "lower", 0},

	{"router.next_hop_rtt_us", "us", "lower", 0},
	{"router.next_hop_handler_us", "us", "lower", 0},
	{"router.bg_calls_per_s", "1/s", "lower", 0},

	{"datastore.insert_handler_us", "us", "lower", 0},
	{"datastore.delete_handler_us", "us", "lower", 0},
	{"datastore.scan_segment_handler_us", "us", "lower", 0},
	{"datastore.insert_rtt_us", "us", "lower", 0},
	{"datastore.scan_segment_rtt_us", "us", "lower", 0},
	{"datastore.items_per_segment", "count", "higher", 0},
	{"datastore.stale_epoch_rejects", "count", "lower", 0},
	{"datastore.step_downs", "count", "lower", 0},
	{"datastore.lease_adoptions", "count", "lower", 0},
	{"datastore.split_ms", "ms", "lower", 0},
	{"datastore.revive_ms", "ms", "lower", 0},

	{"history.append_ns_1", "ns", "lower", 0},
	{"history.append_ns_nproc", "ns", "lower", 0},
	{"history.events_per_mutation", "ratio", "lower", 0},
	{"history.events_end", "count", "lower", 0},

	{"replication.push_per_s", "1/s", "lower", 0},
	{"replication.push_handler_us", "us", "lower", 0},
	{"replication.push_bytes_per_mutation", "bytes", "lower", 0},
	{"replication.replica_items_rtt_us", "us", "lower", 0},
	{"replication.sig_rejects", "count", "lower", 0},

	{"storage.append_us", "us", "lower", 0},
	{"storage.fsync_us", "us", "lower", 0},
	{"storage.wal_records_per_mutation", "ratio", "lower", 0},
	{"storage.wal_bytes_per_user_byte", "ratio", "lower", 0},
	{"storage.snapshots", "count", "lower", 0},
	{"storage.load_ms", "ms", "lower", 0},
	{"storage.lost_acked_writes", "count", "lower", 0},

	{"transport.encode_ns_small", "ns", "lower", 0},
	{"transport.decode_ns_small", "ns", "lower", 0},
	{"transport.encode_ns_segment", "ns", "lower", 0},
	{"transport.decode_ns_segment", "ns", "lower", 0},
	{"transport.bytes_small", "bytes", "lower", 0},
	{"transport.bytes_segment", "bytes", "lower", 0},
	{"transport.frame_roundtrip_ns", "ns", "lower", 0},
	{"transport.bytes_per_op", "bytes", "lower", 0},

	{"tcp.call_rtt_us", "us", "lower", 0},
	{"tcp.pipelined_calls_s_d8", "1/s", "higher", 0},
	{"tcp.wire_us_per_rpc", "us", "lower", 0},
	{"tcp.dial_first_call_us", "us", "lower", 0},
	{"tcp.stream_mb_s", "MB/s", "higher", 0},
	{"tcp.stream_resumes", "count", "lower", 0},

	{"auth.dial_first_call_us", "us", "lower", 0},
	{"auth.sign_advert_us", "us", "lower", 0},
	{"auth.verify_advert_us", "us", "lower", 0},
	{"auth.handshake_rejects", "count", "lower", 0},

	{"ring.bg_calls_per_s", "1/s", "lower", 0},
	{"ring.handler_us", "us", "lower", 0},
	{"ring.join_ms", "ms", "lower", 0},

	{"gossip.round_us", "us", "lower", 0},
	{"gossip.rounds_per_s", "1/s", "lower", 0},
	{"gossip.exchange_bytes", "bytes", "lower", 0},
	{"gossip.members", "count", "higher", 0},

	{"core.query_p50_us", "us", "lower", 0},
	{"core.query_wide_p50_us", "us", "lower", 0},

	{"process.alloc_kb_per_op", "KiB", "lower", 0},
	{"process.mallocs_per_op", "count", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"process.heap_mb_end", "MiB", "lower", 0},
	{"process.goroutines_end", "count", "lower", 0},
	{"process.idle_cpu_share", "ratio", "lower", 0},
	{"process.goodput_tail_ratio", "ratio", "higher", 0},
	{"process.trace_overhead_pct", "%", "lower", 0},
}
