package main

// metricDef declares one reported metric. BENCHMARK.json carries the same
// names, units and directions (plus the regression bounds); bench_test.go
// fails when the two lists drift apart.
type metricDef struct {
	name, unit string
	better     string  // "higher" or "lower"
	bound      float64 // end-to-end only: the share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system would see, reported from
// untraced reps as medians. Every workload reports every one of them:
//
//   - events_per_s: events / wall of a saturation rep, first Emit through
//     Flush (retro-select: records covered = dispatched + skipped).
//   - cpu_ns_per_event: process user+system CPU over the same region.
//   - allocs_per_event: MemStats.Mallocs delta over the same region.
//   - retained_heap_mb: HeapAlloc after a forced GC at the stream's
//     midpoint, clock stopped, minus the same just before the rep
//     (retro-select: with the trace open, as a running query holds it).
//   - peak_live_monitors: Stats.PeakLive after Flush (retro-select: summed
//     over the rep's queries).
//   - setup_s: everything before the first timed rep.
var endToEnd = []metricDef{
	{"events_per_s", "1/s", "higher", 0.25},
	{"cpu_ns_per_event", "ns", "lower", 0.25},
	{"allocs_per_event", "count", "lower", 0.05},
	{"retained_heap_mb", "MB", "lower", 0.10},
	{"peak_live_monitors", "count", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run. A layer a
// workload's path does not cross reports 0.
var perLayer = []metricDef{
	{"verdict_lag_p50_ms", "ms", "lower", 0},
	{"verdict_lag_p99_ms", "ms", "lower", 0},
	{"gen.drive_ns_per_record", "ns", "lower", 0},
	{"gen.late_p99_ms", "ms", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"trace.encode_ns_per_record", "ns", "lower", 0},
	{"trace.bytes_per_record", "B", "lower", 0},
	{"trace.decode_ns_per_record", "ns", "lower", 0},
	{"trace.open_ms", "ms", "lower", 0},
	{"trace.select_ms_per_query", "ms", "lower", 0},
	{"trace.segments_skimmed_share", "share", "higher", 0},
	{"monitor.ns_per_event", "ns", "lower", 0},
	{"monitor.created_per_event", "count", "lower", 0},
	{"monitor.steps_per_event", "count", "lower", 0},
	{"monitor.sweeps", "count", "lower", 0},
	{"monitor.sweep_p99_us", "us", "lower", 0},
	{"monitor.flush_ms", "ms", "lower", 0},
	{"monitor.collected_before_flush_share", "share", "higher", 0},
	{"monitor.pool_reuse_share", "share", "higher", 0},
	{"param.interned_peak", "count", "lower", 0},
	{"param.arena_slabs", "count", "lower", 0},
	{"arena.slabs", "count", "lower", 0},
	{"arena.high_water", "count", "lower", 0},
	{"arena.occupancy_mid", "share", "higher", 0},
	{"rvgo.added_ns_per_event", "ns", "lower", 0},
	{"rvgo.new_ms", "ms", "lower", 0},
	{"shard.added_ns_per_event.1", "ns", "lower", 0},
	{"shard.added_ns_per_event.2", "ns", "lower", 0},
	{"shard.free_ns_per_free", "ns", "lower", 0},
	{"shard.events_per_batch", "count", "higher", 0},
	{"shard.broadcast_share", "share", "lower", 0},
	{"shard.refusals", "count", "lower", 0},
	{"shard.queue_depth_max", "count", "lower", 0},
	{"wire.encode_ns_per_event", "ns", "lower", 0},
	{"wire.decode_ns_per_event", "ns", "lower", 0},
	{"wire.bytes_per_event", "B", "lower", 0},
	{"remote.session_ns_per_event", "ns", "lower", 0},
	{"remote.free_ns_per_free", "ns", "lower", 0},
	{"remote.dial_ms", "ms", "lower", 0},
	{"remote.block_p99_us", "us", "lower", 0},
	{"server.credit_grants", "count", "lower", 0},
	{"server.credit_stalls", "count", "lower", 0},
	{"server.credit_stall_ms", "ms", "lower", 0},
	{"server.events", "count", "lower", 0},
	{"server.frees", "count", "lower", 0},
	{"cluster.added_ns_per_event", "ns", "lower", 0},
	{"cluster.broadcast_share", "share", "lower", 0},
	{"cluster.credit_stalls", "count", "lower", 0},
	{"cluster.free_ns_per_free", "ns", "lower", 0},
}

// metric is one reported value, as the driver reads it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
