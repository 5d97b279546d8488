package metrics

import "strconv"

// This file is the metric inventory: every family the engine exports, its
// canonical name and help string, resolved into per-layer series structs
// at component construction time. Names follow rv_<layer>_<what>_<unit>;
// each family carries at most one label dimension (tenant, shard, gc, or
// writer), interned here so hot paths never format a label.

// EngineSeries is the per-tenant engine-layer telemetry an
// internal/monitor.Engine publishes (by amortized delta, see
// monitor.Options.Metrics). Multiple engines for one tenant — shard
// workers, repeated sessions — Add into the same series, so counters are
// cumulative across the tenant's whole history, the live gauge is the
// tenant-wide total, and peak-live is the largest single-engine peak.
type EngineSeries struct {
	Events    *Counter
	Steps     *Counter
	Created   *Counter
	Flagged   *Counter
	Collected *Counter
	Recycled  *Counter
	Reused    *Counter
	Verdicts  *Counter
	Sweeps    *Counter
	Live      *Gauge
	PeakLive  *Gauge
	// Arena occupancy: the monitor store's slab arena, published as deltas
	// like everything else. Occupancy and fragmentation are derived
	// scrape-side (live/capacity, free/(live+free)) from these and Live.
	ArenaSlabs *Gauge
	ArenaCap   *Gauge
	ArenaFree  *Gauge
	// SweepSeconds is labeled by GC policy, not tenant: the collection
	// latency distribution is a property of the policy's sweep algorithm,
	// and pooling it across tenants is what makes the histogram useful.
	SweepSeconds *Histogram
}

// NewEngineSeries interns the engine families for one tenant under the
// given GC policy name.
func NewEngineSeries(r *Registry, tenant, gc string) *EngineSeries {
	return &EngineSeries{
		Events:     r.LabeledCounter("rv_engine_events_total", "Events dispatched into the slicing engine.", "tenant", tenant),
		Steps:      r.LabeledCounter("rv_engine_steps_total", "Monitor transition steps taken.", "tenant", tenant),
		Created:    r.LabeledCounter("rv_engine_monitors_created_total", "Monitor instances created.", "tenant", tenant),
		Flagged:    r.LabeledCounter("rv_engine_monitors_flagged_total", "Monitors flagged unreachable by parameter death.", "tenant", tenant),
		Collected:  r.LabeledCounter("rv_engine_monitors_collected_total", "Monitors reclaimed by the GC policy.", "tenant", tenant),
		Recycled:   r.LabeledCounter("rv_engine_monitors_recycled_total", "Collected monitors returned to the free pool.", "tenant", tenant),
		Reused:     r.LabeledCounter("rv_engine_pool_reused_total", "Monitor creations satisfied from the free pool.", "tenant", tenant),
		Verdicts:   r.LabeledCounter("rv_engine_verdicts_total", "Goal verdicts reached.", "tenant", tenant),
		Sweeps:     r.LabeledCounter("rv_engine_sweeps_total", "Expunge sweep passes over the live set.", "tenant", tenant),
		Live:       r.LabeledGauge("rv_engine_monitors_live", "Monitors currently live.", "tenant", tenant),
		PeakLive:   r.LabeledGauge("rv_engine_monitors_peak_live", "Largest per-engine peak of live monitors.", "tenant", tenant),
		ArenaSlabs: r.LabeledGauge("rv_engine_arena_slabs", "Slabs allocated in the monitor-store arena.", "tenant", tenant),
		ArenaCap:   r.LabeledGauge("rv_engine_arena_capacity", "Record capacity of the monitor-store arena.", "tenant", tenant),
		ArenaFree:  r.LabeledGauge("rv_engine_arena_free", "Records on the monitor-store arena free list.", "tenant", tenant),
		SweepSeconds: r.LabeledHistogram("rv_engine_sweep_seconds",
			"Expunge sweep pass duration by GC policy.", "gc", gc, SecondsBuckets),
	}
}

// ShardSeries is the shard-runtime telemetry: per-shard mailbox state
// (labeled "tenant/sN") plus per-tenant dispatch-shape counters.
type ShardSeries struct {
	// Per shard, index-aligned with the runtime's workers.
	MailboxDepth []*Gauge
	Batches      []*Counter
	BatchEvents  []*Counter
	// Per tenant.
	Refusals   *Counter
	Broadcasts *Counter
}

// NewShardSeries interns the shard families for one tenant across n
// shards. Shard label values are "tenant/s0" … "tenant/s<n-1>".
func NewShardSeries(r *Registry, tenant string, n int) *ShardSeries {
	s := &ShardSeries{
		Refusals:   r.LabeledCounter("rv_shard_refusals_total", "TryDispatchIDs batches refused for lack of mailbox space.", "tenant", tenant),
		Broadcasts: r.LabeledCounter("rv_shard_broadcasts_total", "Events sent to every shard.", "tenant", tenant),
	}
	for i := 0; i < n; i++ {
		lbl := tenant + "/s" + strconv.Itoa(i)
		s.MailboxDepth = append(s.MailboxDepth, r.LabeledGauge("rv_shard_mailbox_depth", "Batches queued in the shard mailbox.", "shard", lbl))
		s.Batches = append(s.Batches, r.LabeledCounter("rv_shard_batches_total", "Batches shipped to the shard worker.", "shard", lbl))
		s.BatchEvents = append(s.BatchEvents, r.LabeledCounter("rv_shard_batch_events_total", "Records (events and frees) shipped in batches to the shard worker.", "shard", lbl))
	}
	return s
}

// ServerSeries is the per-tenant server-layer telemetry: session
// lifecycle, ingestion volume, and flow-control stalls.
type ServerSeries struct {
	Sessions     *Counter
	Events       *Counter
	Verdicts     *Counter
	Frees        *Counter
	CreditGrants *Counter
	CreditStalls *Counter
	StallSeconds *Histogram
}

// NewServerSeries interns the server families for one tenant (the spec
// name a session monitors under).
func NewServerSeries(r *Registry, tenant string) *ServerSeries {
	return &ServerSeries{
		Sessions:     r.LabeledCounter("rv_server_sessions_total", "Monitoring sessions opened.", "tenant", tenant),
		Events:       r.LabeledCounter("rv_server_events_total", "Events accepted from sessions.", "tenant", tenant),
		Verdicts:     r.LabeledCounter("rv_server_verdicts_total", "Verdicts pushed to sessions.", "tenant", tenant),
		Frees:        r.LabeledCounter("rv_server_frees_total", "Free notifications accepted from sessions.", "tenant", tenant),
		CreditGrants: r.LabeledCounter("rv_server_credit_grants_total", "Credit grants issued to sessions.", "tenant", tenant),
		CreditStalls: r.LabeledCounter("rv_server_credit_stalls_total", "Times session ingestion blocked on a full shard mailbox.", "tenant", tenant),
		StallSeconds: r.LabeledHistogram("rv_server_credit_stall_seconds",
			"Duration of session ingestion stalls.", "tenant", tenant, SecondsBuckets),
	}
}

// SessionsActive resolves the server's one global gauge.
func SessionsActive(r *Registry) *Gauge {
	return r.Gauge("rv_server_sessions_active", "Sessions currently open.")
}

// TraceSeries is the trace-store telemetry for one writer.
type TraceSeries struct {
	Segments     *Counter
	Records      *Counter
	Bytes        *Counter
	FsyncSeconds *Histogram
}

// NewTraceSeries interns the trace families for one writer label
// (typically the tenant whose stream is being recorded).
func NewTraceSeries(r *Registry, writer string) *TraceSeries {
	return &TraceSeries{
		Segments: r.LabeledCounter("rv_trace_segments_total", "Sealed trace segments written.", "writer", writer),
		Records:  r.LabeledCounter("rv_trace_records_total", "Records written to the trace store.", "writer", writer),
		Bytes:    r.LabeledCounter("rv_trace_bytes_total", "Bytes written to the trace store.", "writer", writer),
		FsyncSeconds: r.LabeledHistogram("rv_trace_fsync_seconds",
			"Trace store fsync duration.", "writer", writer, SecondsBuckets),
	}
}

// ClusterSeries is the router-tier telemetry for one tenant: event
// routing shape, handoff activity, and downstream flow control of the
// pivot-hashed cluster fanout (internal/cluster).
type ClusterSeries struct {
	Events         *Counter // events sent to fewer than every slot (pivot or object placement)
	Broadcasts     *Counter // events sent to every slot
	Frees          *Counter // upstream frees, however many slots they reach
	Verdicts       *Counter // verdicts merged back upstream
	Handoffs       *Counter // slot moves completed (join, leave, crash)
	HandoffRecords *Counter // journal records replayed during handoffs
	CreditStalls   *Counter // dispatches that blocked on an empty slot window
	Nodes          *Gauge   // healthy downstream nodes
	Slots          *Gauge   // slots (virtual shards) in the fanout
}

// NewClusterSeries interns the cluster families for one tenant.
func NewClusterSeries(r *Registry, tenant string) *ClusterSeries {
	return &ClusterSeries{
		Events:         r.LabeledCounter("rv_cluster_events_total", "Events sent to their pivot's slot or to the slots their object went to, not to every slot.", "tenant", tenant),
		Broadcasts:     r.LabeledCounter("rv_cluster_broadcasts_total", "Events sent to every slot.", "tenant", tenant),
		Frees:          r.LabeledCounter("rv_cluster_frees_total", "Frees accepted from the upstream session, each sent to the slots its objects went to.", "tenant", tenant),
		Verdicts:       r.LabeledCounter("rv_cluster_verdicts_total", "Verdicts merged back to the upstream session.", "tenant", tenant),
		Handoffs:       r.LabeledCounter("rv_cluster_handoffs_total", "Slot handoffs completed between nodes.", "tenant", tenant),
		HandoffRecords: r.LabeledCounter("rv_cluster_handoff_records_total", "Journal records replayed during slot handoffs.", "tenant", tenant),
		CreditStalls:   r.LabeledCounter("rv_cluster_credit_stalls_total", "Dispatches blocked on an exhausted slot credit window.", "tenant", tenant),
		Nodes:          r.LabeledGauge("rv_cluster_nodes", "Healthy downstream nodes serving this tenant.", "tenant", tenant),
		Slots:          r.LabeledGauge("rv_cluster_slots", "Slots (virtual shards) in the tenant's fanout.", "tenant", tenant),
	}
}

// ClientSeries is the façade-side telemetry for a remote-backed Monitor,
// counting traffic as it crosses into the client runtime (the engine —
// and its EngineSeries — lives server-side).
type ClientSeries struct {
	Events   *Counter
	Frees    *Counter
	Verdicts *Counter
}

// NewClientSeries interns the client families for one tenant.
func NewClientSeries(r *Registry, tenant string) *ClientSeries {
	return &ClientSeries{
		Events:   r.LabeledCounter("rv_client_events_total", "Events sent to the remote monitoring server.", "tenant", tenant),
		Frees:    r.LabeledCounter("rv_client_frees_total", "Free notifications sent to the remote monitoring server.", "tenant", tenant),
		Verdicts: r.LabeledCounter("rv_client_verdicts_total", "Verdicts received from the remote monitoring server.", "tenant", tenant),
	}
}
