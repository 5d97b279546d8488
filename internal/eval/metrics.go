package eval

import (
	"rvgo/internal/heap"
	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
)

// MetricsReport is the telemetry section of a bench run: the engine's own
// metrics registry observed over a fixed GC-churn workload. Where the
// micro section measures what the hot path costs, this section measures
// what the observability layer sees — pool hit rate, expunge sweeps, and
// the collection-latency distribution — so an archived run records the
// engine's reclamation behavior, not just its speed. Counter fields are
// deterministic (the workload is fixed); the latency quantiles are
// machine-dependent and reported, not gated.
type MetricsReport struct {
	Events      uint64  // engine dispatches observed by the registry
	Created     uint64  // monitors created
	Collected   uint64  // monitors reclaimed by GC
	Recycled    uint64  // reclaimed monitors returned to the pool
	Reused      uint64  // creations satisfied from the pool
	PoolHitRate float64 // Reused / Created
	Sweeps      uint64  // timed expunge/compaction sweeps
	SweepP50Us  float64 // sweep latency median, microseconds
	SweepP99Us  float64 // sweep latency p99, microseconds

	// Slab-arena occupancy at settle (after the final flush, before the
	// store is torn down). The churn workload is fixed, so these are
	// deterministic and CI-gated like the counters above: a change means
	// the store's growth or recycling behavior changed.
	ArenaSlabs int64 // slabs allocated
	ArenaCap   int64 // record slots backed by those slabs
	ArenaFree  int64 // recycled slots parked on the free list
}

// metricsChurnEvents sizes the report workload: enough generations that
// the monitor pool reaches steady state and the sweep histogram has a
// population worth quantiling.
const metricsChurnEvents = 200_000

// RunMetricsReport drives the microChurn generation loop — create,
// dispatch, death, coenable collection — on a sequential engine with a
// metrics registry attached, and reads the report off the settled series.
// The registry is exercised exactly as WithMetrics wires it, so the
// report doubles as an end-to-end check that instrumented counters settle
// to the engine's exact behavior under churn.
func RunMetricsReport() (*MetricsReport, error) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	series := metrics.NewEngineSeries(reg, "UnsafeIter", monitor.GCCoenable.String())
	eng, err := monitor.New(spec, monitor.Options{
		GC:            monitor.GCCoenable,
		Creation:      monitor.CreateEnable,
		SweepInterval: 256,
		Metrics:       series,
	})
	if err != nil {
		return nil, err
	}
	h := heap.New()
	c := h.Alloc("c")
	create, _ := spec.Symbol("create")
	update, _ := spec.Symbol("update")
	next, _ := spec.Symbol("next")
	for i := 0; i < metricsChurnEvents; i += 4 {
		it := h.Alloc("")
		monitor.Emit(eng, create, c, it)
		monitor.Emit(eng, next, it)
		h.Free(it)
		monitor.Emit(eng, update, c)
		monitor.Emit(eng, update, c)
	}
	eng.Flush()
	// Arena occupancy is read at settle, before Close: Close releases the
	// slabs and zeroes the gauges (the store no longer exists).
	arenaSlabs := series.ArenaSlabs.Value()
	arenaCap := series.ArenaCap.Value()
	arenaFree := series.ArenaFree.Value()
	eng.Close() // settles the final publication deltas into the registry

	rep := &MetricsReport{
		Events:     series.Events.Value(),
		Created:    series.Created.Value(),
		Collected:  series.Collected.Value(),
		Recycled:   series.Recycled.Value(),
		Reused:     series.Reused.Value(),
		Sweeps:     series.Sweeps.Value(),
		SweepP50Us: series.SweepSeconds.Quantile(0.50) * 1e6,
		SweepP99Us: series.SweepSeconds.Quantile(0.99) * 1e6,
		ArenaSlabs: arenaSlabs,
		ArenaCap:   arenaCap,
		ArenaFree:  arenaFree,
	}
	if rep.Created > 0 {
		rep.PoolHitRate = float64(rep.Reused) / float64(rep.Created)
	}
	return rep, nil
}
