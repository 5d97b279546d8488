package trace

import (
	"fmt"
	"sync"

	"rvgo/internal/monitor"
	"rvgo/internal/shard"
)

// ParallelConfig configures a parallel retroactive replay.
type ParallelConfig struct {
	// Workers is the replay fan-out; ≤1 degrades to a single worker.
	Workers int
	// Monitor configures each worker's sequential engine. OnVerdict, if
	// set, is serialized across workers (never two invocations at once),
	// the same contract the sharded runtime gives its handler.
	Monitor monitor.Options
	// Pivots restricts the replay to these slices (see ReplayOptions).
	Pivots []uint64
}

// ParallelResult is the merged outcome of a parallel replay.
type ParallelResult struct {
	// Stats merges the workers' settled counters under the sharded
	// runtime's discipline: Events counts each trace event once
	// (broadcast fan-out is not double-counted), PeakLive sums the
	// per-worker peaks (an upper bound — the workers do not peak
	// simultaneously), every other counter is an exact sum and equals the
	// sequential engine's.
	Stats monitor.Stats
	// Replay aggregates the per-worker replay stats: Events/Frees are
	// summed (broadcast events appear once per worker that processed
	// them), SegmentsSkimmed counts skims across all workers.
	Replay ReplayStats
}

// ReplayParallel checks spec over the whole trace with cfg.Workers
// independent workers, each running its own sequential engine over its
// hash partition of the pivot space — the retroactive analogue of the
// online sharded runtime, using the same pivot analysis and the same
// splitmix64 partition (shard.Mix). Worker k dispatches the events whose
// pivot object hashes to k plus every broadcast event, applies all deaths
// in stream order, and skims pivot-indexed segments owning none of its
// slices; each worker being sequential, free positioning is exact. Every
// monitor instance binds the pivot, so the workers' monitor populations
// are disjoint and verdicts and settled counters merge losslessly — which
// is why cfg.Monitor must pass monitor.Options.Check for cfg.Workers lanes.
func (r *Reader) ReplayParallel(spec *monitor.Spec, cfg ParallelConfig) (ParallelResult, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if err := cfg.Monitor.Check(spec, cfg.Workers); err != nil {
		return ParallelResult{}, err
	}
	if cfg.Workers > 1 {
		router, err := shard.NewRouter(spec, 2)
		if err != nil {
			return ParallelResult{}, err
		}
		if router.Pivot() < 0 {
			// Unshardable spec: a single worker replays everything.
			cfg.Workers = 1
		}
	}
	var vmu sync.Mutex
	onVerdict := cfg.Monitor.OnVerdict
	workers := make([]*monitor.Engine, cfg.Workers)
	for k := range workers {
		opts := cfg.Monitor
		if onVerdict != nil {
			opts.OnVerdict = func(v monitor.Verdict) {
				vmu.Lock()
				defer vmu.Unlock()
				onVerdict(v)
			}
		}
		eng, err := monitor.New(spec, opts)
		if err != nil {
			return ParallelResult{}, err
		}
		workers[k] = eng
	}

	var wg sync.WaitGroup
	stats := make([]ReplayStats, cfg.Workers)
	errs := make([]error, cfg.Workers)
	for k := 0; k < cfg.Workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			stats[k], errs[k] = r.Replay(workers[k], ReplayOptions{
				Pivots:  cfg.Pivots,
				workers: cfg.Workers,
				self:    k,
			})
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return ParallelResult{}, fmt.Errorf("trace: worker %d: %w", k, err)
		}
	}

	var res ParallelResult
	var traceEvents uint64
	for k, eng := range workers {
		eng.Flush()
		res.Stats.Merge(eng.Stats())
		eng.Close()

		res.Replay.Events += stats[k].Events
		res.Replay.Broadcast += stats[k].Broadcast
		res.Replay.Frees += stats[k].Frees
		res.Replay.EventsSkipped += stats[k].EventsSkipped
		res.Replay.SegmentsSkimmed += stats[k].SegmentsSkimmed
		res.Replay.UnknownSkipped += stats[k].UnknownSkipped
		traceEvents += stats[k].Events
	}
	// A pivot-binding event is dispatched by exactly one worker; a
	// broadcast event by every worker, and each worker dispatched the
	// same broadcast events (they are never filter- or partition-skipped).
	// Subtracting the W−1 duplicate countings makes Events equal to a
	// sequential replay's — the same central-count discipline as the
	// online sharded runtime.
	if cfg.Workers > 1 {
		traceEvents -= uint64(cfg.Workers-1) * stats[0].Broadcast
	}
	res.Stats.Events = traceEvents
	return res, nil
}
