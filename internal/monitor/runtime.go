package monitor

import (
	"rvgo/internal/arena"
	"rvgo/internal/heap"
	"rvgo/internal/index"
	"rvgo/internal/param"
)

// Dispatcher is the one way events enter a backend: a parametric event
// e⟨θ⟩ (the body of Figure 5's loop) against the spec that names e. Emit
// and EmitNamed below are the by-value and by-name forms, written once
// over it; the dacapo adapter resolves its events against Spec and
// dispatches directly.
type Dispatcher interface {
	// Spec returns the specification being monitored.
	Spec() *Spec
	// Dispatch processes one parametric event.
	Dispatch(sym int, theta param.Instance)
}

// Emit dispatches the parametric event sym⟨vals⟩ to d; vals bind D(sym) in
// ascending parameter-index order and must all be alive. A wrong arity
// panics (param.Of).
func Emit(d Dispatcher, sym int, vals ...heap.Ref) {
	d.Dispatch(sym, param.Of(d.Spec().Events[sym].Params, vals...))
}

// EmitNamed dispatches an event by name to d. Unknown names and arity
// mismatches are reported as errors (Emit, the index-based form, panics
// instead).
func EmitNamed(d Dispatcher, name string, vals ...heap.Ref) error {
	sym, err := d.Spec().Resolve(name, len(vals))
	if err != nil {
		return err
	}
	Emit(d, sym, vals...)
	return nil
}

// Runtime is the engine-agnostic monitoring surface: everything a workload
// adapter, a trace driver or the evaluation harness needs from a backend.
// The sequential Engine implements it synchronously; the sharded runtime
// (package internal/shard) implements it over a pool of Engine workers.
// Every future backend (remote, persistent, ...) should implement Runtime
// so the tools in cmd/ can run it unchanged.
type Runtime interface {
	Dispatcher
	// Free positions an object death in the event stream: every event
	// dispatched before the call observes the refs alive — whatever the
	// caller does to them afterwards — and the events dispatched after it
	// observe them dead once the caller has killed them, which it may do
	// the instant Free returns. Free never waits on any backend: the
	// sequential engine has already processed every earlier event and reads
	// liveness off the refs; the asynchronous backends queue the death as
	// one more record of the ordered stream (a mailbox batch record, a wire
	// free frame). The caller dispatches no later event mentioning the refs
	// (with a garbage-collected object that is automatic: the object is
	// unreachable, so no event can bind it). Every death source uses it:
	// trace replay, the simulated-heap free hook, protocol frees, and the
	// live-object frontend (package rv), where Go-GC cleanups become
	// stream-positioned deaths that drive coenable-set monitor GC.
	Free(refs ...heap.Ref)
	// Barrier returns once every event dispatched before the call has been
	// fully processed. Synchronous backends return immediately.
	Barrier()
	// Flush performs a full sweep/compaction pass so the Figure 10
	// counters settle; it implies Barrier.
	Flush()
	// Stats returns the monitoring counters. For asynchronous backends the
	// snapshot covers at least every event processed before the last
	// Barrier or Flush.
	Stats() Stats
	// Close releases backend resources (worker goroutines, mailboxes).
	// Dispatching after Close is a programming error.
	Close()
}

var _ Runtime = (*Engine)(nil)

// Barrier implements Runtime. The sequential engine processes events
// synchronously, so every dispatched event is already fully processed.
func (e *Engine) Barrier() {}

// Free implements Runtime. The sequential engine needs no positioning:
// every dispatched event has already been processed, and it observes
// deaths lazily through ref liveness when the death is applied.
func (e *Engine) Free(refs ...heap.Ref) {}

// Close implements Runtime. The sequential engine holds no goroutines or
// external resources; closing settles any published telemetry, returns
// the slab arenas (monitor records, the θ-table, the leaf records) to the
// host allocator in O(slabs) — the engine-side counterpart of the
// per-monitor reclamation the GC policies do during the run — and empties
// the registries and the fresh-object table. The θ-table and the
// fresh-object table are the only holders of the monitored program's refs
// (the index hangs off the θ-records and holds handles only): callers keep
// a closed engine around to read Stats, and it must pin nothing. Dispatching after Close
// is a programming error; with the store reset it fails fast on a stale
// handle rather than corrupting state.
func (e *Engine) Close() {
	if e.met != nil {
		e.publishMetrics()
		// The arena gauges track a store that no longer exists; settle
		// them to zero so shared series don't leak phantom capacity.
		st := e.mons.Stats()
		e.met.ArenaSlabs.Add(-int64(st.Slabs))
		e.met.ArenaCap.Add(-int64(st.Cap))
		e.met.ArenaFree.Add(-int64(st.Free))
		e.pubArena = arena.Stats{}
	}
	e.mons.Reset()
	e.intern.Reset()
	e.leaves.Reset()
	for i := range e.domains {
		e.domains[i].all = index.Set{}
	}
	e.boxState = nil
	e.seen = map[uint64]seenRec{}
}
