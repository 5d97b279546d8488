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
	// dispatched before the call observes the ref alive — whatever the
	// caller does to it afterwards — and the events dispatched after it
	// observe it dead once the caller has killed it, which it may do the
	// instant Free returns. Free never waits on any backend: the sequential
	// engine has already processed every earlier event and reads liveness
	// off the ref; the asynchronous backends queue the death as one more
	// record of the ordered stream (a mailbox batch record, a wire free
	// frame). The ref is taken by value, like Dispatch's instance, so a
	// call allocates nothing; deaths at one position are consecutive calls.
	// The caller dispatches no later event mentioning the ref (with a
	// garbage-collected object that is automatic: the object is
	// unreachable, so no event can bind it). Every death source with refs
	// uses it: the simulated-heap free hook, the remote clients' protocol
	// frees, and the live-object frontend (package rv), where Go-GC
	// cleanups become stream-positioned deaths that drive coenable-set
	// monitor GC. On the sharded runtime the Free is the object's only
	// death: its engines hold the caller's refs without asking them, so an
	// object killed without a Free stays alive there. A server session and
	// a trace replay name objects by ID and use FreeIDs (Engine, and the
	// sharded runtime) instead.
	Free(ref heap.Ref)
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

// IDRuntime is a Runtime that also takes objects by ID: the sequential
// engine or the sharded runtime. A server session, a retroactive query and
// the conformance harness's by-ID feed drive one.
type IDRuntime interface {
	Runtime
	DispatchIDs(sym int, ids []uint64)
	FreeIDs(ids []uint64)
}

var _ IDRuntime = (*Engine)(nil)

// Barrier implements Runtime. The sequential engine processes events
// synchronously, so every dispatched event is already fully processed.
func (e *Engine) Barrier() {}

// Free implements Runtime. The sequential engine needs no positioning:
// every dispatched event has already been processed, and it finds the
// deaths of the refs Dispatch handed it lazily, through ref liveness, once
// the caller has killed them, at the sweep that follows. A record
// DispatchHeld added never asks its ref; FreeIDs is its death.
func (e *Engine) Free(heap.Ref) {}

// DispatchIDs is Dispatch for a caller that names objects by ID — a
// monitoring server's session, whose client's IDs are the objects, or a
// trace replay, whose recorded IDs are: ids bind
// D(sym) in ascending parameter-index order; a wrong arity panics, as
// Emit's does. An object first named here gets a held record with no ref,
// which dies only by FreeIDs; one engine takes its objects through one of
// the three entries, since all key the object table by ID.
func (e *Engine) DispatchIDs(sym int, ids []uint64) {
	tb := param.Binding{Mask: e.spec.Events[sym].Params}
	if tb.Mask.Count() != len(ids) {
		panic("monitor: DispatchIDs arity mismatch")
	}
	k := 0
	for pm := tb.Mask; pm != 0; pm = pm.Rest() {
		tb.H[pm.First()] = e.objs.handleHeld(nil, ids[k])
		k++
	}
	e.dispatch(sym, &tb)
}

// FreeIDs applies the deaths of objects named by ID at this point of the
// stream: every event dispatched before the call saw them alive, and the
// engine sees them dead from here on. The deaths of held records (objects
// that came in by DispatchIDs or DispatchHeld) are collected here, before
// the call returns: each walks its object's θ list and retires the
// θ-records that bind it — leaves detached, monitors notified, Δ entries,
// tombstones and mappings dropped as a sweep would, the monitors that die
// out of their registries — and the record goes, released (SetOnRelease),
// once no θ-record binds it. A θ-record whose monitor the GC policy keeps
// alive stays, and is looked at again where the monitor next steps. An ID
// no event named concerns no monitor and costs nothing but its release,
// which it gets here; an ID freed twice dies once. The caller dispatches
// no later event naming a freed ID.
func (e *Engine) FreeIDs(ids []uint64) {
	for _, id := range ids {
		x, ok := e.objs.find(id)
		if !ok {
			if e.onRelease != nil {
				e.onRelease(id)
			}
			continue
		}
		r := &e.objs.recs[x]
		if r.dead {
			continue
		}
		r.dead = true
		if r.pins == 0 {
			e.objs.dropq = append(e.objs.dropq, x)
		}
		if !r.held {
			continue // a lazy record: the next sweep finds its θ-records
		}
		for _, th := range e.objs.list(r) {
			if _, ok := e.intern.Live(th); ok {
				e.retire = append(e.retire, th)
			}
		}
	}
	if poolCheck {
		e.checked = append(e.checked[:0], e.retire...)
		for _, th := range e.retire {
			if h := e.intern.At(th).Data.mon; h != arena.Nil {
				e.checked = append(e.checked, h)
			}
		}
	}
	n := len(e.retire)
	e.settle()
	if poolCheck {
		if err := checkFreed(e, e.checked[:n], e.checked[n:]); err != nil {
			panic("monitor: after FreeIDs: " + err.Error())
		}
	}
}

// Close implements Runtime. The sequential engine holds no goroutines or
// external resources; closing settles any published telemetry, returns
// the slab arenas (monitor records, the θ-table, the leaf records) and
// the block heap to the host allocator in O(slabs) — the engine-side
// counterpart of the per-monitor reclamation the GC policies do during
// the run — and empties the registries and the object table. The object table is the only
// holder of the monitored program's refs (θ-records bind its handles, and
// the index hangs off the θ-records and holds monitor handles only):
// callers keep a closed engine around to read Stats, and it must pin
// nothing. Dispatching after Close is a programming error; with the store
// reset it fails fast on a stale handle rather than corrupting state.
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
	e.objs.reset()
}

// DispatchHeld is Dispatch for a caller that positions every death with
// FreeIDs — a shard worker, which reaches an object's free record exactly
// where the producer put it. An object first named here gets a held
// record: it keeps the caller's ref for verdicts, but its liveness is the
// record's own, so the ref is never asked and the caller may kill the
// object whenever it likes.
func (e *Engine) DispatchHeld(sym int, theta param.Instance) {
	tb := param.Binding{Mask: theta.Mask()}
	for pm := tb.Mask; pm != 0; pm = pm.Rest() {
		i := pm.First()
		v := theta.Value(i)
		tb.H[i] = e.objs.handleHeld(v, v.ID())
	}
	e.dispatch(sym, &tb)
}

// handleHeld is handle for an object whose death the caller positions
// (DispatchHeld, and DispatchIDs with v nil): the record it adds is held,
// so its ref, if any, is never asked.
func (o *objects) handleHeld(v heap.Ref, id uint64) uint32 {
	h, ok := o.find(id)
	if !ok {
		h = o.add(object{ref: v, id: id, held: true})
	}
	return h
}

// SetOnRelease makes f receive the ID of each freed object the engine holds
// no record of any more — no later verdict can name it — for a caller that
// names objects by ID and tells their holders when they may let go (a
// server session, whose client keeps a ref per ID it sent). After
// FreeIDs(id) the engine releases id exactly once: inside that FreeIDs
// when the object table holds no record of it or the free retires every
// θ-record that binds it; else at the end of the event, FreeIDs or Flush
// that recycles the last such θ-record (a survivor's, once its monitor is
// collected). The caller frees each ID once. f runs on the goroutine
// calling FreeIDs, a dispatch entry or Flush, after every verdict that
// named the object; Close releases nothing. Set it before the first event.
func (e *Engine) SetOnRelease(f func(id uint64)) { e.onRelease = f }
