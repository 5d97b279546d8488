package dacapo

import (
	"fmt"

	"rvgo/internal/heap"
)

// Step is one element of a recorded trace: either an instrumentation event
// or the death of a parameter object.
type Step struct {
	Ev    Event
	Death heap.Ref // non-nil: the object died here (Ev is zero)
}

// Trace is a recorded instrumentation-event/death sequence. A workload run
// is recorded once and can then be replayed deterministically into any
// number of monitoring backends — each replay allocates fresh heap objects
// and frees them at the recorded death points, so every backend observes
// the identical per-slice event and death sequence. This is the substrate
// for cross-backend equivalence oracles (sequential engine vs the sharded
// runtime) where re-running the workload against live backends would let
// object deaths race asynchronous event processing.
type Trace struct {
	Steps []Step
}

// Record runs the profile at the given scale against a private runtime and
// captures its instrumentation events and object deaths in order.
func (p Profile) Record(scale float64) (*Trace, error) {
	rt := NewRuntime()
	tr := &Trace{}
	rt.AddSink(func(ev Event) { tr.Steps = append(tr.Steps, Step{Ev: ev}) })
	rt.Heap.SetFreeHook(func(o *heap.Object) {
		tr.Steps = append(tr.Steps, Step{Death: o})
	})
	if err := p.Run(rt, scale); err != nil {
		return nil, err
	}
	return tr, nil
}

// Replay feeds the trace into sink, reallocating every recorded object on
// h (on first mention, preserving allocation order and labels) and freeing
// it at its recorded death point. A backend that does not ask its refs
// whether they are alive — the sharded runtime — must be told of each
// death at its position in the stream: pass the backend's Free to
// h.SetFreeHook before replaying.
func (t *Trace) Replay(h *heap.Heap, sink Sink) {
	objs := map[uint64]*heap.Object{}
	remap := func(r heap.Ref) heap.Ref {
		if r == nil {
			return nil
		}
		o, ok := objs[r.ID()]
		if !ok {
			o = h.Alloc(r.Label())
			objs[r.ID()] = o
		}
		return o
	}
	for _, st := range t.Steps {
		if st.Death != nil {
			o, ok := objs[st.Death.ID()]
			if !ok {
				// An object can die without ever appearing in an event
				// (e.g. a collection that was never iterated); there is
				// nothing for the backends to observe.
				continue
			}
			h.Free(o)
			continue
		}
		ev := st.Ev
		ev.Coll = remap(ev.Coll)
		ev.Iter = remap(ev.Iter)
		ev.Map = remap(ev.Map)
		sink(ev)
	}
}

// Events returns the number of instrumentation events in the trace.
func (t *Trace) Events() int {
	n := 0
	for _, st := range t.Steps {
		if st.Death == nil {
			n++
		}
	}
	return n
}

// String summarizes the trace for diagnostics.
func (t *Trace) String() string {
	return fmt.Sprintf("trace{%d steps, %d events}", len(t.Steps), t.Events())
}
