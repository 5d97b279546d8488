package rvgo

import (
	"sync"

	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/trace"
)

// tap interposes on a backend's event surface to feed the stream's
// recorder (WithRecord, WithFlightRecorder) before forwarding. It is
// installed as the Monitor's runtime before any Emitter is resolved, so
// every ingestion path passes through it: Emit, EmitNamed and Emitter.Emit
// all end in Dispatch, deaths in Free.
type tap struct {
	rt  monitor.Runtime
	rec *trace.Recorder       // nil without WithRecord and WithFlightRecorder
	cli *metrics.ClientSeries // nil unless remote + WithMetrics
}

var _ monitor.Runtime = (*tap)(nil)

func (t *tap) Spec() *monitor.Spec { return t.rt.Spec() }

func (t *tap) Dispatch(sym int, theta Instance) {
	if t.cli != nil {
		t.cli.Events.Inc()
	}
	if t.rec != nil {
		var buf [param.MaxParams]uint64
		t.rec.Event(sym, theta.Key().AppendIDs(buf[:0]))
	}
	t.rt.Dispatch(sym, theta)
}

func (t *tap) Free(ref Ref) {
	// The record position is the call: the producer dispatches no later
	// event mentioning the ref, so replay applying the death here
	// reproduces exactly the liveness every recorded event observed.
	if t.cli != nil {
		t.cli.Frees.Inc()
	}
	if t.rec != nil {
		id := [1]uint64{ref.ID()}
		t.rec.Free(id[:])
	}
	t.rt.Free(ref)
}

func (t *tap) Barrier() { t.rt.Barrier() }

func (t *tap) Flush() {
	t.rt.Flush()
	if t.rec != nil {
		t.rec.Flush()
	}
}

func (t *tap) Stats() Stats { return t.rt.Stats() }

func (t *tap) Close() {
	t.rt.Close()
	if t.rec != nil {
		_ = t.rec.Close() // the first error stays in Err
	}
}

// maxFlightWindows bounds the retained verdict snapshots: a Fail burst
// keeps the most recent windows, old ones fall off.
const maxFlightWindows = 16

// flightSnap is one verdict's snapshot: the window of records leading to
// it plus the verdict instance's object IDs for LastWindow lookup.
type flightSnap struct {
	ids []uint64
	win []trace.RingEvent
}

// flightRecorder keeps the recorder's window at each verdict.
type flightRecorder struct {
	rec   *trace.Recorder
	mu    sync.Mutex
	snaps []flightSnap // newest last
}

// onVerdict snapshots the ring at a goal verdict. It runs inside the
// verdict handler chain, under each backend's handler serialization.
func (f *flightRecorder) onVerdict(v Verdict) {
	snap := flightSnap{ids: v.Key.AppendIDs(nil), win: f.rec.Window()}
	f.mu.Lock()
	f.snaps = append(f.snaps, snap)
	if len(f.snaps) > maxFlightWindows {
		f.snaps = f.snaps[len(f.snaps)-maxFlightWindows:]
	}
	f.mu.Unlock()
}

// lastWindow returns the newest snapshot whose verdict bound id, or nil.
func (f *flightRecorder) lastWindow(id uint64) []trace.RingEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := len(f.snaps) - 1; i >= 0; i-- {
		for _, sid := range f.snaps[i].ids {
			if sid == id {
				return f.snaps[i].win
			}
		}
	}
	return nil
}

// WindowEvent is one flight-recorder record: a parametric event or an
// object-death point from the window preceding a verdict.
type WindowEvent struct {
	// Seq is the record's position in the monitored stream (1-based).
	Seq uint64
	// Free reports an object-death record; Event is then empty.
	Free bool
	// Event is the event name.
	Event string
	// IDs are the bound (or dying) object IDs, in ascending parameter
	// order for events.
	IDs []uint64
}

// LastWindow returns the flight-recorder window captured at the most
// recent goal verdict whose instance bound ref: the exact recent-event
// context that produced the verdict, oldest record first. It returns nil
// without WithFlightRecorder, or when no verdict has mentioned ref.
//
// Synchronization follows the verdict handler contract: after a verdict
// delivered on the sequential backend the window is immediately visible;
// on concurrent backends call Barrier or Flush first.
func (m *Monitor) LastWindow(ref Ref) []WindowEvent {
	if m.flight == nil || ref == nil {
		return nil
	}
	win := m.flight.lastWindow(ref.ID())
	if win == nil {
		return nil
	}
	spec := m.rt.Spec()
	out := make([]WindowEvent, len(win))
	for i, e := range win {
		we := WindowEvent{Seq: e.Seq, IDs: append([]uint64(nil), e.IDs[:e.N]...)}
		if e.Kind == trace.RingFree {
			we.Free = true
		} else if int(e.Sym) < len(spec.Events) {
			we.Event = spec.Events[e.Sym].Name
		}
		out[i] = we
	}
	return out
}
