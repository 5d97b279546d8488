package rvgo

import (
	"sync"

	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/trace"
)

// tap interposes on a backend's event surface to feed the persistent
// trace recorder (WithRecord) and the flight recorder (WithFlightRecorder)
// before forwarding. It is installed as the Monitor's runtime before any
// Emitter is resolved, so every ingestion path passes through it: Emit,
// EmitNamed and Emitter.Emit all end in Dispatch, deaths in Free.
type tap struct {
	rt   monitor.Runtime
	rec  *trace.Writer         // nil when not recording
	ring *trace.Ring           // nil without a flight recorder
	cli  *metrics.ClientSeries // nil unless remote + WithMetrics

	mu  sync.Mutex
	err error // first recording error, sticky
}

var _ monitor.Runtime = (*tap)(nil)

func (t *tap) fail(err error) {
	if err == nil {
		return
	}
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

// recErr returns the sticky recording error.
func (t *tap) recErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

func (t *tap) Spec() *monitor.Spec { return t.rt.Spec() }

func (t *tap) Dispatch(sym int, theta Instance) {
	if t.cli != nil {
		t.cli.Events.Inc()
	}
	if t.ring != nil {
		t.ring.RecordDispatch(sym, theta)
	}
	if t.rec != nil {
		t.fail(t.rec.Event(sym, theta))
	}
	t.rt.Dispatch(sym, theta)
}

func (t *tap) Free(refs ...Ref) {
	// The record position is the call: the producer dispatches no later
	// event mentioning the refs, so replay applying the death here
	// reproduces exactly the liveness every recorded event observed.
	if t.cli != nil {
		t.cli.Frees.Inc()
	}
	if t.ring != nil {
		t.ring.RecordFree(refs...)
	}
	if t.rec != nil {
		t.fail(t.rec.Free(refs...))
	}
	t.rt.Free(refs...)
}

func (t *tap) Barrier() { t.rt.Barrier() }

func (t *tap) Flush() {
	t.rt.Flush()
	if t.rec != nil {
		// Seal the open segment so a reader (or a crash) sees everything
		// up to the flush point.
		t.fail(t.rec.Flush())
	}
}

func (t *tap) Stats() Stats { return t.rt.Stats() }

func (t *tap) Close() {
	t.rt.Close()
	if t.rec != nil {
		t.fail(t.rec.Close())
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

// flightRecorder pairs the ring with snapshot-on-verdict retention.
type flightRecorder struct {
	ring  *trace.Ring
	mu    sync.Mutex
	snaps []flightSnap // newest last
}

func newFlightRecorder(n int) *flightRecorder {
	return &flightRecorder{ring: trace.NewRing(n)}
}

// onVerdict snapshots the ring at a goal verdict. It runs inside the
// verdict handler chain, under each backend's handler serialization.
func (f *flightRecorder) onVerdict(v Verdict) {
	k := v.Inst.Key()
	var ids []uint64
	for m := k.Mask; m != 0; m = m.Rest() {
		ids = append(ids, k.IDs[m.First()])
	}
	snap := flightSnap{ids: ids, win: f.ring.Snapshot()}
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
