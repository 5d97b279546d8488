package trace

import "rvgo/internal/monitor"

// Recorder is the one tap of a monitored stream: the façade's WithRecord
// and WithFlightRecorder, a server session's RecordDir and FlightWindow
// and the evaluation's recording pass all record through one. It hands
// each event and each object death, in stream order, to an optional
// flight ring of the most recent records and an optional trace file of
// one spec, without allocating. A Recorder is safe for concurrent use.
//
// One failure rule holds for the file: its first error, at creation or at
// any write, stops it and is kept (Err, Close). Later records are dropped
// from the file, which Open reads up to its last sealed segment; the ring
// and the monitoring go on.
type Recorder struct {
	ring *ring   // nil without a flight window
	w    *Writer // nil without a file, or when it could not be created
	err  error   // the file's creation error
}

// NewRecorder returns the recorder of a stream of spec: a flight ring of
// the last window records when window > 0, and the trace file at path
// (CreateForSpec with opts) when path is non-empty.
func NewRecorder(spec *monitor.Spec, window int, path string, opts WriterOptions) *Recorder {
	r := &Recorder{}
	if window > 0 {
		r.ring = newRing(window)
	}
	if path != "" {
		r.w, r.err = CreateForSpec(path, spec, opts)
	}
	return r
}

// Event records one parametric event given its object IDs in ascending
// parameter order.
func (r *Recorder) Event(sym int, ids []uint64) {
	if r.ring != nil {
		r.ring.event(sym, ids)
	}
	if r.w != nil {
		_ = r.w.EventIDs(sym, ids) // a failure is the writer's first error, kept for Err
	}
}

// Free records an object-death point.
func (r *Recorder) Free(ids []uint64) {
	if r.ring != nil {
		r.ring.free(ids)
	}
	if r.w != nil {
		_ = r.w.FreeIDs(ids) // as in Event
	}
}

// Flush seals the file's open segment, so a reader (or a crash) finds
// every record up to the flush point.
func (r *Recorder) Flush() {
	if r.w != nil {
		_ = r.w.Flush() // as in Event
	}
}

// Window copies the flight window out, oldest record first; nil without
// a ring.
func (r *Recorder) Window() []RingEvent {
	if r.ring == nil {
		return nil
	}
	return r.ring.snapshot()
}

// Err returns the file's first error, or nil.
func (r *Recorder) Err() error {
	if r.w != nil {
		return r.w.Err()
	}
	return r.err
}

// Close seals and closes the file and returns its first error.
func (r *Recorder) Close() error {
	if r.w != nil {
		return r.w.Close()
	}
	return r.err
}
