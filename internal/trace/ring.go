package trace

import (
	"sync"

	"rvgo/internal/param"
)

// Ring record kinds.
const (
	RingDispatch byte = 0 // a parametric event
	RingFree     byte = 1 // an object-death record
)

// RingEvent is one flight-recorder entry. It is a fixed-size value — no
// pointers, no slices — so recording is a struct copy and the ring holds
// no references that could keep parameter objects alive.
type RingEvent struct {
	// Seq is the record's position in the session's stream (1-based).
	Seq uint64
	// Sym is the event symbol (RingDispatch) or -1 (RingFree).
	Sym int32
	// Kind is RingDispatch or RingFree.
	Kind byte
	// N is the number of valid entries in IDs.
	N byte
	// IDs are the bound object IDs in ascending parameter order
	// (RingDispatch) or the dying object IDs (RingFree).
	IDs [param.MaxParams]uint64
}

// ring is the flight recorder: a fixed-size in-memory window of the most
// recent records, overwritten in place. Recording is mutex-guarded and
// allocation-free; snapshot — taken when a verdict fires, which is rare —
// copies the window out in stream order. A ring is safe for concurrent
// use.
type ring struct {
	mu  sync.Mutex
	buf []RingEvent
	seq uint64 // total records ever written
}

// newRing returns a flight recorder holding the last n records (n ≥ 1).
func newRing(n int) *ring {
	return &ring{buf: make([]RingEvent, max(n, 1))}
}

// event records one parametric event given its object IDs in ascending
// parameter order.
func (r *ring) event(sym int, ids []uint64) {
	r.mu.Lock()
	e := r.slot()
	e.Sym = int32(sym)
	e.Kind = RingDispatch
	e.N = byte(copy(e.IDs[:], ids))
	r.mu.Unlock()
}

// free records an object-death point. More than MaxParams dying objects
// split across consecutive entries.
func (r *ring) free(ids []uint64) {
	r.mu.Lock()
	for len(ids) > 0 {
		e := r.slot()
		e.Sym = -1
		e.Kind = RingFree
		e.N = byte(copy(e.IDs[:], ids))
		ids = ids[e.N:]
	}
	r.mu.Unlock()
}

// slot claims the next entry. Caller holds r.mu.
func (r *ring) slot() *RingEvent {
	r.seq++
	e := &r.buf[(r.seq-1)%uint64(len(r.buf))]
	e.Seq = r.seq
	return e
}

// snapshot copies the window out, oldest first. It allocates; verdicts
// are rare and the hot path never calls it.
func (r *ring) snapshot() []RingEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	count := min(r.seq, n)
	out := make([]RingEvent, count)
	for i := uint64(0); i < count; i++ {
		out[i] = r.buf[(r.seq-count+i)%n]
	}
	return out
}
