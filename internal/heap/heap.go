// Package heap provides the object-liveness substrate for parametric
// monitoring.
//
// The RV system's monitor garbage collection is driven by the deaths of
// parameter objects: when the JVM collects an Iterator, the coenable-set
// analysis may prove that some monitor instances can never trigger again.
// This package supplies the equivalent signal in Go: a deterministic
// simulated heap (Heap/Object), where the workload explicitly frees
// objects. It is the substrate used by tests and by the DaCapo-style
// benchmark harness, because reproducing the paper's Figure 10 statistics
// requires deterministic collection points. It is also the identity
// currency of the live-object registry (internal/registry), which
// allocates one Object per registered Go object and frees it when the real
// GC's cleanup signal is delivered. (A monitoring server and a trace
// replay need no Object at all: the recorded or client IDs go straight
// into the engine's object table, and a free is the death.)
//
// Object implements Ref, the interface the monitoring engine sees.
package heap

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Ref is a possibly-weak reference to a parameter object. A monitoring
// engine keeps each Ref once, in its object table, however many parameter
// instances bind the object; a Ref must never keep its referent alive.
type Ref interface {
	// ID returns a stable nonzero identifier for the referent, usable for
	// hashing and equality even after the referent dies.
	ID() uint64
	// Alive reports whether the referent has not yet been collected. It is
	// monotone: a ref that has reported dead never reports alive again.
	// The engine caches an observed death in its object table and never
	// asks that ref again.
	Alive() bool
	// Label returns a human-readable name for diagnostics.
	Label() string
}

// Heap is a simulated heap. Objects are allocated with Alloc and die when
// the workload calls Free, which is the moment the "collector" runs for
// them. Heap is safe for concurrent use.
type Heap struct {
	mu       sync.Mutex
	nextID   uint64
	live     int
	allocs   uint64
	frees    uint64
	freeHook func(*Object)
}

// New returns an empty simulated heap.
func New() *Heap { return &Heap{} }

// Object is a simulated heap object. It implements Ref.
type Object struct {
	id    uint64
	label string
	dead  atomic.Bool
	h     *Heap
}

// Alloc allocates a new live object with a diagnostic label.
func (h *Heap) Alloc(label string) *Object {
	h.mu.Lock()
	h.nextID++
	id := h.nextID
	h.live++
	h.allocs++
	h.mu.Unlock()
	return &Object{id: id, label: label, h: h}
}

// Free marks the object as collected. Freeing an already-dead object is a
// no-op, even when frees race: the hook-then-mark sequence runs under the
// heap lock, so the free hook fires exactly once per object, strictly
// before the death becomes visible through Alive.
func (h *Heap) Free(o *Object) {
	if o == nil || o.dead.Load() {
		return
	}
	h.mu.Lock()
	if o.dead.Load() {
		h.mu.Unlock()
		return
	}
	if h.freeHook != nil {
		h.freeHook(o)
	}
	o.dead.Store(true)
	h.live--
	h.frees++
	h.mu.Unlock()
}

// SetFreeHook registers f to run once per effective Free, before the
// object is marked dead. Trace recorders use it to capture death points in
// event order, and test harnesses use it to position the death in
// asynchronous backends (Runtime.Free) before it becomes visible. Set it before the workload runs; the hook runs
// under the heap lock and must not call back into this Heap.
func (h *Heap) SetFreeHook(f func(*Object)) { h.freeHook = f }

// Stats returns the number of live objects, total allocations and frees.
func (h *Heap) Stats() (live int, allocs, frees uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.live, h.allocs, h.frees
}

// ID implements Ref.
func (o *Object) ID() uint64 { return o.id }

// Alive implements Ref.
func (o *Object) Alive() bool { return !o.dead.Load() }

// Label implements Ref.
func (o *Object) Label() string {
	if o.label != "" {
		return o.label
	}
	return fmt.Sprintf("obj#%d", o.id)
}
