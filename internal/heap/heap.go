// Package heap provides the object-liveness substrate for parametric
// monitoring.
//
// The RV system's monitor garbage collection is driven by the deaths of
// parameter objects: when the JVM collects an Iterator, the coenable-set
// analysis may prove that some monitor instances can never trigger again.
// This package supplies the equivalent signal in Go in two flavours:
//
//   - A deterministic simulated heap (Heap/Object), where the workload
//     explicitly frees objects. This is the substrate used by tests and by
//     the DaCapo-style benchmark harness, because reproducing the paper's
//     Figure 10 statistics requires deterministic collection points. It is
//     also the identity currency of the other death channels: the remote
//     server materializes one Object per protocol object ID, and the
//     live-object registry (internal/registry) allocates one Object per
//     registered Go object, freeing it when the real GC's cleanup signal
//     is delivered.
//   - Real weak references (Weak) built on Go 1.24's weak.Pointer, showing
//     the same engine running against the real garbage collector.
//
// Both implement Ref, the only interface the monitoring engine sees.
package heap

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"
)

// Ref is a possibly-weak reference to a parameter object. The monitoring
// runtime stores Refs in indexing-tree keys and in monitor instances; a Ref
// must never keep its referent alive.
type Ref interface {
	// ID returns a stable nonzero identifier for the referent, usable for
	// hashing and equality even after the referent dies.
	ID() uint64
	// Alive reports whether the referent has not yet been collected.
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
	// rid is a remote-protocol object ID (AllocRemote); hasRID objects
	// format their label lazily, so the server's per-object cost is free
	// of string formatting on the ingest path.
	rid    uint64
	hasRID bool
	dead   atomic.Bool
	h      *Heap
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

// AllocRemote allocates a live object standing in for a remote protocol
// object. The label ("r<rid>") is formatted only when Label is called —
// diagnostics pay for strings, the monitoring server's first-sight
// allocation does not.
func (h *Heap) AllocRemote(rid uint64) *Object {
	h.mu.Lock()
	h.nextID++
	id := h.nextID
	h.live++
	h.allocs++
	h.mu.Unlock()
	return &Object{id: id, rid: rid, hasRID: true, h: h}
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

// RemoteID returns the remote protocol ID the object stands in for (zero
// unless it came from AllocRemote).
func (o *Object) RemoteID() uint64 { return o.rid }

// Label implements Ref.
func (o *Object) Label() string {
	if o.label != "" {
		return o.label
	}
	if o.hasRID {
		return fmt.Sprintf("r%d", o.rid)
	}
	return fmt.Sprintf("obj#%d", o.id)
}

var weakIDs atomic.Uint64

// Weak is a Ref backed by a real weak pointer; the referent becomes dead
// when the Go garbage collector reclaims it.
type Weak[T any] struct {
	id    uint64
	label string
	p     weak.Pointer[T]
}

// NewWeak wraps ptr in a weak Ref.
func NewWeak[T any](ptr *T, label string) *Weak[T] {
	return &Weak[T]{id: weakIDs.Add(1), label: label, p: weak.Make(ptr)}
}

// ID implements Ref.
func (w *Weak[T]) ID() uint64 { return w.id }

// Alive implements Ref.
func (w *Weak[T]) Alive() bool { return w.p.Value() != nil }

// Get returns a strong pointer to the referent, or nil if collected.
func (w *Weak[T]) Get() *T { return w.p.Value() }

// Label implements Ref.
func (w *Weak[T]) Label() string {
	if w.label != "" {
		return w.label
	}
	return fmt.Sprintf("weak#%d", w.id)
}

// ForceCollect encourages the runtime to collect unreachable referents of
// weak Refs. It is best-effort and intended for tests.
func ForceCollect() {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
}
