// Package dacapo is the benchmark substrate standing in for the DaCapo
// suite of the paper's evaluation (§5.1). Since this reproduction cannot
// run a JVM, the package provides:
//
//   - instrumented collection / iterator / map types whose operations emit
//     instrumentation events (the role AspectJ weaving plays in the paper),
//     backed by the simulated heap so object death is deterministic; and
//   - fifteen synthetic workload profiles calibrated against the event
//     counts of the paper's Figure 10 (scaled down; see profiles.go).
//
// Adapt turns the instrumentation events into a property's parametric
// events and dispatches them to any monitor.Dispatcher — every backend,
// the tracematch engine and the recorders alike.
//
// The workloads preserve what the paper's evaluation depends on: the
// relative volume of events per property, the ratio of monitors to events,
// and — crucially for the garbage-collection comparison — the lifetime
// asymmetry between long-lived collections and short-lived iterators.
package dacapo

import (
	"errors"
	"time"

	"rvgo/internal/heap"
)

// Op identifies an instrumentation point.
type Op int

// Instrumentation points (the pointcuts of §1's examples).
const (
	OpIterCreate  Op = iota // collection.iterator()
	OpIterHasNext           // iterator.hasNext(), Flag = result
	OpIterNext              // iterator.next(), Flag = inside sync block
	OpCollUpdate            // collection.add/remove/clear
	OpCollSync              // Collections.synchronizedCollection(c)
	OpMapView               // map.values() / map.keySet()
	OpMapUpdate             // map.put/remove/clear
	OpMapSync               // Collections.synchronizedMap(m)
)

// Event is one instrumentation event.
type Event struct {
	Op         Op
	Coll       heap.Ref // collection operand
	Iter       heap.Ref // iterator operand
	Map        heap.Ref // map operand
	Flag       bool     // hasNext result, or "inside sync block"
	CollSynced bool     // the collection was wrapped by OpCollSync
	MapSynced  bool     // the map was wrapped by OpMapSync
	IsView     bool     // the collection is a map view
}

// Sink consumes instrumentation events (a monitoring system adapter).
type Sink func(Event)

// ErrTimeout is returned by workloads that exceed the runtime's deadline —
// the "∞: not terminated" entries of Figure 9.
var ErrTimeout = errors.New("dacapo: workload timed out")

// Runtime owns the heap, the sinks, and the timeout discipline.
type Runtime struct {
	Heap     *heap.Heap
	sinks    []Sink
	deadline time.Time
	ops      int
	workAcc  uint64
	timedOut bool
}

// NewRuntime creates a runtime with no sinks (an unmonitored program).
func NewRuntime() *Runtime {
	return &Runtime{Heap: heap.New()}
}

// AddSink attaches a monitoring system.
func (rt *Runtime) AddSink(s Sink) { rt.sinks = append(rt.sinks, s) }

// SetDeadline aborts the workload after the given instant.
func (rt *Runtime) SetDeadline(t time.Time) { rt.deadline = t }

// TimedOut reports whether the last workload hit the deadline.
func (rt *Runtime) TimedOut() bool { return rt.timedOut }

func (rt *Runtime) emit(ev Event) {
	for _, s := range rt.sinks {
		s(ev)
	}
}

// checkDeadline is called on a coarse schedule by instrumented operations.
func (rt *Runtime) checkDeadline() bool {
	rt.ops++
	if rt.ops&0xFFF != 0 {
		return false
	}
	if !rt.deadline.IsZero() && time.Now().After(rt.deadline) {
		rt.timedOut = true
		return true
	}
	return false
}

// work simulates application computation: w rounds of a cheap xorshift, so
// baseline (unmonitored) runtime is nonzero and overhead percentages mean
// something.
func (rt *Runtime) work(w int) {
	x := rt.workAcc | 1
	for i := 0; i < w; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	rt.workAcc = x
}

// Collection is an instrumented java.util.Collection stand-in.
type Collection struct {
	rt     *Runtime
	obj    *heap.Object
	size   int
	synced bool
	view   *MapObj // non-nil when this is a map's key/value view
}

// NewCollection allocates a collection with the given initial size.
func (rt *Runtime) NewCollection(size int) *Collection {
	return &Collection{rt: rt, obj: rt.Heap.Alloc("coll"), size: size}
}

// Sync wraps the collection à la Collections.synchronizedCollection.
func (c *Collection) Sync() *Collection {
	c.synced = true
	c.rt.emit(Event{Op: OpCollSync, Coll: c.obj, CollSynced: true})
	return c
}

// Ref returns the collection's heap object.
func (c *Collection) Ref() heap.Ref { return c.obj }

// Update mutates the collection (add/remove/clear).
func (c *Collection) Update() {
	c.rt.work(4)
	c.size++
	c.rt.emit(Event{Op: OpCollUpdate, Coll: c.obj, CollSynced: c.synced, IsView: c.view != nil})
	if c.view != nil {
		// Structural changes to a view write through to the map.
		c.view.rt.emit(Event{Op: OpMapUpdate, Map: c.view.obj, MapSynced: c.view.synced})
	}
}

// Iterator creates an iterator; inSync states whether the caller holds the
// collection's lock (relevant for the UNSAFESYNC properties).
func (c *Collection) Iterator(inSync bool) *Iterator {
	it := &Iterator{rt: c.rt, obj: c.rt.Heap.Alloc("iter"), coll: c, remaining: c.size}
	var mref heap.Ref
	msynced := false
	if c.view != nil {
		mref = c.view.obj
		msynced = c.view.synced
	}
	c.rt.emit(Event{
		Op: OpIterCreate, Coll: c.obj, Iter: it.obj, Map: mref,
		Flag: inSync, CollSynced: c.synced, MapSynced: msynced, IsView: c.view != nil,
	})
	return it
}

// Free releases the collection object (its lexical scope ended and the
// "collector" reclaims it).
func (c *Collection) Free() { c.rt.Heap.Free(c.obj) }

// Iterator is an instrumented java.util.Iterator stand-in.
type Iterator struct {
	rt        *Runtime
	obj       *heap.Object
	coll      *Collection
	remaining int
}

// Ref returns the iterator's heap object.
func (it *Iterator) Ref() heap.Ref { return it.obj }

// HasNext probes the iterator, emitting hasnexttrue/hasnextfalse.
func (it *Iterator) HasNext() bool {
	it.rt.work(2)
	res := it.remaining > 0
	it.rt.emit(Event{
		Op: OpIterHasNext, Iter: it.obj, Coll: it.coll.obj, Flag: res,
		CollSynced: it.coll.synced, IsView: it.coll.view != nil,
	})
	return res
}

// Next consumes an element; inSync as for Iterator creation.
func (it *Iterator) Next(inSync bool) {
	it.rt.work(3)
	if it.remaining > 0 {
		it.remaining--
	}
	var mref heap.Ref
	msynced := false
	if it.coll.view != nil {
		mref = it.coll.view.obj
		msynced = it.coll.view.synced
	}
	it.rt.emit(Event{
		Op: OpIterNext, Iter: it.obj, Coll: it.coll.obj, Map: mref,
		Flag: inSync, CollSynced: it.coll.synced, MapSynced: msynced, IsView: it.coll.view != nil,
	})
}

// Free releases the iterator object.
func (it *Iterator) Free() { it.rt.Heap.Free(it.obj) }

// MapObj is an instrumented java.util.Map stand-in.
type MapObj struct {
	rt     *Runtime
	obj    *heap.Object
	size   int
	synced bool
}

// NewMap allocates a map.
func (rt *Runtime) NewMap(size int) *MapObj {
	return &MapObj{rt: rt, obj: rt.Heap.Alloc("map"), size: size}
}

// Sync wraps the map à la Collections.synchronizedMap.
func (m *MapObj) Sync() *MapObj {
	m.synced = true
	m.rt.emit(Event{Op: OpMapSync, Map: m.obj, MapSynced: true})
	return m
}

// Ref returns the map's heap object.
func (m *MapObj) Ref() heap.Ref { return m.obj }

// Update mutates the map.
func (m *MapObj) Update() {
	m.rt.work(4)
	m.size++
	m.rt.emit(Event{Op: OpMapUpdate, Map: m.obj, MapSynced: m.synced})
}

// Values returns the value-view collection (map.values()).
func (m *MapObj) Values() *Collection {
	c := &Collection{rt: m.rt, obj: m.rt.Heap.Alloc("view"), size: m.size, synced: m.synced, view: m}
	m.rt.emit(Event{Op: OpMapView, Map: m.obj, Coll: c.obj, MapSynced: m.synced, IsView: true})
	return c
}

// Free releases the map object.
func (m *MapObj) Free() { m.rt.Heap.Free(m.obj) }
