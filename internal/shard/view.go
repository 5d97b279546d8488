package shard

import (
	"sync/atomic"

	"rvgo/internal/heap"
	"rvgo/internal/param"
)

// view is one shard's liveness view of one parameter object: the ref the
// shard's engine is handed in place of the caller's. Until a Free is
// positioned it follows the caller's ref, so a real weak reference or a
// Barrier-then-kill caller is observed exactly as before. Free moves every
// shard's view to held — alive whatever the caller does to the object from
// then on — and each worker moves its own view to dead when it reaches its
// copy of the free record. A shard therefore sees the death exactly at the
// record's position in its own stream, and no worker waits for another: a
// single view shared by all shards would let shard B see the death as soon
// as shard A passed its record, ahead of events B has yet to process.
//
// Keep it at the ref and one state word: the engines retain a view per
// shard for every object they still reference, dead ones awaiting lazy
// expunge included.
type view struct {
	inner heap.Ref
	state atomic.Uint32
}

const (
	viewFollow uint32 = iota // no Free yet: liveness is the caller's ref's
	viewHeld                 // a Free is positioned but not yet reached: alive
	viewDead                 // the shard passed the free record
)

// ID implements heap.Ref.
func (v *view) ID() uint64 { return v.inner.ID() }

// Label implements heap.Ref.
func (v *view) Label() string { return v.inner.Label() }

// Alive implements heap.Ref. The caller's ref is read first and the state
// second: Free stores held before it returns, hence before the caller can
// kill the object, so a dead inner is always followed by a state that
// already says held (or dead). Read the other way round, a Free and kill
// landing between the two loads would show a death the shard's stream has
// not reached yet.
func (v *view) Alive() bool {
	alive := v.inner.Alive()
	if s := v.state.Load(); s != viewFollow {
		return s == viewHeld
	}
	return alive
}

// objViews is the per-shard views of the objects one instance binds,
// indexed by parameter.
type objViews [param.MaxParams][]view

// lookup returns the views of every object theta binds, entering objects
// mentioned for the first time into the table.
func (rt *Runtime) lookup(theta param.Instance) (vs objViews) {
	rt.tmu.Lock()
	for m := theta.Mask(); m != 0; m = m.Rest() {
		i := m.First()
		ref := theta.Value(i)
		id := ref.ID()
		ov, ok := rt.views[id]
		if !ok {
			ov = make([]view, len(rt.workers))
			for k := range ov {
				ov[k].inner = ref
			}
			rt.views[id] = ov
		}
		vs[i] = ov
	}
	rt.tmu.Unlock()
	return vs
}

// hold takes ref's object out of the table and marks its views held: from
// here on every shard sees it alive until its own free record. It returns
// nil for an object no event mentioned (or freed already).
func (rt *Runtime) hold(ref heap.Ref) []view {
	id := ref.ID()
	rt.tmu.Lock()
	ov := rt.views[id]
	delete(rt.views, id)
	rt.tmu.Unlock()
	for k := range ov {
		ov[k].state.Store(viewHeld)
	}
	return ov
}

// seenBy returns theta as the given shard sees it: the same instance over
// the shard's views.
func (vs *objViews) seenBy(shard int, theta param.Instance) param.Instance {
	return theta.Map(func(i int, _ heap.Ref) heap.Ref { return &vs[i][shard] })
}

// unview returns an engine-side instance over the caller's own refs.
func unview(inst param.Instance) param.Instance {
	return inst.Map(func(_ int, v heap.Ref) heap.Ref { return v.(*view).inner })
}

// sweep drops the table entries of objects that died without a Free. The
// engines keep the views they still reference; the table only serves later
// mentions, and a dead object has none.
func (rt *Runtime) sweep() {
	rt.tmu.Lock()
	for id, ov := range rt.views {
		if !ov[0].inner.Alive() {
			delete(rt.views, id)
		}
	}
	rt.tmu.Unlock()
}
