package shard

import (
	"fmt"
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
// An object the caller names by ID (DispatchIDs) has no caller ref: its
// views are held from the first mention and die at their free record like
// any other.
//
// Keep it at the ref, the ID and one state word: the engines retain a view
// per shard for every object they still reference, dead ones awaiting lazy
// expunge included.
type view struct {
	inner heap.Ref // nil for an object named by ID
	id    uint64   // the ID of an object named by ID
	state atomic.Uint32
}

const (
	viewFollow uint32 = iota // no Free yet: liveness is the caller's ref's
	viewHeld                 // a Free is positioned but not yet reached, or the object is named by ID: alive
	viewDead                 // the shard passed the free record
)

// Alive implements heap.Ref. The caller's ref is read first and the state
// second: Free stores held before it returns, hence before the caller can
// kill the object, so a dead inner is always followed by a state that
// already says held (or dead). Read the other way round, a Free and kill
// landing between the two loads would show a death the shard's stream has
// not reached yet.
func (v *view) Alive() bool {
	if v.inner == nil {
		return v.state.Load() == viewHeld
	}
	alive := v.inner.Alive()
	if s := v.state.Load(); s != viewFollow {
		return s == viewHeld
	}
	return alive
}

// ID implements heap.Ref.
func (v *view) ID() uint64 {
	if v.inner == nil {
		return v.id
	}
	return v.inner.ID()
}

// Label implements heap.Ref.
func (v *view) Label() string {
	if v.inner == nil {
		return fmt.Sprintf("r%d", v.id)
	}
	return v.inner.Label()
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

// hold takes the object id names out of the table and marks its views
// held: from here on every shard sees it alive until its own free record.
// It returns nil for an object no event mentioned (or freed already).
func (rt *Runtime) hold(id uint64) []view {
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

// unview returns an engine-side instance over the caller's own refs; an
// object named by ID stays its view, which carries the ID.
func unview(inst param.Instance) param.Instance {
	return inst.Map(func(_ int, v heap.Ref) heap.Ref {
		if inner := v.(*view).inner; inner != nil {
			return inner
		}
		return v
	})
}

// sweep drops the table entries of objects that died without a Free. The
// engines keep the views they still reference; the table only serves later
// mentions, and a dead object has none. An object named by ID leaves the
// table only by its free.
func (rt *Runtime) sweep() {
	rt.tmu.Lock()
	for id, ov := range rt.views {
		if inner := ov[0].inner; inner != nil && !inner.Alive() {
			delete(rt.views, id)
		}
	}
	rt.tmu.Unlock()
}

// lookupIDs is lookup for objects named by ID, ids binding mask in
// ascending parameter order. It returns the instance over the first shard's
// views with them — the event's instance, for routing and seenBy.
func (rt *Runtime) lookupIDs(mask param.Set, ids []uint64) (theta param.Instance, vs objViews) {
	rt.tmu.Lock()
	k := 0
	for m := mask; m != 0; m = m.Rest() {
		i, id := m.First(), ids[k]
		k++
		ov, ok := rt.views[id]
		if !ok {
			ov = make([]view, len(rt.workers))
			for j := range ov {
				ov[j].id = id
				ov[j].state.Store(viewHeld)
			}
			rt.views[id] = ov
		}
		vs[i] = ov
		theta = theta.Bind(i, &ov[0])
	}
	rt.tmu.Unlock()
	return theta, vs
}

// DispatchIDs is Dispatch for a caller that names objects by ID (a server
// session): ids bind D(sym) in ascending parameter-index order. An object
// first named here gets views that follow no ref and die only at the free
// records FreeIDs positions; one runtime takes its objects through one of
// the two entries.
func (rt *Runtime) DispatchIDs(sym int, ids []uint64) {
	rt.checkOpen()
	theta, vs := rt.lookupIDs(rt.spec.Events[sym].Params, ids)
	rt.dispatch(sym, theta, &vs)
}

// TryDispatchIDs is the non-blocking DispatchIDs, refusing as TryDispatch
// does. The views of objects first named by a refused event stay in the
// table for the retry.
func (rt *Runtime) TryDispatchIDs(sym int, ids []uint64) bool {
	rt.checkOpen()
	theta, vs := rt.lookupIDs(rt.spec.Events[sym].Params, ids)
	return rt.tryDispatch(sym, theta, &vs)
}

// FreeIDs is Free for objects named by ID: each death becomes one record in
// every shard's open batch, at this point of the stream. An ID no event
// named costs nothing; an ID freed twice dies once.
func (rt *Runtime) FreeIDs(ids []uint64) {
	for _, id := range ids {
		rt.free(id)
	}
}
