package dacapo

import (
	"fmt"

	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
)

// fastEv is one pre-resolved parametric event: the symbol plus the
// parameter indices it binds, in ascending order.
type fastEv struct {
	sym    int
	p1, p2 int
}

// resolver pre-resolves a property's event names against the backend's
// compiled spec; emit1/emit2 then cost one Bind chain and one Dispatch.
type resolver struct {
	d   monitor.Dispatcher
	err error
}

func (r *resolver) ev(name string, arity int) fastEv {
	if r.err != nil {
		return fastEv{}
	}
	spec := r.d.Spec()
	sym, ok := spec.Symbol(name)
	if !ok {
		r.err = fmt.Errorf("dacapo: spec %q has no event %q", spec.Name, name)
		return fastEv{}
	}
	ps := spec.Events[sym].Params
	if ps.Count() != arity {
		r.err = fmt.Errorf("dacapo: event %q binds %d parameters, adapter expects %d", name, ps.Count(), arity)
		return fastEv{}
	}
	f := fastEv{sym: sym, p1: ps.First()}
	if arity == 2 {
		f.p2 = ps.Rest().First()
	}
	return f
}

func (r *resolver) emit1(f fastEv, a heap.Ref) {
	r.d.Dispatch(f.sym, param.Empty().Bind(f.p1, a))
}

func (r *resolver) emit2(f fastEv, a, b heap.Ref) {
	r.d.Dispatch(f.sym, param.Empty().Bind(f.p1, a).Bind(f.p2, b))
}

// Adapt translates instrumentation events into the parametric events of a
// named property, mirroring the AspectJ pointcuts of §1's figures. The
// property's event symbols and parameter indices are resolved once against
// d's spec, so each instrumentation event becomes one direct Dispatch(sym,
// θ): no per-event name lookup, no variadic slice, no allocation. Unknown
// properties are an error, as is a spec that lacks a property's events.
func Adapt(property string, d monitor.Dispatcher) (Sink, error) {
	r := &resolver{d: d}
	switch property {
	case "HasNext", "HasNextLTL":
		hnT, hnF, next := r.ev("hasnexttrue", 1), r.ev("hasnextfalse", 1), r.ev("next", 1)
		if r.err != nil {
			return nil, r.err
		}
		return func(ev Event) {
			switch ev.Op {
			case OpIterHasNext:
				if ev.Flag {
					r.emit1(hnT, ev.Iter)
				} else {
					r.emit1(hnF, ev.Iter)
				}
			case OpIterNext:
				r.emit1(next, ev.Iter)
			}
		}, nil

	case "UnsafeIter":
		create, update, next := r.ev("create", 2), r.ev("update", 1), r.ev("next", 1)
		if r.err != nil {
			return nil, r.err
		}
		return func(ev Event) {
			switch ev.Op {
			case OpIterCreate:
				r.emit2(create, ev.Coll, ev.Iter)
			case OpCollUpdate:
				r.emit1(update, ev.Coll)
			case OpIterNext:
				r.emit1(next, ev.Iter)
			}
		}, nil

	case "UnsafeMapIter":
		createColl, createIter := r.ev("createColl", 2), r.ev("createIter", 2)
		useIter, updateMap := r.ev("useIter", 1), r.ev("updateMap", 1)
		if r.err != nil {
			return nil, r.err
		}
		return func(ev Event) {
			switch ev.Op {
			case OpMapView:
				r.emit2(createColl, ev.Map, ev.Coll)
			case OpIterCreate:
				if ev.IsView {
					r.emit2(createIter, ev.Coll, ev.Iter)
				}
			case OpIterNext:
				r.emit1(useIter, ev.Iter)
			case OpMapUpdate:
				r.emit1(updateMap, ev.Map)
			}
		}, nil

	case "UnsafeSyncColl":
		sync := r.ev("sync", 1)
		syncCreate, asyncCreate := r.ev("syncCreateIter", 2), r.ev("asyncCreateIter", 2)
		syncAcc, asyncAcc := r.ev("syncAccess", 1), r.ev("asyncAccess", 1)
		if r.err != nil {
			return nil, r.err
		}
		return func(ev Event) {
			switch ev.Op {
			case OpCollSync:
				r.emit1(sync, ev.Coll)
			case OpIterCreate:
				if ev.Flag {
					r.emit2(syncCreate, ev.Coll, ev.Iter)
				} else {
					r.emit2(asyncCreate, ev.Coll, ev.Iter)
				}
			case OpIterNext:
				if ev.Flag {
					r.emit1(syncAcc, ev.Iter)
				} else {
					r.emit1(asyncAcc, ev.Iter)
				}
			}
		}, nil

	case "UnsafeSyncMap":
		sync, createSet := r.ev("sync", 1), r.ev("createSet", 2)
		syncCreate, asyncCreate := r.ev("syncCreateIter", 2), r.ev("asyncCreateIter", 2)
		syncAcc, asyncAcc := r.ev("syncAccess", 1), r.ev("asyncAccess", 1)
		if r.err != nil {
			return nil, r.err
		}
		return func(ev Event) {
			switch ev.Op {
			case OpMapSync:
				r.emit1(sync, ev.Map)
			case OpMapView:
				r.emit2(createSet, ev.Map, ev.Coll)
			case OpIterCreate:
				if !ev.IsView {
					return
				}
				if ev.Flag {
					r.emit2(syncCreate, ev.Coll, ev.Iter)
				} else {
					r.emit2(asyncCreate, ev.Coll, ev.Iter)
				}
			case OpIterNext:
				if !ev.IsView {
					return
				}
				if ev.Flag {
					r.emit1(syncAcc, ev.Iter)
				} else {
					r.emit1(asyncAcc, ev.Iter)
				}
			}
		}, nil
	}
	return nil, fmt.Errorf("dacapo: no adapter for property %q", property)
}
