package shard

import (
	"fmt"

	"rvgo/internal/monitor"
	"rvgo/internal/param"
)

// Router decides which shard processes an event. It exploits the slicing
// semantics (paper §2): trace slices for incompatible parameter instances
// are independent, so the monitor store can be partitioned — provided every
// event reaches every shard whose monitors its slice touches.
//
// The partition key is a spec-level pivot parameter p, chosen so that every
// monitor-creating event binds p (see NewRouter). Under the enable-set
// creation strategy every monitor instance is then guaranteed to bind p:
//
//   - an instance created from ⊥ is the instance of a creation event, and
//     every creation event binds p;
//   - an instance created by a join θ” ⊔ θ extends its progenitor θ”,
//     which binds p by induction.
//
// Because an instance's binding of p never changes, hashing the pivot
// object gives each monitor a stable home shard. Events binding p route to
// that shard; events not binding p (including propositional events) are
// broadcast to every shard, where they can only reach monitors agreeing
// with them — exactly the monitors the sequential engine would dispatch
// them to. Creation joins stay shard-local: a progenitor compatible with a
// pivot-binding event binds the same pivot object, hence lives on the same
// shard, and a join triggered by a broadcast event finds its progenitor on
// whichever single shard owns it. The fresh-object creation guard is also
// preserved: any prior event relevant to a creation on shard k either bound
// the same pivot object (routed to k) or no pivot at all (broadcast), so
// shard k's seen-records contain every record the guard consults.
type Router struct {
	shards int
	pivot  int // parameter index, or -1 when unshardable (single shard)
	// at is, per symbol, the pivot's position among D(sym)'s parameters in
	// ascending order, or -1 when D(sym) does not contain the pivot.
	at []int
	// maskable is, per symbol, Maskable's answer.
	maskable []bool
}

// NewRouter analyzes the spec and selects the pivot parameter. Candidate
// pivots are the parameters bound by every creation event (an event e with
// ∅ ∈ ENABLE(e), per the enable-set analysis of internal/coenable): that is
// what makes every monitor instance bind the pivot. Among candidates the
// one appearing in the most event domains wins — each covered event routes
// to a single shard instead of broadcasting. If no candidate exists the
// spec is unshardable and the router degenerates to a single shard.
func NewRouter(spec *monitor.Spec, shards int) (*Router, error) {
	an, err := spec.Analysis()
	if err != nil {
		return nil, err
	}
	if shards < 1 {
		return nil, fmt.Errorf("shard: %d shards", shards)
	}
	cand := param.Set(1<<uint(len(spec.Params))) - 1
	for sym := range spec.Events {
		if an.Creation[sym] {
			cand = cand.Inter(spec.Events[sym].Params)
		}
	}
	pivot, bestCover := -1, -1
	for _, p := range cand.Members() {
		cover := 0
		for _, ev := range spec.Events {
			if ev.Params.Has(p) {
				cover++
			}
		}
		if cover > bestCover {
			pivot, bestCover = p, cover
		}
	}
	if pivot < 0 {
		shards = 1
	}
	r := &Router{shards: shards, pivot: pivot, at: make([]int, len(spec.Events)), maskable: make([]bool, len(spec.Events))}
	for sym, ev := range spec.Events {
		r.at[sym] = -1
		if pivot >= 0 && ev.Params.Has(pivot) {
			r.at[sym] = (ev.Params & (1<<uint(pivot) - 1)).Count()
		}
		// A join plan of a one-parameter event misses it when R lacks it.
		r.maskable[sym] = pivot >= 0 && ev.Params.Count() == 1 && !ev.Params.Has(pivot)
		for _, R := range an.Domains {
			if spec.Joins(sym, R, monitor.CreateEnable) && !R.Has(ev.Params.First()) {
				r.maskable[sym] = false
			}
		}
	}
	return r, nil
}

// Maskable reports whether an event of symbol sym need reach only the lanes
// its object was already sent to, where the router would broadcast it. It
// binds exactly one parameter, not the pivot, and none of its join plans
// (monitor.Spec.Joins under CreateEnable) has an empty overlap with it; a
// one-parameter event's join plans are domains without its parameter, so
// it has none. On a lane holding no record of its object such an event
// then steps nothing, for no instance there binds the object, and creates
// nothing: it is no creation event (every creation event binds the pivot)
// and joins with no progenitor. An empty-overlap join would combine it
// with the progenitors of any object, on any lane: a two-parameter
// non-pivot event, or one whose enable sets fit a domain without its
// parameter, must still broadcast. What a masked event leaves undone on
// such a lane is the stamp of its domain on the object, which the engine's
// fresh-object creation guard reads when a later creation binds the object
// there: a fan-out that masks it must deliver the stamp before the
// object's first record on a new lane.
func (r *Router) Maskable(sym int) bool { return r.maskable[sym] }

// Shards returns the effective shard count (1 when the spec is
// unshardable, regardless of what was requested).
func (r *Router) Shards() int { return r.shards }

// Pivot returns the pivot parameter index, or -1 when the spec is
// unshardable.
func (r *Router) Pivot() int { return r.pivot }

// Route returns the target shard for an event, or broadcast=true when the
// event must go to every shard (it does not bind the pivot).
func (r *Router) Route(sym int, theta param.Instance) (target int, broadcast bool) {
	var id uint64
	if r.shards > 1 && r.at[sym] >= 0 {
		id = theta.Value(r.pivot).ID()
	}
	return r.route(sym, id)
}

// route is Route given the ID of the event's pivot object; id is ignored
// when D(sym) does not bind the pivot.
func (r *Router) route(sym int, id uint64) (target int, broadcast bool) {
	if r.shards == 1 {
		return 0, false
	}
	if r.at[sym] < 0 {
		return 0, true
	}
	return int(mix(id) % uint64(r.shards)), false
}

// Mix exposes the router's ID-mixing function. Replay drivers that
// partition recorded events by pivot object ID (internal/trace) must use
// the very same hash, so a parallel retroactive replay partitions slices
// exactly as the online sharded runtime would have.
func Mix(id uint64) uint64 { return mix(id) }

// mix is the splitmix64 finalizer: object IDs are sequential, and the
// router needs them spread uniformly over shards.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
