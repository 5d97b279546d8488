package shard

import (
	"fmt"
	"slices"

	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/probe"
)

// MaxLanes is the most lanes a Router places records over: a set of lanes
// is one uint64.
const MaxLanes = 64

// Router is the one fan-out core: it decides which lanes (the shards of a
// Runtime, the slots of a cluster fanout) each record of one stream goes
// to, as a set of lanes, and keeps the per-object state that decision
// needs. It exploits the slicing semantics (paper §2): trace slices for
// incompatible parameter instances are independent, so the monitor store
// can be partitioned — provided every record reaches every lane whose
// monitors its slice touches. A Router is not safe for concurrent use: its
// owner serializes the stream through it.
//
// Pivot. The partition key is a spec-level pivot parameter p, chosen so
// that every monitor-creating event binds p (see Pivot). Under the
// enable-set creation strategy every monitor instance then binds p:
//
//   - an instance created from ⊥ is the instance of a creation event, and
//     every creation event binds p;
//   - an instance created by a join θ” ⊔ θ extends its progenitor θ”,
//     which binds p by induction.
//
// Because an instance's binding of p never changes, LaneOf the pivot
// object gives each monitor a stable home lane, and an event binding p goes
// to that lane alone. Creation joins stay lane-local: a progenitor
// compatible with a pivot-binding event binds the same pivot object, hence
// lives on the same lane.
//
// Placements. An event that does not bind p, and a free, matter only to
// the lanes whose slices bind their objects, and those are among the lanes
// the objects' records went to. A Router keeps, per live object, that set
// of lanes (its placement), from its first record to its free. A maskable
// event (Maskable) goes only to its object's lanes; the rest — an event of
// more than one parameter, a propositional one, one that joins with any
// object's monitors, and any event of an object no record named yet — go
// to every lane. Every object an event names enters the lanes it goes to
// into its placement.
//
// Primers. One effect of a masked event is lost on the lanes it skips: the
// stamp of its domain on the object, which the engine's fresh-object
// creation guard reads when a later creation binds the object. So when a
// record brings an object to a lane outside its placement, the lane is
// first sent, for each domain stamped, one maskable event naming only that
// object (Primers): on a lane with no record of the object it can only
// stamp it.
//
// Frees. A free goes only to its object's lanes, and the object is
// released on every other lane at once, for those hold no record of it.
// An ID with no placement — no record named it, or it was freed before —
// goes to every lane: a lane that still holds the dead record of an
// earlier free must release it itself, when its engine drops the record.
type Router struct {
	lanes int
	seed  uint64
	all   uint64 // the mask of every lane
	pivot int    // parameter index, or -1 when unshardable (one lane)
	// at is, per symbol, the pivot's position among D(sym)'s parameters in
	// ascending order, or -1 when D(sym) does not contain the pivot.
	at []int
	// maskable is, per symbol, Maskable's answer; params is D(sym); and
	// primer[x] is a maskable symbol binding parameter x, what a stamp of x
	// is primed with.
	maskable []bool
	params   []param.Set
	primer   [param.MaxParams]int

	// The placements, by object ID: entries found through an
	// open-addressing index that stores handle+1 and reads the ID back from
	// the entry, and reused once freed, so a placement costs no allocation
	// once the table has grown to the live objects.
	idx  probe.Table[uint32]
	recs []placement
	free []uint32 // recycled handles, LIFO

	// Scratch: Peek's primers and the placements it found for each ID (+1,
	// 0 for none), Free's lanes per ID, one lane's share of them, and the
	// ID being released (copied, so the caller's IDs never reach the
	// callback).
	primers   []Primer
	peeked    [param.MaxParams]uint32
	freeLanes []uint64
	share     []uint64
	rel       [1]uint64
}

// placement is an object's entry: the lanes its records went to, and the
// one-parameter domains of the maskable events that named it — the stamps
// the engines of those lanes keep on the object, which a lane it moves to
// must be given first.
type placement struct {
	id     uint64
	lanes  uint64
	stamps param.Set
}

// Primer is one record a lane must be sent ahead of the record being
// placed: the maskable event Sym naming only the object ID, for each lane
// of Lanes.
type Primer struct {
	Sym   int
	ID    uint64
	Lanes uint64
}

// Pivot selects the spec's pivot parameter, or -1 when it has none.
// Candidate pivots are the parameters bound by every creation event (an
// event e with ∅ ∈ ENABLE(e), per the enable-set analysis of
// internal/coenable): that is what makes every monitor instance bind the
// pivot. Among candidates the one appearing in the most event domains wins
// — each covered event goes to a single lane instead of every lane. A
// trace recorder indexes this parameter, so a replay partitioned by the
// index is partitioned as the online runtime was.
func Pivot(spec *monitor.Spec) (int, error) {
	an, err := spec.Analysis()
	if err != nil {
		return -1, err
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
	return pivot, nil
}

// LaneOf is the lane of the pivot object id among lanes under seed: the
// one hash shards, cluster slots and parallel trace replay partition by.
func LaneOf(id, seed uint64, lanes int) int { return int(mix(id^seed) % uint64(lanes)) }

// NewRouter analyzes the spec and builds the core for the given number of
// lanes, at most MaxLanes; seed perturbs LaneOf. A spec with no pivot is
// unshardable and gets one lane, whatever was asked.
func NewRouter(spec *monitor.Spec, lanes int, seed uint64) (*Router, error) {
	if lanes < 1 || lanes > MaxLanes {
		return nil, fmt.Errorf("shard: %d lanes, want 1..%d", lanes, MaxLanes)
	}
	pivot, err := Pivot(spec)
	if err != nil {
		return nil, err
	}
	an, _ := spec.Analysis()
	if pivot < 0 {
		lanes = 1
	}
	n := len(spec.Events)
	r := &Router{
		lanes: lanes, seed: seed, all: ^uint64(0) >> uint(64-lanes), pivot: pivot,
		at: make([]int, n), maskable: make([]bool, n), params: make([]param.Set, n),
		idx: probe.New[uint32](),
	}
	for sym, ev := range spec.Events {
		r.params[sym] = ev.Params
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
		if r.maskable[sym] {
			r.primer[ev.Params.First()] = sym
		}
	}
	return r, nil
}

// Maskable reports whether an event of symbol sym need reach only the lanes
// its object was already sent to, where it would otherwise go to every lane.
// It binds exactly one
// parameter, not the pivot, and none of its join plans (monitor.Spec.Joins
// under CreateEnable) has an empty overlap with it; a one-parameter event's
// join plans are domains without its parameter, so it has none. On a lane
// holding no record of its object such an event then steps nothing, for no
// instance there binds the object, and creates nothing: it is no creation
// event (every creation event binds the pivot) and joins with no progenitor.
// An empty-overlap join would combine it with the progenitors of any object,
// on any lane: a two-parameter non-pivot event, or one whose enable sets fit
// a domain without its parameter, must still go everywhere. What a masked
// event leaves undone on such a lane is the stamp of its domain on the
// object, which Primers delivers.
func (r *Router) Maskable(sym int) bool { return r.maskable[sym] }

// Lanes returns the effective lane count (1 when the spec is unshardable,
// regardless of what was requested).
func (r *Router) Lanes() int { return r.lanes }

// All returns the mask of every lane.
func (r *Router) All() uint64 { return r.all }

// Pivot returns the pivot parameter index, or -1 when the spec is
// unshardable.
func (r *Router) Pivot() int { return r.pivot }

// Route returns the lanes the event sym over the objects ids (D(sym) in
// ascending parameter order) goes to, enters the event into its objects'
// placements and gathers
// the records that must reach some of its lanes first (Primers): Peek,
// then Place.
func (r *Router) Route(sym int, ids []uint64) uint64 {
	lanes := r.Peek(sym, ids)
	r.Place(sym, ids, lanes)
	return lanes
}

// Peek is Route without the commit: it returns the lanes and gathers the
// primers, and changes no placement. A caller that may yet refuse the
// event (an all-or-nothing delivery that finds a lane full) peeks, and
// calls Place with the same arguments only once the event is accepted.
func (r *Router) Peek(sym int, ids []uint64) uint64 {
	if r.lanes == 1 {
		return 1
	}
	lanes := r.all
	if at := r.at[sym]; at >= 0 {
		lanes = 1 << uint(LaneOf(ids[at], r.seed, r.lanes))
	} else if r.maskable[sym] {
		if h := r.find(ids[0]); h != 0 {
			lanes = r.recs[h-1].lanes
		}
	}
	r.primers = r.primers[:0]
	for k, id := range ids {
		h := r.find(id)
		r.peeked[k] = h
		if h == 0 || slices.Contains(ids[:k], id) {
			continue
		}
		p := &r.recs[h-1]
		if moved := lanes &^ p.lanes; moved != 0 && p.stamps != 0 {
			for xm := p.stamps; xm != 0; xm = xm.Rest() {
				r.primers = append(r.primers, Primer{Sym: r.primer[xm.First()], ID: id, Lanes: moved})
			}
		}
	}
	return lanes
}

// Place enters the event the last Peek looked at, sent to lanes, into its
// objects' placements.
func (r *Router) Place(sym int, ids []uint64, lanes uint64) {
	if r.lanes == 1 {
		return
	}
	var stamp param.Set
	if r.maskable[sym] {
		stamp = r.params[sym]
	}
	for k, id := range ids {
		if slices.Contains(ids[:k], id) {
			continue
		}
		h := r.peeked[k]
		if h == 0 {
			h = r.add(id)
		}
		p := &r.recs[h-1]
		p.lanes |= lanes
		p.stamps |= stamp
	}
}

// Primers returns the records the last Peek or Route gathered, each to be
// sent to its lanes ahead of the event: valid until the next one.
func (r *Router) Primers() []Primer { return r.primers }

// Free places the frees of ids and drops their placements: each ID goes to
// the lanes its object's records went to, every lane for an ID with no
// placement, and release (when non-nil) is called, one ID at a time, with
// the lanes an ID does not go to, where it is released instead. It returns
// the union of the lanes; Share splits the IDs among them. The placements
// are read before any is dropped, so an ID named twice goes where its
// object went both times.
func (r *Router) Free(ids []uint64, release func(lanes uint64, ids []uint64)) (union uint64) {
	lanes := r.freeLanes[:0]
	for _, id := range ids {
		m := r.all
		if h := r.find(id); h != 0 {
			m = r.recs[h-1].lanes
		}
		if m != r.all && release != nil {
			r.rel[0] = id
			release(r.all&^m, r.rel[:])
		}
		lanes = append(lanes, m)
		union |= m
	}
	r.freeLanes = lanes
	for _, id := range ids {
		r.drop(id)
	}
	return union
}

// Share returns the IDs of the last Free's ids that go to lane, in order:
// valid until the next Share.
func (r *Router) Share(ids []uint64, lane int) []uint64 {
	s := r.share[:0]
	for k, id := range ids {
		if r.freeLanes[k]&(1<<uint(lane)) != 0 {
			s = append(s, id)
		}
	}
	r.share = s
	return s
}

func (r *Router) hash(id uint64) uint64  { return probe.Mix(r.idx.Seed(), id) }
func (r *Router) rehash(x uint32) uint64 { return r.hash(r.recs[x-1].id) }

// find returns the handle+1 of id's placement, or 0 when it has none.
func (r *Router) find(id uint64) uint32 {
	for i := r.idx.Home(r.hash(id)); ; i = r.idx.Next(i) {
		x := r.idx.Slot(i)
		if x == 0 || r.recs[x-1].id == id {
			return x
		}
	}
}

// add enters an empty placement for id, which has none, and returns its
// handle+1.
func (r *Router) add(id uint64) uint32 {
	var h uint32
	if n := len(r.free); n > 0 {
		h = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		h = uint32(len(r.recs))
		r.recs = append(r.recs, placement{})
	}
	r.recs[h] = placement{id: id}
	r.idx.Insert(r.hash(id), h+1, r.rehash)
	return h + 1
}

// drop removes id's placement, if any: the object was freed.
func (r *Router) drop(id uint64) {
	x := r.find(id)
	if x == 0 {
		return
	}
	r.idx.Delete(r.hash(id), x, r.rehash)
	r.recs[x-1] = placement{}
	r.free = append(r.free, x-1)
}

// Mix exposes the ID-mixing function LaneOf is built on, for hashes that
// place other things than records (a cluster's slots on its nodes).
func Mix(id uint64) uint64 { return mix(id) }

// mix is the splitmix64 finalizer: object IDs are sequential, and lanes
// need them spread uniformly.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
