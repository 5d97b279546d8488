package monitor

import (
	"rvgo/internal/arena"
	"rvgo/internal/heap"
	"rvgo/internal/param"
	"rvgo/internal/probe"
)

// object is one record of an engine's object table: a parameter object the
// engine has met in an event, kept once however many θ-records bind it.
// The object is named by the caller's ref (Dispatch, DispatchHeld) or by
// its ID alone (DispatchIDs). An ID-named record never gets a ref: a
// verdict names its objects by ID (Verdict.Key), and only a ref-named
// record's ref goes into Verdict.Inst.
type object struct {
	ref heap.Ref
	id  uint64
	// at and n locate the record's θ list in the table's heap: the
	// handles of the θ-records that bind the object, kept for a held
	// record only (at 0: none yet). Its free walks the list. Entries go
	// stale when their θ-records are recycled, and are dropped when the
	// list next fills its block.
	at, n uint32
	// pins is the number of θ-records whose binding names the object.
	pins int32
	// doms is the set of event parameter-domains the object has been bound
	// under (bit i for Engine.evDomains[i]), for the fresh-object creation
	// guard (priorEventsOK).
	doms uint16
	// dead marks a death the engine knows of: FreeIDs sets it for a held
	// record, which is never asked, and a sweep (observe) for a record
	// whose ref it asks. Until then a ref's death is read, not kept: Alive
	// is monotone (heap.Ref), so what dead records is what the engine has
	// collected, or is about to.
	dead bool
	// held marks a record whose liveness is its dead bit alone: the object
	// came in by DispatchHeld or DispatchIDs, and only its free ends it.
	held bool
}

// objects is the object table: the one place an engine keeps a caller's
// heap.Ref, or the ID of an object the caller names by ID, and the place a
// verdict reads its Key's IDs from. θ-records bind
// the uint32 handles it issues (param.Binding), so the θ-table itself holds
// no pointer, and a θ's liveness is read through the records of its
// objects. A record lives while a θ-record pins it or its death is not
// known; it goes where its death (a free, a sweep) or its last θ-record's
// recycling leaves it dead and unpinned (drain), and Close drops all of
// them. Records are found
// by ID through idx, an open-addressing index (package probe) that stores
// handle+1 per record and reads the ID back from the record, so each ID is
// kept once. The zero value is not ready; see newObjects.
type objects struct {
	idx  probe.Table[uint32] // by ID: handle+1 of every record in use
	recs []object            // by handle; see inUse
	free []uint32            // recycled handles, LIFO
	// heap holds the held records' θ lists (lists.go): the engine's block
	// heap, owned by its leaf store.
	heap *arena.Blocks
	// dropq holds the handles of records that are dead and unpinned: the
	// engine drops them (drain) once the death that emptied them has been
	// applied. It starts in dropBuf.
	dropq   []uint32
	dropBuf [8]uint32
	// check arms poison-on-free (race builds): a freed record is scrambled
	// and verified when its handle is reissued, like the arena pools.
	check bool
}

func newObjects(heap *arena.Blocks, check bool) objects {
	return objects{idx: probe.New[uint32](), heap: heap, check: check}
}

// pooledObject is the poison of a freed record under check: an ID no object
// has and a negative pin count, with no domain bit, no death and no hold,
// so a stale pin, domain, death or hold write shows. Its nil ref makes a
// liveness read through a stale handle panic.
var pooledObject = object{id: ^uint64(0), pins: -1}

// inUse reports whether a record names an object: a free one has neither a
// ref nor a hold.
func (r *object) inUse() bool { return r.ref != nil || r.held }

// handle returns v's handle, adding a record on first sight.
func (o *objects) handle(v heap.Ref) uint32 {
	id := v.ID()
	if h, ok := o.find(id); ok {
		return h
	}
	return o.add(object{ref: v, id: id})
}

// find returns the handle of the record of the object id names, if the
// table holds one.
func (o *objects) find(id uint64) (uint32, bool) {
	for i := o.idx.Home(o.hash(id)); ; i = o.idx.Next(i) {
		x := o.idx.Slot(i)
		if x == 0 {
			return 0, false
		}
		if o.recs[x-1].id == id {
			return x - 1, true
		}
	}
}

// hash is the index's hash of an ID; rehash that of the ID in the record
// an index entry names.
func (o *objects) hash(id uint64) uint64 { return probe.Mix(o.idx.Seed(), id) }

func (o *objects) rehash(x uint32) uint64 { return o.hash(o.recs[x-1].id) }

// add adds r, the record of a newly met object.
func (o *objects) add(r object) uint32 {
	var h uint32
	if n := len(o.free); n > 0 {
		h = o.free[n-1]
		o.free = o.free[:n-1]
		if o.check && o.recs[h] != pooledObject {
			panic("monitor: free-list object record was mutated while pooled")
		}
	} else {
		h = uint32(len(o.recs))
		o.recs = append(o.recs, object{})
	}
	o.recs[h] = r
	o.idx.Insert(o.hash(r.id), h+1, o.rehash)
	return h
}

// alive reports whether the object is alive: a record's death is known,
// or its ref is asked.
func (o *objects) alive(h uint32) bool {
	r := &o.recs[h]
	return !r.dead && (r.held || r.ref.Alive())
}

// allAlive reports whether every object b binds is alive.
func (o *objects) allAlive(b *param.Binding) bool {
	for m := b.Mask; m != 0; m = m.Rest() {
		if !o.alive(b.H[m.First()]) {
			return false
		}
	}
	return true
}

// aliveMask returns the parameters of b whose objects are alive.
func (o *objects) aliveMask(b *param.Binding) param.Set {
	var s param.Set
	for m := b.Mask; m != 0; m = m.Rest() {
		if i := m.First(); o.alive(b.H[i]) {
			s |= 1 << uint(i)
		}
	}
	return s
}

// anyDead reports whether b binds an object whose death is known: after
// observe, the sweep's test for a θ-record, without a call through a ref.
func (o *objects) anyDead(b *param.Binding) bool {
	for m := b.Mask; m != 0; m = m.Rest() {
		if o.recs[b.H[m.First()]].dead {
			return true
		}
	}
	return false
}

// observe asks every followed record's object once whether it is alive,
// and marks the deaths it finds; a record found dead that no θ-record
// binds is queued for drain.
func (o *objects) observe() {
	for h := range o.recs {
		if r := &o.recs[h]; r.ref != nil && !r.held && !r.dead && !r.ref.Alive() {
			r.dead = true
			if r.pins == 0 {
				o.dropq = append(o.dropq, uint32(h))
			}
		}
	}
}

// unpin drops a θ-record's claims on the objects it binds (the engine's
// pinB takes them). A record of a dead object that loses its last pin is
// queued for drain.
func (o *objects) unpin(b *param.Binding) {
	for m := b.Mask; m != 0; m = m.Rest() {
		x := b.H[m.First()]
		r := &o.recs[x]
		if r.pins--; r.pins == 0 && r.dead {
			o.dropq = append(o.dropq, x)
		}
	}
}

// dropOne releases the record h, with its θ list.
func (o *objects) dropOne(h uint32, onRelease func(uint64)) {
	r := &o.recs[h]
	id := r.id
	o.idx.Delete(o.hash(id), h+1, o.rehash)
	if r.at != 0 {
		o.heap.Release(r.at)
	}
	if o.check {
		*r = pooledObject
	} else {
		*r = object{}
	}
	o.free = append(o.free, h)
	if onRelease != nil {
		onRelease(id)
	}
}

// drain drops the queued records that are still dead and unpinned: such
// an object can never recur in an event, so nothing will look it up again.
// Each dropped ID goes to onRelease, if set.
func (o *objects) drain(onRelease func(uint64)) {
	for _, x := range o.dropq {
		if r := &o.recs[x]; r.inUse() && r.pins == 0 && r.dead {
			o.dropOne(x, onRelease)
		}
	}
	o.dropq = o.dropq[:0]
}

// reset drops every record and with it every ref, releasing none.
func (o *objects) reset() { *o = newObjects(o.heap, o.check) }
