package monitor

import (
	"rvgo/internal/arena"
	"rvgo/internal/index"
	"rvgo/internal/param"
)

// RaceBuild reports a race build: the arena poison checks are armed and
// allocation counts mean nothing.
const RaceBuild = poolCheck

// SweepNow makes a lazy engine collect what its refs' deaths so far left
// collectable, as a positioned engine does at each free and at the end of
// each event, without going through settle, so that the eager-collection
// oracle holds settle to a reference that does not use it: per θ-record
// with a dead object, in table order, settle's two steps; then the
// registries let go of every member with a dead object (deadParam); then
// every dead unpinned object record goes. It runs twice: the second
// pass's Δ rules see the flags and refcounts the first one's registry
// compaction settled, and a third would change nothing. The oracle calls
// it after every death and every event.
func SweepNow(e *Engine) {
	for range 2 {
		e.objs.observe()
		for th, s := range e.intern.All() {
			if e.objs.anyDead(&s.B) {
				e.detachDead(s)
				e.retireDead(th, s)
			}
		}
		for i := range e.domains {
			e.domains[i].all.Compact(&e.leaves, deadParam{(*registry)(e)})
		}
		for h := range e.objs.recs {
			if r := &e.objs.recs[h]; r.inUse() && r.pins == 0 && r.dead {
				e.objs.dropOne(uint32(h), e.onRelease)
			}
		}
	}
}

// deadParam is SweepNow's registry rule: besides what the registry drops
// itself, a member with a dead bound object, which no weak key reaches.
type deadParam struct{ *registry }

func (r deadParam) Collectable(h index.Handle) bool {
	e := (*Engine)(r.registry)
	return r.registry.Collectable(h) || !e.objs.allAlive(e.bindOf(e.mons.At(h)))
}

// HeldRefs counts the refs of the monitored program the engine can reach:
// the object records, one ref each. Nothing else holds one — the θ-records
// bind object handles and the index hangs off them, holding monitor
// handles only.
func HeldRefs(e *Engine) int { return e.objs.idx.Len() }

// IndexStats returns the leaf pool's occupancy, the words of the block
// heap (member vectors, registries and θ lists, free blocks included) and
// the total membership of the domain registries.
func IndexStats(e *Engine) (leaves arena.Stats, words, registered int) {
	for i := range e.domains {
		registered += e.domains[i].all.Len()
	}
	return e.leaves.Stats(), e.leaves.Heap().Len(), registered
}

// RegistryShape returns the length and the capacity of domain R's
// registry member vector, stale entries included.
func RegistryShape(e *Engine, R param.Set) (n, c int) {
	m := e.domainOf(R).all.Members(&e.leaves)
	return len(m), cap(m)
}

// LeafLen returns the size of the leaf for domain R under the key tuple, or
// -1 if the key or the leaf does not exist.
func LeafLen(e *Engine, key param.Instance, R param.Set) int {
	kh, ok := e.lookup(key)
	if !ok {
		return -1
	}
	leaf := e.leaves.Find(e.intern.At(kh).Data.leaf, R)
	if leaf == nil {
		return -1
	}
	return leaf.Len()
}

// MonRefs returns the container refcount of Δ(θ) and the number of key
// domains its domain is indexed under; ok is false if θ has no monitor.
func MonRefs(e *Engine, inst param.Instance) (refs int32, keys int, ok bool) {
	th, found := e.lookup(inst)
	if !found || e.intern.At(th).Data.mon == arena.Nil {
		return 0, 0, false
	}
	return e.mons.At(e.intern.At(th).Data.mon).refs, len(e.domainOf(inst.Mask()).keys), true
}

// UnmapWithLeaf and LeakLeafMember corrupt the engine the way two sweep
// mutants would — unmapping a θ-record before its leaves are detached, and
// detaching without the Release — so a test can show CheckTheta catches
// them. Each reports whether it found a leaf to corrupt.
func UnmapWithLeaf(e *Engine) bool {
	for th, s := range e.intern.All() {
		if s.Data.leaf != arena.Nil && s.Data.mon == arena.Nil {
			e.intern.Pin(th) // keep the record: the mutant's monitors pin it
			e.intern.Unmap(th)
			return true
		}
	}
	return false
}

func LeakLeafMember(e *Engine) bool {
	for _, s := range e.intern.All() {
		if s.Data.leaf != arena.Nil {
			e.leaves.Detach(noRelease{e}, &s.Data.leaf)
			return true
		}
	}
	return false
}

type noRelease struct{ *Engine }

func (noRelease) Release(index.Handle) {}

// ObjectSlots is the object table's length: records live and free. Fewer
// slots than objects met means handles were reissued — under race builds,
// each after its pooledObject poison was verified.
func ObjectSlots(e *Engine) int { return len(e.objs.recs) }

// JoinDomains returns the domains of the engine's join plans for symbol
// sym, in plan order.
func JoinDomains(e *Engine, sym int) []param.Set {
	var ds []param.Set
	for _, jp := range e.joins[sym] {
		ds = append(ds, jp.R)
	}
	return ds
}
