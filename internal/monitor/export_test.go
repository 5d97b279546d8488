package monitor

import (
	"fmt"

	"rvgo/internal/arena"
	"rvgo/internal/index"
	"rvgo/internal/param"
)

// RaceBuild reports a race build: the arena poison checks are armed and
// allocation counts mean nothing.
const RaceBuild = poolCheck

// SeenObjects returns the size of the fresh-object guard's per-object table.
func SeenObjects(e *Engine) int { return len(e.seen) }

// HeldRefs counts the refs of the monitored program the engine can reach:
// the bindings of every θ-record and the fresh-object records. Nothing else
// holds one — the index hangs off the θ-records and holds handles only.
func HeldRefs(e *Engine) int {
	n := len(e.seen)
	for _, s := range e.intern.All() {
		n += s.Inst.Mask().Count()
	}
	return n
}

// IndexStats returns the leaf pool's occupancy, the length of the member-
// vector free list and the total membership of the domain registries.
func IndexStats(e *Engine) (leaves arena.Stats, vectors, registered int) {
	for i := range e.domains {
		registered += e.domains[i].all.Len()
	}
	return e.leaves.Stats(), e.leaves.Vectors(), registered
}

// LeafLen returns the size of the leaf for domain R under the key tuple, or
// -1 if the key or the leaf does not exist.
func LeafLen(e *Engine, key param.Instance, R param.Set) int {
	kh, ok := e.intern.Get(key.Key())
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
	th, found := e.intern.Get(inst.Key())
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

// CheckTheta walks the θ-table and the monitor arena and reports the first
// violation of the invariants that tie them together — the rules the engine
// used to keep between five tables, stated on the one record:
//
//   - Δ(θ) ≠ Nil ⇒ θ is mapped, the monitor record is live, and it names
//     this θ-record back;
//   - a tombstoned θ is mapped and has no monitor;
//   - a θ-record's pin count is the number of live monitor records naming
//     it (so every monitor's instance handle resolves);
//   - an unmapped θ-record is pinned (otherwise it would have recycled);
//   - no two mapped θ-records share a key, and the table maps exactly the
//     mapped ones;
//
// and the rules that tie the leaf records to both:
//
//   - a θ-record with a leaf is mapped, and its chain holds at most one
//     record per domain (ascending);
//   - every member of the leaf for R under κ is a live monitor record whose
//     domain is R and whose instance extends κ;
//   - a monitor's refcount is the number of leaves and registries holding
//     it (refcount = in-edge count), and a collected monitor is in none;
//   - every live leaf record is on some θ-record's chain.
//
// With flushed set (right after Flush) additionally no leaf is empty and
// none hangs off a θ-record with a dead object. After ROADMAP's
// Engine.CheckInvariants list.
func CheckTheta(e *Engine, flushed bool) error {
	pins := map[arena.Handle]int32{}
	for _, m := range e.mons.All() {
		pins[m.instH]++
	}
	edges := map[arena.Handle]int32{}
	for i := range e.domains {
		d := &e.domains[i]
		for _, h := range d.all.Members() {
			if !e.mons.Alive(h) {
				return fmt.Errorf("registry %v holds %v, a recycled monitor", d.R, h)
			}
			if got := e.instOf(e.mons.At(h)).Mask(); got != d.R {
				return fmt.Errorf("registry %v holds a monitor of domain %v", d.R, got)
			}
			edges[h]++
		}
	}
	reached := 0
	keys := map[param.Key]arena.Handle{}
	for th, s := range e.intern.All() {
		t := &s.Data
		if t.leaf != arena.Nil && !s.Mapped() {
			return fmt.Errorf("θ %v has a leaf but is unmapped", s.Inst)
		}
		if t.leaf != arena.Nil && flushed && !s.Inst.AllAlive() {
			return fmt.Errorf("after Flush θ %v has a dead object and a leaf", s.Inst)
		}
		var prev *index.Leaf
		for lh := t.leaf; lh != arena.Nil; lh = prev.Next {
			l := e.leaves.At(lh) // panics on a recycled leaf record
			reached++
			if prev != nil && prev.R >= l.R {
				return fmt.Errorf("chain of θ %v: leaf %v after leaf %v", s.Inst, l.R, prev.R)
			}
			prev = l
			if flushed && l.Len() == 0 {
				return fmt.Errorf("after Flush the leaf %v under %v is empty", l.R, s.Inst)
			}
			for _, h := range l.Members() {
				if !e.mons.Alive(h) {
					return fmt.Errorf("leaf %v under %v holds %v, a recycled monitor", l.R, s.Inst, h)
				}
				if mi := e.instOf(e.mons.At(h)); mi.Mask() != l.R || !s.Inst.LessInformative(*mi) {
					return fmt.Errorf("leaf %v under %v holds a monitor for %v", l.R, s.Inst, mi)
				}
				edges[h]++
			}
		}
		if t.mon != arena.Nil {
			if !s.Mapped() {
				return fmt.Errorf("θ %v is in Δ but unmapped", s.Inst)
			}
			if !e.mons.Alive(t.mon) {
				return fmt.Errorf("Δ(%v) = %v, a recycled monitor", s.Inst, t.mon)
			}
			if got := e.mons.At(t.mon).instH; got != th {
				return fmt.Errorf("Δ(%v) = %v, whose record names θ-record %v, not %v", s.Inst, t.mon, got, th)
			}
		}
		if t.flags&thetaAvoided != 0 && (!s.Mapped() || t.mon != arena.Nil) {
			return fmt.Errorf("tombstoned θ %v: mapped %v, Δ %v", s.Inst, s.Mapped(), t.mon)
		}
		if s.Pins() != pins[th] {
			return fmt.Errorf("θ %v has %d pins, %d live monitors name it", s.Inst, s.Pins(), pins[th])
		}
		delete(pins, th)
		if !s.Mapped() {
			if s.Pins() <= 0 {
				return fmt.Errorf("θ %v is unmapped and unpinned but not recycled", s.Inst)
			}
			continue
		}
		k := s.Inst.Key()
		if prev, dup := keys[k]; dup {
			return fmt.Errorf("θ-records %v and %v are both mapped under %v", prev, th, s.Inst)
		}
		keys[k] = th
		if got, ok := e.intern.Get(k); !ok || got != th {
			return fmt.Errorf("θ %v is marked mapped at %v but the table resolves it to %v (%v)", s.Inst, th, got, ok)
		}
	}
	for th, n := range pins {
		return fmt.Errorf("%d live monitors name θ-record %v, which is recycled", n, th)
	}
	for h, m := range e.mons.All() {
		if m.refs != edges[h] {
			return fmt.Errorf("monitor for %v has refcount %d, %d containers hold it", e.instOf(m), m.refs, edges[h])
		}
		if m.flags&monCollected != 0 && edges[h] != 0 {
			return fmt.Errorf("collected monitor for %v is in %d containers", e.instOf(m), edges[h])
		}
	}
	if live := e.leaves.Stats().Live; live != reached {
		return fmt.Errorf("%d leaf records are live, the chains reach %d", live, reached)
	}
	if len(keys) != e.intern.Len() {
		return fmt.Errorf("θ-table maps %d keys, %d records are marked mapped", e.intern.Len(), len(keys))
	}
	return nil
}
