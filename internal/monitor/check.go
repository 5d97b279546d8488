package monitor

import (
	"fmt"

	"rvgo/internal/arena"
	"rvgo/internal/index"
	"rvgo/internal/param"
)

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
//   - no two mapped θ-records share a key, and the table's index reaches
//     exactly the mapped ones, each from its binding's home slot;
//
// and the rules that tie the leaf records to both:
//
//   - a θ-record with a leaf is mapped, and its chain holds at most one
//     record per domain (ascending);
//   - every member of the leaf for R under κ is a live monitor record whose
//     domain is R and whose instance extends κ;
//   - a monitor's refcount is the number of leaves and registries holding
//     it (refcount = in-edge count; a registry entry counts while its
//     monitor is marked monInReg, and any other is left for the registry
//     to drop), and a collected monitor is in none;
//   - every live leaf record is on some θ-record's chain;
//
// and the rules of the object table:
//
//   - every handle a θ-record binds names a live object record, the one
//     the ID index resolves the object's ID to;
//   - an object record's pin count is the number of θ-records binding it;
//   - the ID index and the records agree: it stores each live record once,
//     reached from its ID's home slot, no ID twice, and every other record
//     is on the free list.
//
// With flushed set (right after Flush) additionally no leaf is empty, none
// hangs off a θ-record with a dead object, and no object record is both
// dead and unpinned. After "Automated Verification of Practical Garbage
// Collectors" (Hawblitzel & Petrank): the collector's invariants as a
// check the product runs — Flush runs it under race builds (poolCheck),
// so every backend's -race tests exercise it.
func CheckTheta(e *Engine, flushed bool) error {
	pins := map[arena.Handle]int32{}
	for _, m := range e.mons.All() {
		pins[m.instH]++
	}
	edges := map[arena.Handle]int32{}
	for i := range e.domains {
		d := &e.domains[i]
		for _, h := range d.all.Members(&e.leaves) {
			if m, ok := e.mons.Get(h); !ok || m.flags&monInReg == 0 {
				continue // an entry the registry holds no reference on
			}
			if got := e.bindOf(e.mons.At(h)).Mask; got != d.R {
				return fmt.Errorf("registry %v holds a monitor of domain %v", d.R, got)
			}
			edges[h]++
		}
	}
	if err := checkObjects(&e.objs); err != nil {
		return err
	}
	if _, err := e.intern.Check(); err != nil {
		return err
	}
	objPins := map[uint32]int32{}
	reached := 0
	keys := map[param.Binding]arena.Handle{}
	for th, s := range e.intern.All() {
		t := &s.Data
		for m := s.B.Mask; m != 0; m = m.Rest() {
			oh := s.B.H[m.First()]
			if int(oh) >= len(e.objs.recs) || !e.objs.recs[oh].inUse() {
				return fmt.Errorf("θ-record %v binds object handle %d, which names no live object record", th, oh)
			}
			objPins[oh]++
		}
		inst := lazyInst{e, s.B}
		if t.leaf != arena.Nil && !s.Mapped() {
			return fmt.Errorf("θ %v has a leaf but is unmapped", inst)
		}
		if t.leaf != arena.Nil && flushed && !e.objs.allAlive(&s.B) {
			return fmt.Errorf("after Flush θ %v has a dead object and a leaf", inst)
		}
		var prev *index.Leaf
		for lh := t.leaf; lh != arena.Nil; lh = prev.Next {
			l := e.leaves.At(lh) // panics on a recycled leaf record
			reached++
			if prev != nil && prev.R >= l.R {
				return fmt.Errorf("chain of θ %v: leaf %v after leaf %v", inst, l.R, prev.R)
			}
			prev = l
			if flushed && l.Len() == 0 {
				return fmt.Errorf("after Flush the leaf %v under %v is empty", l.R, inst)
			}
			for _, h := range l.Members(&e.leaves) {
				if !e.mons.Alive(h) {
					return fmt.Errorf("leaf %v under %v holds %v, a recycled monitor", l.R, inst, h)
				}
				if mb := e.bindOf(e.mons.At(h)); mb.Mask != l.R || !s.B.LessInformative(mb) {
					return fmt.Errorf("leaf %v under %v holds a monitor for %v", l.R, inst, e.keyOf(mb))
				}
				edges[h]++
			}
		}
		if t.mon != arena.Nil {
			if !s.Mapped() {
				return fmt.Errorf("θ %v is in Δ but unmapped", inst)
			}
			if !e.mons.Alive(t.mon) {
				return fmt.Errorf("Δ(%v) = %v, a recycled monitor", inst, t.mon)
			}
			if got := e.mons.At(t.mon).instH; got != th {
				return fmt.Errorf("Δ(%v) = %v, whose record names θ-record %v, not %v", inst, t.mon, got, th)
			}
		}
		if t.flags&thetaAvoided != 0 && (!s.Mapped() || t.mon != arena.Nil) {
			return fmt.Errorf("tombstoned θ %v: mapped %v, Δ %v", inst, s.Mapped(), t.mon)
		}
		if s.Pins() != pins[th] {
			return fmt.Errorf("θ %v has %d pins, %d live monitors name it", inst, s.Pins(), pins[th])
		}
		delete(pins, th)
		if !s.Mapped() {
			if s.Pins() <= 0 {
				return fmt.Errorf("θ %v is unmapped and unpinned but not recycled", inst)
			}
			continue
		}
		if prev, dup := keys[s.B]; dup {
			return fmt.Errorf("θ-records %v and %v are both mapped under %v", prev, th, inst)
		}
		keys[s.B] = th
		if got, ok := e.intern.Get(&s.B); !ok || got != th {
			return fmt.Errorf("θ %v is marked mapped at %v but the table resolves it to %v (%v)", inst, th, got, ok)
		}
	}
	for th, n := range pins {
		return fmt.Errorf("%d live monitors name θ-record %v, which is recycled", n, th)
	}
	for oh := range e.objs.recs {
		r := &e.objs.recs[oh]
		if !r.inUse() {
			continue
		}
		if r.pins != objPins[uint32(oh)] {
			return fmt.Errorf("object %d has %d pins, %d θ-records bind it", r.id, r.pins, objPins[uint32(oh)])
		}
		if flushed && r.pins == 0 && !e.objs.alive(uint32(oh)) {
			return fmt.Errorf("after Flush object %d is dead and unpinned but still recorded", r.id)
		}
	}
	for h, m := range e.mons.All() {
		if m.refs != edges[h] {
			return fmt.Errorf("monitor for %v has refcount %d, %d containers hold it", e.keyOf(e.bindOf(m)), m.refs, edges[h])
		}
		if m.flags&monCollected != 0 && edges[h] != 0 {
			return fmt.Errorf("collected monitor for %v is in %d containers", e.keyOf(e.bindOf(m)), edges[h])
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

// lazyInst formats a θ-record's binding by its objects' IDs, only when a
// report needs it.
type lazyInst struct {
	e *Engine
	b param.Binding
}

func (l lazyInst) String() string { return l.e.keyOf(&l.b).String() }

// checkObjects holds the object table's ID index and records to each
// other: the index stores each live record once, reached by probing from
// its ID's home slot, under an ID no other stored record carries, and a
// live record's ref, if it has one, names the record's ID; every record the
// index does not store is free, on the free list once. Nothing here asks a
// ref whether it is alive: a held record's death is in the record.
func checkObjects(o *objects) error {
	ids := map[uint64]uint32{}
	for x := range o.idx.All {
		h := x - 1
		if int(h) >= len(o.recs) {
			return fmt.Errorf("the object index stores handle %d, past the %d records", h, len(o.recs))
		}
		r := &o.recs[h]
		if !r.inUse() || r.ref != nil && r.ref.ID() != r.id {
			return fmt.Errorf("the object index stores handle %d, a free record or one whose ref is not object %d", h, r.id)
		}
		if prev, dup := ids[r.id]; dup {
			return fmt.Errorf("object ID %d is stored twice, at handles %d and %d", r.id, prev, h)
		}
		ids[r.id] = h
	}
	if _, err := o.idx.Check(o.rehash); err != nil {
		return err
	}
	onFree := map[uint32]bool{}
	for _, h := range o.free {
		if onFree[h] || o.recs[h].inUse() {
			return fmt.Errorf("object handle %d is on the free list twice or while live", h)
		}
		onFree[h] = true
	}
	if len(ids)+len(o.free) != len(o.recs) {
		return fmt.Errorf("%d object records: %d indexed, %d free", len(o.recs), len(ids), len(o.free))
	}
	return nil
}

// checkDeaths holds an engine to what settle promises, over the whole
// θ-table and every monitor: no mapped θ-record binds an object whose
// death the engine knows of unless it has no leaf and either its monitor
// is unflagged and kept alive by the GC policy, or it is a tombstone the
// policy keeps (none, or alldead with a live object); no flagged monitor,
// and none over such an object, is still referenced by its domain
// registry. A positioned engine knows each death from its free on; a lazy
// one from the sweep that finds it, so the deaths its sweeps have not
// found yet are not checked. Race builds run it at the end of every sweep
// and before Flush collects anything; FreeIDs checks what it changed
// (checkFreed).
func checkDeaths(e *Engine) error {
	for _, s := range e.intern.All() {
		if err := checkDeadTheta(e, s); err != nil {
			return err
		}
	}
	for h, m := range e.mons.All() {
		if err := checkRegistered(e, h, m); err != nil {
			return err
		}
	}
	return nil
}

// checkFreed is checkDeaths over what one FreeIDs changed: the θ-records
// on the freed objects' lists, and the monitors that were Δ of one of them
// when the free began. A monitor a free flags binds the dead object, so it
// is among those; so is every θ-record that binds the object.
func checkFreed(e *Engine, ths, mons []arena.Handle) error {
	for _, th := range ths {
		if s, ok := e.intern.Live(th); ok {
			if err := checkDeadTheta(e, s); err != nil {
				return err
			}
		}
	}
	for _, h := range mons {
		if m, ok := e.mons.Get(h); ok {
			if err := checkRegistered(e, h, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkDeadTheta is checkDeaths' rule for one θ-record.
func checkDeadTheta(e *Engine, s *param.Slot[theta]) error {
	if !s.Mapped() || !e.objs.anyDead(&s.B) {
		return nil
	}
	inst := lazyInst{e, s.B}
	t := &s.Data
	switch {
	case t.leaf != arena.Nil:
		return fmt.Errorf("θ %v binds a dead object and keeps a leaf", inst)
	case t.mon != arena.Nil:
		if m := e.mons.At(t.mon); m.flags&monFlagged != 0 || !e.keeps(m) {
			return fmt.Errorf("θ %v binds a dead object and keeps a monitor its policy lets go (flags %#x)", inst, m.flags)
		}
	case t.flags&thetaAvoided == 0:
		return fmt.Errorf("θ %v binds a dead object and is still mapped, with no monitor or tombstone", inst)
	case e.opts.GC == GCCoenable || e.opts.GC == GCAllDead && e.notDead(&s.B).Empty():
		return fmt.Errorf("θ %v binds a dead object and keeps a tombstone its policy lets go", inst)
	}
	return nil
}

// checkRegistered is checkDeaths' rule for one monitor.
func checkRegistered(e *Engine, h arena.Handle, m *Mon) error {
	if m.flags&monInReg == 0 {
		return nil
	}
	if m.flags&monFlagged != 0 {
		return fmt.Errorf("flagged monitor %v for %v is still in its registry", h, lazyInst{e, *e.bindOf(m)})
	}
	if e.objs.anyDead(e.bindOf(m)) {
		return fmt.Errorf("monitor %v for %v binds a dead object and is still in its registry", h, lazyInst{e, *e.bindOf(m)})
	}
	return nil
}

// keeps reports whether the GC policy keeps a monitor alive given which of
// its objects' deaths the engine knows of — NotifyParamDeath's test,
// without flagging.
func (e *Engine) keeps(m *Mon) bool {
	b := e.bindOf(m)
	am := e.notDead(b)
	switch {
	case e.opts.GC == GCNone:
		return true
	case e.opts.GC == GCCoenable && e.an.HasCoenable:
		return alive(e.an.CoenParams[m.lastSym], b.Mask.Diff(am))
	}
	return !am.Empty()
}

// notDead returns the parameters of b whose objects' deaths the engine does
// not know of: the liveness checkDeaths holds it to. Settle read a death
// it knew of, or one the ref showed, so a monitor or tombstone settle kept
// is kept under this liveness too.
func (e *Engine) notDead(b *param.Binding) param.Set {
	var s param.Set
	for m := b.Mask; m != 0; m = m.Rest() {
		if i := m.First(); !e.objs.recs[b.H[i]].dead {
			s |= 1 << uint(i)
		}
	}
	return s
}
