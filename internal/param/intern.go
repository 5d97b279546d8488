package param

import (
	"iter"

	"rvgo/internal/arena"
)

// Interner is the θ-table: it canonicalizes parameter instances, so that
// identical bindings resolve to one slab slot, and that slot is the one
// record the owner keeps about θ. The slot's generation-tagged arena.Handle
// is the instance's only identity: records that must stay pointer-free
// (monitors) store it, and everything the owner knows per θ — the payload P,
// for the engine Δ(θ), the processed stamp and the tombstone bits — sits in
// the slot next to the bindings, found by the one map lookup Intern does.
//
// Slots live in a slab arena (package arena), not as individual heap
// objects: at millions of live instances the host collector sees O(slabs)
// objects, not O(instances). A *Slot obtained from a handle is a transient
// view, valid until the slot is recycled; slabs never move.
//
// Slot lifetime is governed by two independent claims:
//
//   - the table mapping (Key → slot) exists from Intern until Unmap, and
//   - a pin count, taken by the engine for every monitor that stores the
//     slot's handle, held until the monitor itself is recycled.
//
// A slot is recycled onto the arena free list only when both claims are
// gone, so a monitor's instance handle can never dangle even if the mapping
// was dropped first.
//
// Steady state is allocation-free: an instance allocates once, the first
// time its bindings are seen, and every later event carrying the same
// bindings resolves to the same slot through one map lookup. Interned
// instances hold heap.Refs, so the table never keeps parameter objects
// alive.
//
// An Interner is not safe for concurrent use. Each engine owns one, matching
// the engine's single-threaded dispatch discipline.
type Interner[P any] struct {
	m    map[Key]arena.Handle
	pool arena.Pool[Slot[P]]
}

// Slot is one θ-record: the canonical instance, the owner's payload, and
// the slot's two lifetime claims.
type Slot[P any] struct {
	Inst   Instance
	Data   P
	pins   int32
	mapped bool
}

// Pins returns the slot's pin count and Mapped whether the table still maps
// its key (invariant checks, diagnostics).
func (s *Slot[P]) Pins() int32  { return s.pins }
func (s *Slot[P]) Mapped() bool { return s.mapped }

// NewInterner returns an empty table.
func NewInterner[P any]() *Interner[P] {
	return &Interner[P]{m: make(map[Key]arena.Handle)}
}

// SetChecks arms poison-on-free for the slots (race builds): a freed slot
// has its instance zeroed, its pin count set negative and its payload
// scrambled by poison; the three are verified when the slot leaves the free
// list, so a write through a stale *Slot or *Instance fails at the reuse
// point even though raw pointers carry no generation.
func (in *Interner[P]) SetChecks(poison, verify func(*P)) {
	in.pool.SetChecks(func(s *Slot[P]) {
		s.Inst, s.pins = Instance{}, -1
		poison(&s.Data)
	}, func(s *Slot[P]) {
		if s.Inst != (Instance{}) || s.pins != -1 || s.mapped {
			panic("param: free-list instance slot was mutated while pooled")
		}
		verify(&s.Data)
	})
}

// Intern returns the slot handle for t, allocating a slot on first sight.
func (in *Interner[P]) Intern(t Instance) arena.Handle {
	k := t.Key()
	if h, ok := in.m[k]; ok {
		return h
	}
	h, s := in.pool.Alloc()
	s.Inst = t
	s.mapped = true
	in.m[k] = h
	return h
}

// Get returns the handle for an identity without creating one.
func (in *Interner[P]) Get(k Key) (arena.Handle, bool) {
	h, ok := in.m[k]
	return h, ok
}

// At returns the record of a live slot. Panics on a stale handle — a pinned
// slot is never stale, so a panic here means a monitor outlived its pin (an
// engine bug).
func (in *Interner[P]) At(h arena.Handle) *Slot[P] { return in.pool.At(h) }

// All iterates the live slots — mapped, or unmapped and still pinned — in
// slab order (see arena.Pool.All).
func (in *Interner[P]) All() iter.Seq2[arena.Handle, *Slot[P]] { return in.pool.All() }

// Pin adds a lifetime claim to the slot: it survives Unmap until the
// matching Unpin.
func (in *Interner[P]) Pin(h arena.Handle) { in.pool.At(h).pins++ }

// Unpin drops a pin; the slot is recycled once it is unpinned and the
// table no longer maps it.
func (in *Interner[P]) Unpin(h arena.Handle) {
	s := in.pool.At(h)
	s.pins--
	in.release(h, s)
}

// release recycles a slot that has lost both of its lifetime claims.
func (in *Interner[P]) release(h arena.Handle, s *Slot[P]) {
	if s.pins <= 0 && !s.mapped {
		in.pool.Free(h)
	}
}

// Unmap drops the table mapping of a slot (a no-op if it has none); a slot
// no monitor pins is recycled at once, a pinned one by its final Unpin. The
// owner unmaps a θ once one of its objects is dead — such bindings can
// never recur, so no second slot for the same key can appear — and only
// when nothing it keeps per θ still has to be found by key.
func (in *Interner[P]) Unmap(h arena.Handle) {
	s := in.pool.At(h)
	if !s.mapped {
		return
	}
	delete(in.m, s.Inst.Key())
	s.mapped = false
	in.release(h, s)
}

// Len returns the number of interned (table-mapped) instances.
func (in *Interner[P]) Len() int { return len(in.m) }

// Stats returns the slot arena's occupancy snapshot (pinned-but-unmapped
// slots count as live until their monitors release them).
func (in *Interner[P]) Stats() arena.Stats { return in.pool.Stats() }

// Reset drops the table and every slab, returning the store to the host
// allocator in O(1) regardless of size. All handles become stale.
func (in *Interner[P]) Reset() {
	in.m = make(map[Key]arena.Handle)
	in.pool.Reset()
}
