package param

import (
	"fmt"
	"iter"

	"rvgo/internal/arena"
	"rvgo/internal/probe"
)

// Interner is the θ-table: it canonicalizes bindings, so that identical
// bindings resolve to one slab slot, and that slot is the one record the
// owner keeps about θ. The slot's generation-tagged arena.Handle
// is the instance's only identity: records that must stay pointer-free
// (monitors) store it, and everything the owner knows per θ — the payload P,
// for the engine Δ(θ), the processed stamp and the tombstone bits — sits in
// the slot next to the bindings, found by the one index probe Intern does.
//
// Slots live in a slab arena (package arena), not as individual heap
// objects: at millions of live instances the host collector sees O(slabs)
// objects, not O(instances). A *Slot obtained from a handle is a transient
// view, valid until the slot is recycled; slabs never move.
//
// The index (package probe) stores one word per mapped slot: the slot's
// index and the low 32 bits of its binding's hash. A binding is hashed over
// its mask and its bound handles; a probe compares the hash bits first and
// reads a slot only when they match, and the index rehashes an entry
// (growing, or closing a deletion's gap) from its stored bits without
// reading the slot. The binding itself is compared against the slot, so
// every key exists once: in its slot.
//
// Slot lifetime is governed by two independent claims:
//
//   - the table mapping (Binding → slot) exists from Intern until Unmap, and
//   - a pin count, taken by the engine for every monitor that stores the
//     slot's handle, held until the monitor itself is recycled.
//
// A slot is recycled onto the arena free list only when both claims are
// gone, so a monitor's instance handle can never dangle even if the mapping
// was dropped first.
//
// Steady state is allocation-free: a binding allocates once, the first
// time it is seen, and every later event carrying it resolves to the same
// slot through one probe. A slot holds a Binding — object handles,
// never heap.Refs — so with a pointer-free payload the slabs are noscan:
// the owner's object table is the one place that holds the objects, and
// nothing here keeps one alive.
//
// An Interner is not safe for concurrent use. Each engine owns one, matching
// the engine's single-threaded dispatch discipline.
type Interner[P any] struct {
	idx  probe.Table[uint64] // the mapped slots, as entry words
	pool arena.Pool[Slot[P]]
}

// entry is the index word of slot i, whose binding hashes to hash: the
// hash's low 32 bits above i+1 (never zero). home reads the hash bits back;
// they place the entry in any table below 2^32 slots as the full hash
// would.
func entry(hash uint64, i uint32) uint64 { return hash<<32 | (uint64(i) + 1) }

func home(x uint64) uint64 { return x >> 32 }

// Slot is one θ-record: the canonical binding, the owner's payload, and
// the slot's two lifetime claims.
type Slot[P any] struct {
	B      Binding
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
	return &Interner[P]{idx: probe.New[uint64]()}
}

// SetChecks arms poison-on-free for the slots (race builds): a freed slot
// has its binding zeroed, its pin count set negative and its payload
// scrambled by poison; the three are verified when the slot leaves the free
// list, so a write through a stale *Slot or *Binding fails at the reuse
// point even though raw pointers carry no generation.
func (in *Interner[P]) SetChecks(poison, verify func(*P)) {
	in.pool.SetChecks(func(s *Slot[P]) {
		s.B, s.pins = Binding{}, -1
		poison(&s.Data)
	}, func(s *Slot[P]) {
		if s.B != (Binding{}) || s.pins != -1 || s.mapped {
			panic("param: free-list θ slot was mutated while pooled")
		}
		verify(&s.Data)
	})
}

// Intern returns the slot handle for b, allocating a slot on first sight;
// added reports the allocation, so the owner can take its claims on the
// objects the new slot binds.
func (in *Interner[P]) Intern(b *Binding) (h arena.Handle, added bool) {
	hash := in.hash(b)
	if h, ok := in.find(hash, b); ok {
		return h, false
	}
	h, s := in.pool.Alloc()
	s.B = *b
	s.mapped = true
	in.idx.Insert(hash, entry(hash, h.Index()), home)
	return h, true
}

// Get returns the handle for a binding without creating one.
func (in *Interner[P]) Get(b *Binding) (arena.Handle, bool) { return in.find(in.hash(b), b) }

// find probes the index for the mapped slot binding b, whose hash is hash.
// The index stores mapped, hence live, slots only (Check holds it to that),
// so a slot is read without a generation check.
func (in *Interner[P]) find(hash uint64, b *Binding) (arena.Handle, bool) {
	tag := uint32(hash)
	for i := in.idx.Home(hash); ; i = in.idx.Next(i) {
		x := in.idx.Slot(i)
		if x == 0 {
			return arena.Nil, false
		}
		if uint32(x>>32) == tag && in.pool.AtIndex(uint32(x)-1).B == *b {
			h, _ := in.pool.HandleOf(uint32(x) - 1)
			return h, true
		}
	}
}

// hash hashes a binding under the table's seed: the mask selects the
// start, and the bound handles are folded in two to a 64-bit word, so a
// binding of one or two objects costs one Mix.
func (in *Interner[P]) hash(b *Binding) uint64 {
	h := in.idx.Seed() + uint64(b.Mask)*0x9e3779b97f4a7c15
	var w uint64
	odd := false
	for m := b.Mask; m != 0; m = m.Rest() {
		w = w<<32 | uint64(b.H[m.First()])
		if odd = !odd; !odd {
			h, w = probe.Mix(h, w), 0
		}
	}
	if odd {
		h = probe.Mix(h, w)
	}
	return h
}

// At returns the record of a live slot. Panics on a stale handle — a pinned
// slot is never stale, so a panic here means a monitor outlived its pin (an
// engine bug).
func (in *Interner[P]) At(h arena.Handle) *Slot[P] { return in.pool.At(h) }

// Live returns the record of the slot h names, or false if h is stale: its
// slot was recycled since h was issued.
func (in *Interner[P]) Live(h arena.Handle) (*Slot[P], bool) { return in.pool.Get(h) }

// All iterates the live slots — mapped, or unmapped and still pinned — in
// slab order (see arena.Pool.All).
func (in *Interner[P]) All() iter.Seq2[arena.Handle, *Slot[P]] { return in.pool.All() }

// Pin adds a lifetime claim to the slot: it survives Unmap until the
// matching Unpin.
func (in *Interner[P]) Pin(h arena.Handle) { in.pool.At(h).pins++ }

// Unpin drops a pin; the slot is recycled once it is unpinned and the
// table no longer maps it. It returns the binding of a recycled slot and
// true, so the owner can drop its claims on the objects the slot bound.
func (in *Interner[P]) Unpin(h arena.Handle) (Binding, bool) {
	s := in.pool.At(h)
	s.pins--
	return in.release(h, s)
}

// release recycles a slot that has lost both of its lifetime claims,
// returning its binding and true if it did.
func (in *Interner[P]) release(h arena.Handle, s *Slot[P]) (Binding, bool) {
	if s.pins > 0 || s.mapped {
		return Binding{}, false
	}
	b := s.B
	in.pool.Free(h)
	return b, true
}

// Unmap drops the table mapping of a slot (a no-op if it has none); a slot
// no monitor pins is recycled at once, a pinned one by its final Unpin. The
// owner unmaps a θ once one of its objects is dead — such bindings can
// never recur, so no second slot for the same key can appear — and only
// when nothing it keeps per θ still has to be found by key. Like Unpin it
// reports a recycled slot's binding the same way.
func (in *Interner[P]) Unmap(h arena.Handle) (Binding, bool) {
	s := in.pool.At(h)
	if !s.mapped {
		return Binding{}, false
	}
	hash := in.hash(&s.B)
	in.idx.Delete(hash, entry(hash, h.Index()), home)
	s.mapped = false
	return in.release(h, s)
}

// Len returns the number of interned (table-mapped) bindings.
func (in *Interner[P]) Len() int { return in.idx.Len() }

// Stats returns the slot arena's occupancy snapshot (pinned-but-unmapped
// slots count as live until their monitors release them).
func (in *Interner[P]) Stats() arena.Stats { return in.pool.Stats() }

// Reset drops the index and every slab, returning the store to the host
// allocator in O(1) regardless of size. All handles become stale.
func (in *Interner[P]) Reset() {
	in.idx = probe.New[uint64]()
	in.pool.Reset()
}

// Check holds the index to the slots (invariant checks): the index's own
// invariants hold (probe.Table.Check), every entry it stores names a live,
// mapped slot under its binding's hash bits, no binding is stored twice,
// and it stores exactly the mapped slots. It reports the index's probe
// lengths.
func (in *Interner[P]) Check() (probe.Probes, error) {
	keys := make(map[Binding]arena.Handle, in.idx.Len())
	for x := range in.idx.All {
		h, live := in.pool.HandleOf(uint32(x) - 1)
		if !live || !in.pool.AtIndex(uint32(x)-1).mapped {
			return probe.Probes{}, fmt.Errorf("param: the θ index stores slot %d, which is not a mapped slot", uint32(x)-1)
		}
		s := in.pool.At(h)
		if x != entry(in.hash(&s.B), h.Index()) {
			return probe.Probes{}, fmt.Errorf("param: the θ index stores slot %d under hash bits %#x, not its binding's", h.Index(), home(x))
		}
		if prev, dup := keys[s.B]; dup {
			return probe.Probes{}, fmt.Errorf("param: the θ index stores %v and %v under one binding", prev, h)
		}
		keys[s.B] = h
	}
	mapped := 0
	for _, s := range in.pool.All() {
		if s.mapped {
			mapped++
		}
	}
	if mapped != len(keys) {
		return probe.Probes{}, fmt.Errorf("param: %d θ slots are mapped, the index stores %d", mapped, len(keys))
	}
	return in.idx.Check(home)
}
