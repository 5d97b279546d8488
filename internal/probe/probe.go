// Package probe is the open-addressing index an engine finds its records
// through: the θ-table's slots (param.Interner) and the object table's
// records (monitor's objects). A Table stores only handles into records its
// owner keeps; the key of an entry is read back from the record it names,
// so the index holds no second copy of any key.
//
// The table is a power of two of handle slots with linear probing. It grows
// by doubling when an insert would take it past ¾ load, and it deletes by
// backward shift, so it has no tombstones and a probe ends at the first
// empty slot. The zero handle marks an empty slot and is never stored.
//
// The lookup loop belongs to the caller: it starts at Home, reads Slot and
// steps with Next, and compares its own key against the record each handle
// names. Nothing on that path calls through a closure or an interface.
// Insert, Delete and Check, which must rehash stored entries, take the
// owner's rehash function; they run when a record is added or dropped, not
// when one is found.
//
// Each table is seeded with a random value: the object table of a server
// session is keyed by client-chosen IDs, and a per-table seed keeps a
// client from building colliding keys for every table in advance, as the
// per-map seed of Go's own maps did.
package probe

import (
	"fmt"
	"math/rand/v2"
)

// Handle is the type of what a Table stores: a record handle whose zero
// value is never issued.
type Handle interface{ ~uint32 | ~uint64 }

// Table is the index. Its slots are allocated by the first Insert, so an
// owner that never adds a record pays for none; the zero value is not
// ready, see New.
type Table[H Handle] struct {
	slots []H
	mask  uint // len(slots)-1, or 0 while slots is nil
	n     int  // stored handles
	seed  uint64
}

// minSlots is the table's first size: six entries before it first grows.
const minSlots = 8

// New returns an empty table with a fresh seed.
func New[H Handle]() Table[H] { return Table[H]{seed: fmix(rand.Uint64())} }

// Seed returns the table's hash seed, the start of every hash its owner
// folds key words into with Mix.
func (t *Table[H]) Seed() uint64 { return t.seed }

// Mix folds one 64-bit key word w into the running hash h.
func Mix(h, w uint64) uint64 { return fmix(h ^ w) }

// fmix is MurmurHash3's 64-bit finalizer: a bijection in which every input
// bit affects every output bit.
func fmix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Home returns the slot a probe for hash starts at.
func (t *Table[H]) Home(hash uint64) uint { return uint(hash) & t.mask }

// Next returns the slot after i, wrapping at the table's end.
func (t *Table[H]) Next(i uint) uint { return (i + 1) & t.mask }

// Slot returns the handle stored in slot i, or zero for an empty slot. A
// table with no slots reads as one empty slot, so a probe of it misses.
func (t *Table[H]) Slot(i uint) H {
	if i < uint(len(t.slots)) {
		return t.slots[i]
	}
	return 0
}

// Len returns the number of stored handles.
func (t *Table[H]) Len() int { return t.n }

// Insert stores h, whose key hashes to hash and is not yet in the table,
// growing the table first if it would pass ¾ load.
func (t *Table[H]) Insert(hash uint64, h H, rehash func(H) uint64) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow(rehash)
	}
	i := t.Home(hash)
	for t.slots[i] != 0 {
		i = t.Next(i)
	}
	t.slots[i] = h
	t.n++
}

// grow doubles the table (or allocates its first slots) and reinserts
// every stored handle.
func (t *Table[H]) grow(rehash func(H) uint64) {
	old := t.slots
	t.slots = make([]H, max(minSlots, 2*len(old)))
	t.mask = uint(len(t.slots) - 1)
	for _, h := range old {
		if h == 0 {
			continue
		}
		i := t.Home(rehash(h))
		for t.slots[i] != 0 {
			i = t.Next(i)
		}
		t.slots[i] = h
	}
}

// Delete removes h, whose key hashes to hash. It finds the entry by the
// handle, not by the key, and closes the gap by shifting back each later
// entry of the run that may move to it. Deleting a handle the table does
// not hold panics: the owner's records and its index disagree.
func (t *Table[H]) Delete(hash uint64, h H, rehash func(H) uint64) {
	i := t.Home(hash)
	for x := t.Slot(i); x != h; x = t.Slot(i) {
		if x == 0 {
			panic(fmt.Sprintf("probe: delete of handle %d, which the table does not hold", h))
		}
		i = t.Next(i)
	}
	for j := t.Next(i); t.slots[j] != 0; j = t.Next(j) {
		// The entry at j may fill the hole at i unless its home lies in
		// the cyclic interval (i, j].
		if x := t.slots[j]; (j-t.Home(rehash(x)))&t.mask >= (j-i)&t.mask {
			t.slots[i] = x
			i = j
		}
	}
	t.slots[i] = 0
	t.n--
}

// Probes describes how far the stored entries sit from their home slots,
// counting the home slot itself as the first probe.
type Probes struct {
	Max  int
	Mean float64
}

// Check verifies the table's own invariants: every stored entry is reached
// by probing from its key's home slot without crossing an empty slot, no
// handle is stored twice, and Len counts the stored handles. Keys the owner
// stored twice under distinct handles it checks itself, over All. Check
// also reports the probe lengths.
func (t *Table[H]) Check(rehash func(H) uint64) (Probes, error) {
	var p Probes
	seen := make(map[H]bool, t.n)
	total := 0
	for i, h := range t.slots {
		if h == 0 {
			continue
		}
		if seen[h] {
			return p, fmt.Errorf("probe: handle %d is stored twice", h)
		}
		seen[h] = true
		n := 1
		for j := t.Home(rehash(h)); j != uint(i); j = t.Next(j) {
			if t.slots[j] == 0 {
				return p, fmt.Errorf("probe: handle %d in slot %d is cut off from its home slot by the empty slot %d", h, i, j)
			}
			n++
		}
		p.Max = max(p.Max, n)
		total += n
	}
	if len(seen) != t.n {
		return p, fmt.Errorf("probe: %d handles stored, Len is %d", len(seen), t.n)
	}
	if t.n > 0 {
		p.Mean = float64(total) / float64(t.n)
	}
	return p, nil
}

// All yields the stored handles in slot order.
func (t *Table[H]) All(yield func(H) bool) {
	for _, h := range t.slots {
		if h != 0 && !yield(h) {
			return
		}
	}
}
