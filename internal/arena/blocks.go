package arena

import "math/bits"

// Blocks is a heap of variable-length handle vectors — an engine's leaf
// member vectors, its domain registries and its objects' θ lists — carved,
// after elib.Heap, from one pointer-free array the host collector never
// scans. A block is a header word holding its capacity followed by that
// many entries; capacities are powers of two, and a released block goes on
// its capacity's free list, threaded through the blocks' first entries,
// for the next vector of that size. A vector that outgrows its block moves
// to one twice as large (Grow). The array starts in buf and grows only
// past its high-water mark, so once it has, a new vector costs no Go
// allocation, and an engine that holds few vectors allocates none at all.
// Offset 0 is the first block's header, so no block starts there: a
// vector whose offset is 0 has no block. Outgrown blocks stay on their
// free lists; the array never shrinks until Reset. The zero value is
// ready; a Blocks must not be copied once used.
type Blocks struct {
	elts []Handle
	// free holds, by class (capacity 1<<class), the first entry of the
	// first free block, or 0; a free block's first entry holds the next
	// one's.
	free [maxClass]uint32
	buf  [16]Handle
	// check arms poison-on-free (race builds): a released block's entries
	// past its link are scrambled and verified when the block is handed
	// out again.
	check bool
}

// maxClass bounds the classes: a block of 1<<(maxClass-1) entries takes
// 4 GB.
const maxClass = 30

// poisonEntry fills a free block's entries under check.
const poisonEntry = ^Handle(0)

// SetChecks arms or disarms poison-on-free; see Blocks.check.
func (b *Blocks) SetChecks(on bool) { b.check = on }

// blockClass returns the class of the smallest block holding c entries.
func blockClass(c uint32) int { return bits.Len32(c - 1) }

// Cap returns the capacity of the block whose first entry is at (0 for no
// block).
func (b *Blocks) Cap(at uint32) uint32 {
	if at == 0 {
		return 0
	}
	return uint32(b.elts[at-1])
}

// Block returns the entries of the block whose first entry is at, its
// length and capacity the block's capacity (empty for no block). It is a
// view: valid until the next Alloc or Grow.
func (b *Blocks) Block(at uint32) []Handle {
	c := b.Cap(at)
	return b.elts[at : at+c : at+c]
}

// Entries returns the first n entries of the block whose first entry is
// at, n at most its capacity, without reading its header: the view the
// hot paths take. Valid until the next Alloc or Grow.
func (b *Blocks) Entries(at, n uint32) []Handle { return b.elts[at : at+n : at+n] }

// Put sets the entry at offset i, an entry of a block (its first entry's
// offset plus an index below its capacity), without reading the block's
// header: the hot paths' store.
func (b *Blocks) Put(i uint32, h Handle) { b.elts[i] = h }

// Alloc returns the first entry of a free block of at least c entries,
// c ≥ 1. Its entries are unspecified.
func (b *Blocks) Alloc(c uint32) uint32 {
	k := blockClass(c)
	c = 1 << k
	if at := b.free[k]; at != 0 {
		b.free[k] = uint32(b.elts[at])
		if b.check {
			for _, x := range b.elts[at+1 : at+c] {
				if x != poisonEntry {
					panic("arena: a free block was mutated while pooled")
				}
			}
		}
		return at
	}
	if b.elts == nil {
		b.elts = b.buf[:0]
	}
	at := uint32(len(b.elts)) + 1
	b.elts = append(b.elts, Handle(c))
	b.elts = append(b.elts, make([]Handle, c)...)
	return at
}

// Release puts the block whose first entry is at on its free list.
func (b *Blocks) Release(at uint32) {
	c := b.Cap(at)
	k := blockClass(c)
	if b.check {
		for i := at + 1; i < at+c; i++ {
			b.elts[i] = poisonEntry
		}
	}
	b.elts[at] = Handle(b.free[k])
	b.free[k] = at
}

// Grow moves the first n entries of the block at (0: none) to a block of
// at least c entries, releases the old block and returns the new one's
// first entry.
func (b *Blocks) Grow(at, n, c uint32) uint32 {
	to := b.Alloc(c)
	if at != 0 {
		copy(b.elts[to:to+n], b.elts[at:at+n])
		b.Release(at)
	}
	return to
}

// Len returns the number of words the array holds, headers and free
// blocks included (tests, diagnostics).
func (b *Blocks) Len() int { return len(b.elts) }

// Reset drops every block; every offset handed out becomes invalid.
func (b *Blocks) Reset() { *b = Blocks{check: b.check} }
