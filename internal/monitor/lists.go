package monitor

import "rvgo/internal/arena"

// The held object records' θ lists — per record, the handles of the
// θ-records that bind its object, which its free walks instead of the
// whole θ-table — are blocks of the engine's one block heap (arena.Blocks,
// shared with the leaf member vectors and the domain registries; see
// Engine.leaves). A record's at and n locate its list; at 0 means no block.

// minList is the capacity of a list's first block: an object is bound by a
// θ of its own and one or two more in most specs.
const minList = 2

// push appends th to the list of r, dropping the entries live rejects
// first when the block is full, and moving to a block twice as large when
// that frees nothing.
func (o *objects) push(r *object, th arena.Handle, live func(arena.Handle) bool) {
	blk := o.heap.Block(r.at)
	if c := uint32(len(blk)); r.n == c {
		n := uint32(0)
		for _, x := range blk[:r.n] {
			if live(x) {
				blk[n] = x
				n++
			}
		}
		r.n = n
		if n == c {
			r.at = o.heap.Grow(r.at, n, max(2*c, minList))
			blk = o.heap.Block(r.at)
		}
	}
	blk[r.n] = th
	r.n++
}

// list returns r's list, stale entries included: valid until the next
// push.
func (o *objects) list(r *object) []arena.Handle { return o.heap.Entries(r.at, r.n) }
