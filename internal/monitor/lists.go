package monitor

import "rvgo/internal/arena"

// lists is the storage of the held object records' θ lists: per record,
// the handles of the θ-records that bind its object, which its free walks
// instead of the whole θ-table. After elib.Heap, the lists are blocks
// carved from one pointer-free array: a block is a header word holding
// its capacity followed by that many entries, the capacities are powers of
// two from minList up, and a freed block goes on its capacity's free list
// — threaded through the blocks' first entries — for the next list of that
// size. A list that outgrows its block moves to one twice as large. The
// array starts in buf and grows only past its high-water mark, so once it
// has, a new object's list costs no Go allocation, and an engine that
// holds few objects allocates none at all. Offset 0 is the first block's
// header, so no list starts there: a record whose at is 0 has no block.
// The zero value is ready.
type lists struct {
	elts []arena.Handle
	// free holds, by class (capacity minList<<class), the first entry of
	// the first free block, or 0; a free block's first entry holds the
	// next one's.
	free [maxClass]uint32
	buf  [16]arena.Handle
	// check arms poison-on-free (race builds): a freed block's entries
	// past its link are scrambled and verified when the block is handed
	// out again.
	check bool
}

const (
	// minList is the capacity of a list's first block: an object is bound
	// by a θ of its own and one or two more in most specs.
	minList = 2
	// maxClass bounds the classes: a list of minList<<maxClass (2^29)
	// entries, each a θ-record binding the object, would take 40 GB of θ
	// slots alone.
	maxClass = 28
)

// poisonEntry fills a free block's entries under check.
const poisonEntry = ^arena.Handle(0)

// capOf returns the capacity of the block whose first entry is at (0 for
// no block).
func (l *lists) capOf(at uint32) uint32 {
	if at == 0 {
		return 0
	}
	return uint32(l.elts[at-1])
}

// class returns the class of capacity c, a power of two at least minList.
func class(c uint32) int {
	k := 0
	for minList<<k < c {
		k++
	}
	return k
}

// alloc returns the first entry of a free block of capacity c.
func (l *lists) alloc(c uint32) uint32 {
	k := class(c)
	if at := l.free[k]; at != 0 {
		l.free[k] = uint32(l.elts[at])
		if l.check {
			for _, x := range l.elts[at+1 : at+c] {
				if x != poisonEntry {
					panic("monitor: free-list θ list block was mutated while pooled")
				}
			}
		}
		return at
	}
	if l.elts == nil {
		l.elts = l.buf[:0]
	}
	at := uint32(len(l.elts)) + 1
	l.elts = append(l.elts, arena.Handle(c))
	l.elts = append(l.elts, make([]arena.Handle, c)...)
	return at
}

// release puts the block whose first entry is at on its free list.
func (l *lists) release(at uint32) {
	c := l.capOf(at)
	k := class(c)
	if l.check {
		for i := at + 1; i < at+c; i++ {
			l.elts[i] = poisonEntry
		}
	}
	l.elts[at] = arena.Handle(l.free[k])
	l.free[k] = at
}

// push appends th to the list of r, dropping the entries live rejects
// first when the block is full, and moving to a block twice as large when
// that frees nothing.
func (l *lists) push(r *object, th arena.Handle, live func(arena.Handle) bool) {
	if c := l.capOf(r.at); r.n == c {
		n := uint32(0)
		for _, x := range l.elts[r.at : r.at+r.n] {
			if live(x) {
				l.elts[r.at+n] = x
				n++
			}
		}
		r.n = n
		if n == c {
			at := l.alloc(max(2*c, minList))
			copy(l.elts[at:], l.elts[r.at:r.at+n])
			if r.at != 0 {
				l.release(r.at)
			}
			r.at = at
		}
	}
	l.elts[r.at+r.n] = th
	r.n++
}

// of returns r's list, stale entries included: valid until the next push.
func (l *lists) of(r *object) []arena.Handle { return l.elts[r.at : r.at+r.n] }
