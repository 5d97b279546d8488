package arena

import (
	"slices"
	"testing"
)

// vec is the model of one vector kept in a Blocks: its block's first
// entry and its entries as a Go slice.
type vec struct {
	at    uint32
	items []Handle
}

// checkBlocks holds the heap to the model: every vector reads back its
// entries from a power-of-two block that holds them, no two blocks (live
// or free) overlap, and the live and free blocks with their headers tile
// the whole array.
func checkBlocks(t *testing.T, b *Blocks, vs []vec, free map[uint32]bool) {
	t.Helper()
	type span struct{ lo, hi uint32 }
	var spans []span
	for i, v := range vs {
		c := b.Cap(v.at)
		if c == 0 || c&(c-1) != 0 || int(c) < len(v.items) {
			t.Fatalf("vector %d: block capacity %d for %d entries", i, c, len(v.items))
		}
		if got := b.Entries(v.at, uint32(len(v.items))); !slices.Equal(got, v.items) {
			t.Fatalf("vector %d reads %v, want %v", i, got, v.items)
		}
		spans = append(spans, span{v.at - 1, v.at + c})
	}
	for at := range free {
		spans = append(spans, span{at - 1, at + b.Cap(at)})
	}
	slices.SortFunc(spans, func(x, y span) int { return int(x.lo) - int(y.lo) })
	end := uint32(0)
	for _, s := range spans {
		if s.lo != end {
			t.Fatalf("blocks do not tile the array: a block starts at %d, the previous one ends at %d", s.lo, end)
		}
		end = s.hi
	}
	if int(end) != b.Len() {
		t.Fatalf("blocks end at %d, the array holds %d words", end, b.Len())
	}
}

// FuzzBlocks drives random alloc, append (with the move to a block twice
// as large), grow and release sequences through a Blocks with poison-on-
// free armed, against a model of Go slices: every vector keeps its
// entries, a released block is handed out again before the array grows,
// and no reused block trips the poison check.
func FuzzBlocks(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 1, 2, 0, 3, 9})
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 2, 0, 0, 1, 4, 2, 1, 3, 200, 0, 1})
	f.Add([]byte{0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 0, 0, 5, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var b Blocks
		b.SetChecks(true)
		var vs []vec
		free := map[uint32]bool{}
		next := Handle(1)
		take := func(at uint32) {
			if free[at] {
				delete(free, at)
			} else if int(at) != b.Len()-int(b.Cap(at)) {
				t.Fatalf("block %d is neither a released block nor the array's new end", at)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%5, ops[i+1]
			var v *vec
			if len(vs) > 0 {
				v = &vs[int(arg)%len(vs)]
			}
			switch {
			case op == 0 || v == nil: // a new vector
				c := uint32(1) << (arg % 6)
				class := blockClass(c)
				reuse := b.free[class]
				at := b.Alloc(c)
				if reuse != 0 && at != reuse {
					t.Fatalf("Alloc(%d) = %d, the class's free block %d was not reused", c, at, reuse)
				}
				take(at)
				vs = append(vs, vec{at: at})
			case op == 1: // append, moving to a block twice as large when full
				if c := b.Cap(v.at); uint32(len(v.items)) == c {
					at := b.Grow(v.at, c, 2*c)
					free[v.at] = true
					take(at)
					v.at = at
				}
				b.Entries(v.at, uint32(len(v.items))+1)[len(v.items)] = next
				v.items = append(v.items, next)
				next++
			case op == 2: // release
				b.Release(v.at)
				free[v.at] = true
				k := int(arg) % len(vs)
				vs = slices.Delete(vs, k, k+1)
			case op == 3: // grow to hold arg more entries
				want := uint32(len(v.items)) + uint32(arg%40)
				if want > b.Cap(v.at) {
					at := b.Grow(v.at, uint32(len(v.items)), want)
					free[v.at] = true
					take(at)
					v.at = at
				}
			case op == 4: // overwrite the entries in place
				for j := range v.items {
					v.items[j] = next
					b.Entries(v.at, uint32(len(v.items)))[j] = next
					next++
				}
			}
			checkBlocks(t, &b, vs, free)
		}
		b.Reset()
		if b.Len() != 0 {
			t.Fatalf("Reset left %d words", b.Len())
		}
	})
}

// TestBlocksPoison: with the checks armed, a write into a released block
// — through an offset kept past its Release — fails when the block is
// handed out again; an untouched block passes.
func TestBlocksPoison(t *testing.T) {
	for _, scribble := range []bool{false, true} {
		var b Blocks
		b.SetChecks(true)
		at := b.Alloc(4)
		b.Release(at)
		if scribble {
			b.elts[at+2] = 7 // a stale writer
		}
		func() {
			defer func() {
				if tripped := recover() != nil; tripped != scribble {
					t.Fatalf("scribble %v: verify tripped = %v", scribble, tripped)
				}
			}()
			if got := b.Alloc(3); got != at {
				t.Fatalf("Alloc(3) = %d, want the released block %d", got, at)
			}
		}()
	}
}
