package probe

import (
	"testing"
)

// keyed is a table over handles that are their own keys, hashed one of
// four ways: through the seed as the owners do, into one home slot, into
// the last three slots of any table size (every run wraps around the
// table's end), or by the key itself (runs of consecutive homes).
type keyed struct {
	Table[uint32]
	mode byte
}

func (k *keyed) hash(x uint32) uint64 {
	switch k.mode % 4 {
	case 0:
		return Mix(k.Seed(), uint64(x))
	case 1:
		return 7
	case 2:
		return ^uint64(0) - uint64(x%3)
	}
	return uint64(x)
}

// find is the owners' lookup loop, with the handle as the key.
func (k *keyed) find(x uint32) bool {
	for i := k.Home(k.hash(x)); ; i = k.Next(i) {
		switch k.Slot(i) {
		case 0:
			return false
		case x:
			return true
		}
	}
}

// FuzzProbeTable drives random insert / lookup / delete interleavings
// against a Go map model, under each hash shape of keyed, and holds the
// table to the model after every operation: a stored key is found, a
// deleted or never-stored key is not, Len is the model's size, and Check
// finds every entry reachable from its home slot, however the table grew
// and however the deletion chains wrapped.
func FuzzProbeTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 1, 1, 2, 1})
	f.Add([]byte{1, 0, 1, 0, 2, 0, 3, 0, 4, 2, 2, 1, 3, 2, 1})
	f.Add([]byte{2, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 2, 1, 2, 4, 1, 7})
	f.Add([]byte{3, 0, 5, 0, 6, 0, 7, 0, 13, 0, 14, 2, 5, 1, 6, 2, 13, 1, 14})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		k := &keyed{Table: New[uint32](), mode: ops[0]}
		model := map[uint32]bool{}
		for n := 1; n+1 < len(ops); n += 2 {
			x := uint32(ops[n+1]%48) + 1
			switch ops[n] % 3 {
			case 0:
				if !model[x] {
					k.Insert(k.hash(x), x, k.hash)
					model[x] = true
				}
			case 1:
				if got := k.find(x); got != model[x] {
					t.Fatalf("op %d: lookup of %d found %v, the model holds %v", n, x, got, model[x])
				}
			case 2:
				if model[x] {
					k.Delete(k.hash(x), x, k.hash)
					delete(model, x)
				}
			}
			if k.Len() != len(model) {
				t.Fatalf("op %d: Len %d, the model holds %d", n, k.Len(), len(model))
			}
			if _, err := k.Check(k.hash); err != nil {
				t.Fatalf("op %d: %v", n, err)
			}
		}
		for x := uint32(1); x <= 48; x++ {
			if got := k.find(x); got != model[x] {
				t.Fatalf("lookup of %d found %v, the model holds %v", x, got, model[x])
			}
		}
	})
}

// TestEmptyTable: a table no record was added to has no slots, and every
// probe of it misses.
func TestEmptyTable(t *testing.T) {
	k := &keyed{Table: New[uint32]()}
	if k.slots != nil || k.find(1) || k.Len() != 0 {
		t.Fatalf("empty table: slots %v, Len %d", k.slots, k.Len())
	}
	k.Insert(k.hash(1), 1, k.hash)
	if len(k.slots) != minSlots || !k.find(1) {
		t.Fatalf("after one insert: %d slots, found %v", len(k.slots), k.find(1))
	}
}

// TestSeeds: two tables hash one key apart, so a set of keys that collides
// in one table does not collide in every table.
func TestSeeds(t *testing.T) {
	a, b := New[uint32](), New[uint32]()
	if a.Seed() == b.Seed() {
		t.Fatalf("two tables share the seed %#x", a.Seed())
	}
}
