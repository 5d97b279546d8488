package monitor

import (
	"testing"

	"rvgo/internal/arena"
	"rvgo/internal/index"
)

// FuzzSlabArena drives random interleavings of alloc/free/reuse against
// the monitor record arena — with the engine's own poison/verify pair
// installed — and checks the allocator invariants the engine's correctness
// rests on:
//
//   - no double handout: a slot index is never live under two handles;
//   - no aliasing: every live record still carries exactly the stamp its
//     allocation wrote (a lost or duplicated slot would scramble stamps);
//   - no generation resurrection: a freed handle never dereferences again,
//     on At (panic), Get (miss) or Alive (false), even after its slot is
//     reallocated under a fresh generation (the ABA case);
//   - poison trips on use-after-free: a stray write through a dangling
//     record pointer is caught by the verify hook when the slot leaves the
//     free list.
func FuzzSlabArena(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 2, 2, 0, 0, 3, 1, 0, 3, 1, 2, 2})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 2, 1, 0, 3, 3, 0, 2, 0, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var p arena.Pool[Mon]
		p.SetChecks(poisonMon, verifyMon)

		var (
			liveH []arena.Handle
			stamp = map[arena.Handle]uint32{} // live handle -> expected stamp
			slot  = map[uint32]arena.Handle{} // live slot index -> its handle
			stale []arena.Handle
			next  uint32
		)
		free := func(i int) {
			h := liveH[i]
			p.Free(h)
			liveH[i] = liveH[len(liveH)-1]
			liveH = liveH[:len(liveH)-1]
			delete(stamp, h)
			delete(slot, h.Index())
			stale = append(stale, h)
			if len(stale) > 64 {
				stale = stale[1:]
			}
		}
		mustBeStale := func(h arena.Handle) {
			t.Helper()
			if _, ok := p.Get(h); ok {
				t.Fatalf("stale handle %v resolved via Get", h)
			}
			if p.Alive(h) {
				t.Fatalf("stale handle %v reported alive", h)
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%v) on a stale handle did not panic", h)
				}
			}()
			p.At(h)
		}

		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			switch op % 4 {
			case 0: // alloc
				h, m := p.Alloc()
				if h.IsNil() {
					t.Fatal("Alloc returned Nil")
				}
				if prev, dup := slot[h.Index()]; dup {
					t.Fatalf("double handout: slot %d live under %v and %v", h.Index(), prev, h)
				}
				if _, reused := stamp[h]; reused {
					t.Fatalf("handle %v issued twice", h)
				}
				next++
				m.state = next
				stamp[h] = next
				slot[h.Index()] = h
				liveH = append(liveH, h)
			case 1: // free a live handle
				if len(liveH) == 0 {
					continue
				}
				free(arg % len(liveH))
			case 2: // audit every live record's stamp (no aliasing, no loss)
				for h, want := range stamp {
					if got := p.At(h).state; got != want {
						t.Fatalf("record %v stamp = %d, want %d (slot aliased or clobbered)", h, got, want)
					}
				}
				if p.Live() != len(liveH) {
					t.Fatalf("Live() = %d, model has %d", p.Live(), len(liveH))
				}
			case 3: // a freed handle must stay dead, even after ABA reuse
				if len(stale) == 0 {
					continue
				}
				mustBeStale(stale[arg%len(stale)])
			}
		}

		// Every remaining stale handle is still dead after all reuse.
		for _, h := range stale {
			mustBeStale(h)
		}

		// Poison discipline: scribbling through a dangling record pointer is
		// caught when the slot leaves the free list (LIFO: the next Alloc
		// pops exactly the slot just freed).
		if len(liveH) > 0 {
			h := liveH[0]
			dangling := p.At(h)
			p.Free(h)
			dangling.lastSym = 12345 // simulated use-after-free write
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("verify did not trip on a mutated freed record")
					}
				}()
				p.Alloc()
			}()
		}
	})
}

// TestLeafPoison: the engine's poison/verify pair on the leaf pool — a
// member added through a *Set kept past its leaf's recycling fails loudly
// when the record is reused.
func TestLeafPoison(t *testing.T) {
	var ls index.Leaves
	ls.SetChecks(poisonLeaf, verifyLeaf)
	var head arena.Handle
	stale := ls.Insert(&head, 1)
	ls.Compact(nopResolver{}, &head) // empty: recycled
	ls.Insert(&head, 1)              // an untouched record passes verify
	ls.Compact(nopResolver{}, &head)
	stale.Reserve(&ls)
	stale.Add(&ls, nopResolver{}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("a member added to a pooled leaf record went unnoticed")
		}
	}()
	ls.Insert(&head, 1)
}

type nopResolver struct{}

func (nopResolver) NotifyParamDeath(index.Handle) {}
func (nopResolver) Collectable(index.Handle) bool { return false }
func (nopResolver) Retain(index.Handle)           {}
func (nopResolver) Release(index.Handle)          {}
