package param

import (
	"testing"

	"rvgo/internal/arena"
	"rvgo/internal/heap"
)

// FuzzThetaTable drives random intern / pin / unpin / kill-object / sweep
// interleavings against a plain map[Key] model of the θ-table, with the
// poison checks armed, and holds the table to what the engine relies on:
//
//   - a mapped key whose objects all live resolves to the same handle, and
//     to the payload written through it, however often it is interned;
//   - a pinned slot never recycles: its handle dereferences to its own
//     bindings until the last Unpin, mapped or not;
//   - no handle is handed out twice, and no slot is live under two;
//   - Len() is the model's size and the arena's live count is the number of
//     mapped-or-pinned slots.
func FuzzThetaTable(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 0, 0, 1})
	f.Add([]byte{0, 1, 0, 1, 1, 0, 3, 1, 4, 0, 0, 1, 2, 0})
	f.Add([]byte{0, 5, 1, 0, 1, 0, 3, 5, 4, 0, 2, 0, 2, 0, 0, 9})
	f.Add([]byte{0, 2, 0, 3, 3, 2, 3, 3, 4, 0, 0, 2, 1, 1, 3, 0, 4, 0, 2, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type slot struct {
			key  Key
			pins int
			tag  int
		}
		var (
			hp     = heap.New()
			objs   []*heap.Object
			in     = NewInterner[payload]()
			mapped = map[Key]arena.Handle{}
			live   = map[arena.Handle]*slot{} // mapped or pinned
			order  []arena.Handle             // every handle ever issued
			issued = map[arena.Handle]bool{}
			nextID int
		)
		in.SetChecks(func(p *payload) { p.tag = -1 }, func(p *payload) {
			if p.tag != -1 {
				t.Fatal("payload poison lost on a pooled slot")
			}
		})
		for i := 0; i < 6; i++ {
			objs = append(objs, hp.Alloc(""))
		}
		// instance picks one or two bindings out of the object pool; dead
		// objects are replaced first, as events only mention live ones.
		instance := func(arg byte) Instance {
			pick := func(i int) *heap.Object {
				if !objs[i].Alive() {
					objs[i] = hp.Alloc("")
				}
				return objs[i]
			}
			a, b := int(arg)%len(objs), int(arg/8)%len(objs)
			if arg&0x80 != 0 || a == b {
				return Of(SetOf(0), pick(a))
			}
			return Of(SetOf(0, 1), pick(a), pick(b))
		}
		check := func() {
			t.Helper()
			if in.Len() != len(mapped) {
				t.Fatalf("Len() = %d, model maps %d keys", in.Len(), len(mapped))
			}
			if got := in.Stats().Live; got != len(live) {
				t.Fatalf("arena live = %d, model holds %d mapped-or-pinned slots", got, len(live))
			}
			walked := 0
			for h, s := range in.All() {
				m := live[h]
				if m == nil {
					t.Fatalf("All yielded %v, which the model recycled", h)
				}
				_, isMapped := mapped[m.key]
				if s.Inst.Key() != m.key || int(s.Pins()) != m.pins || s.Data.tag != m.tag || s.Mapped() != (isMapped && mapped[m.key] == h) {
					t.Fatalf("slot %v = {%v pins %d tag %d mapped %v}, model %+v mapped %v", h, s.Inst.Key(), s.Pins(), s.Data.tag, s.Mapped(), *m, isMapped)
				}
				walked++
			}
			if walked != len(live) {
				t.Fatalf("All visited %d slots, model holds %d", walked, len(live))
			}
			for _, h := range order {
				if live[h] != nil {
					continue
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("recycled handle %v still dereferences", h)
						}
					}()
					in.At(h)
				}()
			}
		}
		release := func(h arena.Handle) { // model side of a slot losing a claim
			if m := live[h]; m.pins == 0 {
				if mh, ok := mapped[m.key]; !ok || mh != h {
					delete(live, h)
				}
			}
		}
		anyLive := func(arg byte) (arena.Handle, bool) {
			if len(live) == 0 {
				return arena.Nil, false
			}
			// order is deterministic, map iteration is not.
			k := int(arg) % len(order)
			for i := range order {
				if h := order[(k+i)%len(order)]; live[h] != nil {
					return h, true
				}
			}
			return arena.Nil, false
		}

		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 5 {
			case 0: // intern
				inst := instance(arg)
				h := in.Intern(inst)
				if want, ok := mapped[inst.Key()]; ok {
					if h != want {
						t.Fatalf("mapped all-alive key re-interned to %v, was %v", h, want)
					}
					break
				}
				if issued[h] {
					t.Fatalf("handle %v handed out twice", h)
				}
				for lh := range live {
					if lh.Index() == h.Index() {
						t.Fatalf("slot %d live under %v and %v", h.Index(), lh, h)
					}
				}
				nextID++
				in.At(h).Data.tag = nextID
				issued[h] = true
				order = append(order, h)
				mapped[inst.Key()] = h
				live[h] = &slot{key: inst.Key(), tag: nextID}
			case 1: // pin
				if h, ok := anyLive(arg); ok {
					in.Pin(h)
					live[h].pins++
				}
			case 2: // unpin
				if h, ok := anyLive(arg); ok && live[h].pins > 0 {
					in.Unpin(h)
					live[h].pins--
					release(h)
				}
			case 3: // kill an object
				hp.Free(objs[int(arg)%len(objs)])
			case 4: // the owner's sweep: unmap every θ with a dead object
				for h, s := range in.All() {
					if !s.Inst.AllAlive() {
						in.Unmap(h)
						if mapped[live[h].key] == h {
							delete(mapped, live[h].key)
						}
						release(h)
					}
				}
			}
			check()
		}
	})
}
