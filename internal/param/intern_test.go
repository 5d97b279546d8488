package param

import (
	"testing"

	"rvgo/internal/heap"
)

// payload stands in for the engine's per-θ record in these tests.
type payload struct{ tag int }

// sweepDead is the owner's sweep over a table: every slot with a dead
// bound object is unmapped unless keep retains it.
func sweepDead(in *Interner[payload], keep func(*Slot[payload]) bool) {
	for h, s := range in.All() {
		if !s.Inst.AllAlive() && (keep == nil || !keep(s)) {
			in.Unmap(h)
		}
	}
}

func TestInternerCanonicalizes(t *testing.T) {
	h := heap.New()
	a, b := h.Alloc("a"), h.Alloc("b")
	in := NewInterner[payload]()

	h1 := in.Intern(Of(SetOf(0, 1), a, b))
	h2 := in.Intern(Of(SetOf(0, 1), a, b))
	if h1 != h2 || in.At(h1) != in.At(h2) {
		t.Fatalf("identical bindings interned to distinct slots %v %v", h1, h2)
	}
	h3 := in.Intern(Of(SetOf(0), a))
	if h3 == h1 || in.At(h3) == in.At(h1) {
		t.Fatalf("distinct bindings interned to one slot")
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
	k1 := in.At(h1).Inst.Key()
	if gh, ok := in.Get(k1); !ok || gh != h1 {
		t.Fatalf("Get(%v) = %v, %v", k1, gh, ok)
	}
	if in.At(h1).Inst.Key() != Of(SetOf(0, 1), a, b).Key() {
		t.Fatalf("At(%v) does not hold the interned bindings", h1)
	}
	if _, ok := in.Get(Of(SetOf(1), b).Key()); ok {
		t.Fatalf("Get invented an entry")
	}
	// The payload belongs to the slot: what is written through one
	// resolution of θ is read through the next.
	in.At(h1).Data.tag = 7
	if got := in.At(in.Intern(Of(SetOf(0, 1), a, b))).Data.tag; got != 7 {
		t.Fatalf("payload = %d through a second Intern, want 7", got)
	}
	if in.At(h3).Data.tag != 0 {
		t.Fatalf("payload leaked between slots")
	}
}

func TestInternerSweep(t *testing.T) {
	h := heap.New()
	a, b, c := h.Alloc("a"), h.Alloc("b"), h.Alloc("c")
	in := NewInterner[payload]()
	ha := in.Intern(Of(SetOf(0), a))
	hb := in.Intern(Of(SetOf(0), b))
	hc := in.Intern(Of(SetOf(0), c))
	ka, kb, kc := in.At(ha).Inst.Key(), in.At(hb).Inst.Key(), in.At(hc).Inst.Key()
	in.At(hc).Data.tag = 1 // the owner still keeps something under c's θ

	h.Free(b)
	h.Free(c)
	sweepDead(in, func(s *Slot[payload]) bool { return s.Data.tag != 0 })
	if in.Len() != 2 {
		t.Fatalf("Len = %d after sweep, want 2", in.Len())
	}
	if got, ok := in.Get(ka); !ok || got != ha {
		t.Fatalf("live entry swept")
	}
	if got, ok := in.Get(kc); !ok || got != hc {
		t.Fatalf("retained entry swept")
	}
	if _, ok := in.Get(kb); ok {
		t.Fatalf("dead unretained entry kept")
	}
	if in.Stats().Live != 2 {
		t.Fatalf("arena live = %d after sweep, want 2 (the swept slot recycled)", in.Stats().Live)
	}

	// The retained instance keeps its identity across the sweep; the swept
	// handle is stale.
	if got := in.Intern(in.At(hc).Inst); got != hc {
		t.Fatalf("retained instance lost its slot")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("At on a swept, unpinned slot did not panic")
		}
	}()
	in.At(hb)
}

// TestInternerPins: a monitor's pin keeps the slot alive across a sweep
// that drops the table mapping; the final Unpin recycles it.
func TestInternerPins(t *testing.T) {
	h := heap.New()
	a := h.Alloc("a")
	in := NewInterner[payload]()
	ha := in.Intern(Of(SetOf(0), a))
	sa := in.At(ha)
	in.Pin(ha)

	h.Free(a)
	sweepDead(in, nil)
	if in.Len() != 0 {
		t.Fatalf("Len = %d after sweep, want 0 (mapping dropped)", in.Len())
	}
	// The pinned slot survives: the handle still dereferences, to the same
	// record, and the walk still reaches it.
	if in.At(ha) != sa || sa.Mapped() || sa.Pins() != 1 {
		t.Fatalf("pinned slot recycled under a live handle")
	}
	if live := in.Stats().Live; live != 1 {
		t.Fatalf("arena live = %d, want 1 (the pinned slot)", live)
	}
	n := 0
	for range in.All() {
		n++
	}
	if n != 1 {
		t.Fatalf("All visited %d slots, want the pinned one", n)
	}
	in.Unmap(ha) // idempotent on an unmapped slot
	in.Unpin(ha)
	if live := in.Stats().Live; live != 0 {
		t.Fatalf("arena live = %d after final Unpin, want 0", live)
	}
}

// TestInternerUnpinWhileMapped: dropping the last pin does not recycle a
// slot the table still maps — Unmap owns the mapping claim.
func TestInternerUnpinWhileMapped(t *testing.T) {
	h := heap.New()
	a := h.Alloc("a")
	in := NewInterner[payload]()
	ha := in.Intern(Of(SetOf(0), a))
	in.Pin(ha)
	in.Unpin(ha)
	if gh, ok := in.Get(in.At(ha).Inst.Key()); !ok || gh != ha {
		t.Fatalf("mapped slot recycled by Unpin")
	}
	if live := in.Stats().Live; live != 1 {
		t.Fatalf("arena live = %d, want 1", live)
	}
}

// TestInternerPoison: with the checks armed, a write through a stale view
// of a recycled slot — bindings or payload — fails when the slot is handed
// out again.
func TestInternerPoison(t *testing.T) {
	h := heap.New()
	a, b := h.Alloc("a"), h.Alloc("b")
	for name, scribble := range map[string]func(*Slot[payload]){
		"instance": func(s *Slot[payload]) { s.Inst = Of(SetOf(0), b) },
		"payload":  func(s *Slot[payload]) { s.Data.tag = 3 },
		"none":     nil,
	} {
		in := NewInterner[payload]()
		in.SetChecks(func(p *payload) { p.tag = -1 }, func(p *payload) {
			if p.tag != -1 {
				panic("payload poison lost")
			}
		})
		ha := in.Intern(Of(SetOf(0), a))
		stale := in.At(ha)
		in.Unmap(ha)
		if scribble != nil {
			scribble(stale)
		}
		func() {
			defer func() {
				if tripped := recover() != nil; tripped != (scribble != nil) {
					t.Fatalf("%s: verify tripped = %v", name, tripped)
				}
			}()
			if s := in.At(in.Intern(Of(SetOf(0), b))); s.Data.tag != 0 || s.Pins() != 0 {
				t.Fatalf("%s: reused slot not zeroed: %+v", name, s)
			}
		}()
	}
}

func TestAllAliveAndBitIteration(t *testing.T) {
	h := heap.New()
	a, b := h.Alloc("a"), h.Alloc("b")
	inst := Of(SetOf(1, 3), a, b)
	if !inst.AllAlive() {
		t.Fatalf("AllAlive = false on live instance")
	}
	h.Free(b)
	if inst.AllAlive() {
		t.Fatalf("AllAlive = true with dead binding")
	}
	if inst.AliveMask() != SetOf(1) {
		t.Fatalf("AliveMask = %v, want {1}", inst.AliveMask())
	}

	// First/Rest enumerate exactly Members, in order.
	s := SetOf(0, 2, 5, 7)
	var got []int
	for m := s; m != 0; m = m.Rest() {
		got = append(got, m.First())
	}
	want := s.Members()
	if len(got) != len(want) {
		t.Fatalf("bit iteration yielded %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("bit iteration yielded %v, want %v", got, want)
		}
	}
}
