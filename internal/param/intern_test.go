package param

import (
	"math/rand"
	"testing"

	"rvgo/internal/arena"
	"rvgo/internal/heap"
)

// payload stands in for the engine's per-θ record in these tests.
type payload struct{ tag int }

// objects stands in for the owner's object table: a binding names an
// object by its handle, and the owner tracks which handles are dead.
type objects struct{ dead map[uint32]bool }

func newObjects() *objects { return &objects{dead: map[uint32]bool{}} }

// allAlive reports whether every object b binds is alive.
func (o *objects) allAlive(b *Binding) bool {
	for m := b.Mask; m != 0; m = m.Rest() {
		if o.dead[b.H[m.First()]] {
			return false
		}
	}
	return true
}

// bind builds the binding of the parameters in mask to the handles hs, in
// increasing parameter order.
func bind(mask Set, hs ...uint32) *Binding {
	b := Binding{Mask: mask}
	k := 0
	for m := mask; m != 0; m = m.Rest() {
		b.H[m.First()] = hs[k]
		k++
	}
	return &b
}

// intern interns b, discarding the added report.
func intern(in *Interner[payload], b *Binding) arena.Handle {
	h, _ := in.Intern(b)
	return h
}

// sweepDead is the owner's sweep over a table: every slot with a dead
// bound object is unmapped unless keep retains it.
func sweepDead(in *Interner[payload], objs *objects, keep func(*Slot[payload]) bool) {
	for h, s := range in.All() {
		if !objs.allAlive(&s.B) && (keep == nil || !keep(s)) {
			in.Unmap(h)
		}
	}
}

func TestInternerCanonicalizes(t *testing.T) {
	const a, b = 1, 2
	in := NewInterner[payload]()

	h1, added1 := in.Intern(bind(SetOf(0, 1), a, b))
	h2, added2 := in.Intern(bind(SetOf(0, 1), a, b))
	if h1 != h2 || in.At(h1) != in.At(h2) {
		t.Fatalf("identical bindings interned to distinct slots %v %v", h1, h2)
	}
	if !added1 || added2 {
		t.Fatalf("added = %v then %v, want true then false", added1, added2)
	}
	h3 := intern(in, bind(SetOf(0), a))
	if h3 == h1 || in.At(h3) == in.At(h1) {
		t.Fatalf("distinct bindings interned to one slot")
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
	k1 := in.At(h1).B
	if gh, ok := in.Get(&k1); !ok || gh != h1 {
		t.Fatalf("Get(%v) = %v, %v", k1, gh, ok)
	}
	if in.At(h1).B != *bind(SetOf(0, 1), a, b) {
		t.Fatalf("At(%v) does not hold the interned binding", h1)
	}
	if _, ok := in.Get(bind(SetOf(1), b)); ok {
		t.Fatalf("Get invented an entry")
	}
	// The payload belongs to the slot: what is written through one
	// resolution of θ is read through the next.
	in.At(h1).Data.tag = 7
	if got := in.At(intern(in, bind(SetOf(0, 1), a, b))).Data.tag; got != 7 {
		t.Fatalf("payload = %d through a second Intern, want 7", got)
	}
	if in.At(h3).Data.tag != 0 {
		t.Fatalf("payload leaked between slots")
	}
}

func TestInternerSweep(t *testing.T) {
	const a, b, c = 1, 2, 3
	objs := newObjects()
	in := NewInterner[payload]()
	ha := intern(in, bind(SetOf(0), a))
	hb := intern(in, bind(SetOf(0), b))
	hc := intern(in, bind(SetOf(0), c))
	ka, kb, kc := in.At(ha).B, in.At(hb).B, in.At(hc).B
	in.At(hc).Data.tag = 1 // the owner still keeps something under c's θ

	objs.dead[b], objs.dead[c] = true, true
	sweepDead(in, objs, func(s *Slot[payload]) bool { return s.Data.tag != 0 })
	if in.Len() != 2 {
		t.Fatalf("Len = %d after sweep, want 2", in.Len())
	}
	if got, ok := in.Get(&ka); !ok || got != ha {
		t.Fatalf("live entry swept")
	}
	if got, ok := in.Get(&kc); !ok || got != hc {
		t.Fatalf("retained entry swept")
	}
	if _, ok := in.Get(&kb); ok {
		t.Fatalf("dead unretained entry kept")
	}
	if in.Stats().Live != 2 {
		t.Fatalf("arena live = %d after sweep, want 2 (the swept slot recycled)", in.Stats().Live)
	}

	// The retained binding keeps its identity across the sweep; the swept
	// handle is stale.
	if got := intern(in, &in.At(hc).B); got != hc {
		t.Fatalf("retained binding lost its slot")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("At on a swept, unpinned slot did not panic")
		}
	}()
	in.At(hb)
}

// TestInternerPins: a monitor's pin keeps the slot alive across a sweep
// that drops the table mapping; the final Unpin recycles it and hands the
// binding back.
func TestInternerPins(t *testing.T) {
	const a = 1
	objs := newObjects()
	in := NewInterner[payload]()
	ha := intern(in, bind(SetOf(0), a))
	sa := in.At(ha)
	in.Pin(ha)

	objs.dead[a] = true
	sweepDead(in, objs, nil)
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
	if _, freed := in.Unmap(ha); freed { // idempotent on an unmapped slot
		t.Fatalf("Unmap of an unmapped pinned slot recycled it")
	}
	if b, freed := in.Unpin(ha); !freed || b != *bind(SetOf(0), a) {
		t.Fatalf("final Unpin = %v, %v; want the slot's binding, true", b, freed)
	}
	if live := in.Stats().Live; live != 0 {
		t.Fatalf("arena live = %d after final Unpin, want 0", live)
	}
}

// TestInternerUnpinWhileMapped: dropping the last pin does not recycle a
// slot the table still maps — Unmap owns the mapping claim.
func TestInternerUnpinWhileMapped(t *testing.T) {
	in := NewInterner[payload]()
	ha := intern(in, bind(SetOf(0), 1))
	in.Pin(ha)
	if _, freed := in.Unpin(ha); freed {
		t.Fatalf("Unpin reported a mapped slot recycled")
	}
	if gh, ok := in.Get(&in.At(ha).B); !ok || gh != ha {
		t.Fatalf("mapped slot recycled by Unpin")
	}
	if live := in.Stats().Live; live != 1 {
		t.Fatalf("arena live = %d, want 1", live)
	}
}

// TestInternerPoison: with the checks armed, a write through a stale view
// of a recycled slot — binding or payload — fails when the slot is handed
// out again.
func TestInternerPoison(t *testing.T) {
	const a, b = 1, 2
	for name, scribble := range map[string]func(*Slot[payload]){
		"binding": func(s *Slot[payload]) { s.B = *bind(SetOf(0), b) },
		"payload": func(s *Slot[payload]) { s.Data.tag = 3 },
		"none":    nil,
	} {
		in := NewInterner[payload]()
		in.SetChecks(func(p *payload) { p.tag = -1 }, func(p *payload) {
			if p.tag != -1 {
				panic("payload poison lost")
			}
		})
		ha := intern(in, bind(SetOf(0), a))
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
			if s := in.At(intern(in, bind(SetOf(0), b))); s.Data.tag != 0 || s.Pins() != 0 {
				t.Fatalf("%s: reused slot not zeroed: %+v", name, s)
			}
		}()
	}
}

// TestBindingMirrorsInstance: over one object table — handle i names
// object i — the Binding operations agree with the Instance ones, and a
// binding resolves back to the instance it stands for.
func TestBindingMirrorsInstance(t *testing.T) {
	h := heap.New()
	var objs []heap.Ref
	for range 4 {
		objs = append(objs, h.Alloc(""))
	}
	ref := func(i uint32) heap.Ref { return objs[i] }
	r := rand.New(rand.NewSource(1))
	random := func() (Instance, Binding) {
		var b Binding
		for i := range 4 {
			if r.Intn(2) == 1 {
				b.Mask |= SetOf(i)
				b.H[i] = uint32(r.Intn(len(objs)))
			}
		}
		return b.Instance(ref), b
	}
	for range 2000 {
		ti, tb := random()
		ui, ub := random()
		if ti.Key() != tb.Instance(ref).Key() || ti.Mask() != tb.Mask {
			t.Fatalf("%v does not resolve to its instance", tb)
		}
		if tb.Compatible(&ub) != ti.Compatible(ui) || tb.LessInformative(&ub) != ti.LessInformative(ui) {
			t.Fatalf("order of %v, %v disagrees with the instances'", tb, ub)
		}
		lb, okb := tb.Lub(&ub)
		li, oki := ti.Lub(ui)
		if okb != oki || okb && lb.Instance(ref).Key() != li.Key() {
			t.Fatalf("%v ⊔ %v = %v, %v; the instances give %v, %v", tb, ub, lb, okb, li, oki)
		}
		s := Set(r.Intn(16))
		if rb := tb.Restrict(s); rb.Instance(ref).Key() != ti.Restrict(s).Key() {
			t.Fatalf("%v|%v = %v, the instance gives %v", tb, s, rb, ti.Restrict(s))
		}
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

// TestInternerProbeLengths: 10⁵ bindings of the shapes an engine issues in
// order — one object, handles 0, 1, 2, …; two objects, handles (k, k+1) —
// sit within a bounded probe of their home slots in every seeded table.
// The bounds are twice the worst maximum and mean measured over 48 tables
// per shape.
func TestInternerProbeLengths(t *testing.T) {
	const keys, tables = 100_000, 4
	const maxBound, meanBound = 56, 2.63
	for _, shape := range []struct {
		name string
		bind func(k uint32) *Binding
	}{
		{"sequential handles", func(k uint32) *Binding { return bind(SetOf(0), k) }},
		{"(k, k+1)", func(k uint32) *Binding { return bind(SetOf(0, 1), k, k+1) }},
	} {
		for range tables {
			in := NewInterner[payload]()
			for k := range uint32(keys) {
				intern(in, shape.bind(k))
			}
			p, err := in.Check()
			if err != nil {
				t.Fatalf("%s: %v", shape.name, err)
			}
			t.Logf("%s: longest probe %d, mean %.3f", shape.name, p.Max, p.Mean)
			if p.Max > maxBound || p.Mean > meanBound {
				t.Errorf("%s: longest probe %d, mean %.3f; want at most %d and %.2f", shape.name, p.Max, p.Mean, maxBound, meanBound)
			}
		}
	}
}
