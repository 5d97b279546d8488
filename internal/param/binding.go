package param

import "rvgo/internal/heap"

// Binding is a parameter instance as a table stores it: dom(θ) and, per
// bound parameter, a uint32 handle naming the object in its owner's object
// table. θ is a partial map to object identities (Roşu & Chen), and an
// owner that keeps one record per object — its ref, its liveness — needs
// nothing more per binding. A Binding is pointer-free and comparable:
// unbound entries are zero, so two Bindings over one object table are equal
// exactly when they bind the same objects, and a Binding is its own map key.
//
// The operations mirror Instance's and agree with them whenever handles
// and objects correspond one to one, which is what an object table
// guarantees while any binding names a handle.
type Binding struct {
	Mask Set
	H    [MaxParams]uint32
}

// Compatible reports whether b and u agree on dom(b) ∩ dom(u) (Def. 5).
func (b *Binding) Compatible(u *Binding) bool {
	for m := b.Mask & u.Mask; m != 0; m = m.Rest() {
		if i := m.First(); b.H[i] != u.H[i] {
			return false
		}
	}
	return true
}

// LessInformative reports b ⊑ u: every binding of b is a binding of u.
func (b *Binding) LessInformative(u *Binding) bool {
	return b.Mask.SubsetOf(u.Mask) && b.Compatible(u)
}

// Lub returns b ⊔ u and true when the two are compatible; otherwise the
// zero Binding and false.
func (b *Binding) Lub(u *Binding) (Binding, bool) {
	if !b.Compatible(u) {
		return Binding{}, false
	}
	r := *b
	for m := u.Mask &^ b.Mask; m != 0; m = m.Rest() {
		i := m.First()
		r.H[i] = u.H[i]
	}
	r.Mask |= u.Mask
	return r, true
}

// Restrict returns b restricted to the parameters in s.
func (b *Binding) Restrict(s Set) Binding {
	r := Binding{Mask: b.Mask & s}
	for m := r.Mask; m != 0; m = m.Rest() {
		i := m.First()
		r.H[i] = b.H[i]
	}
	return r
}

// Instance resolves the binding to the instance it stands for, ref mapping
// each handle to its object.
func (b *Binding) Instance(ref func(uint32) heap.Ref) Instance {
	t := Instance{mask: b.Mask}
	for m := b.Mask; m != 0; m = m.Rest() {
		i := m.First()
		t.vals[i] = ref(b.H[i])
	}
	return t
}
