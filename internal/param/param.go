// Package param implements parameter instances for parametric monitoring:
// partial functions θ ∈ [X ⇁ V] from a finite set of parameters X to
// runtime objects V, together with the informativeness order θ ⊑ θ',
// compatibility, and least upper bounds θ ⊔ θ' (paper §2, Definitions 3–5).
//
// A property has at most MaxParams parameters; parameters are identified by
// their index in the property's parameter list, and sets of parameters are
// bitmasks (Set). Values are heap.Refs, so instances never keep parameter
// objects alive.
package param

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"rvgo/internal/heap"
)

// MaxParams is the maximum number of parameters per property. The paper's
// evaluated properties use at most three (UNSAFEMAPITER and the UNSAFESYNC
// variants bind a map, a collection view and an iterator).
const MaxParams = 8

// Set is a bitmask of parameter indices.
type Set uint16

// SetOf builds a Set from parameter indices.
func SetOf(idx ...int) Set {
	var s Set
	for _, i := range idx {
		s |= 1 << uint(i)
	}
	return s
}

// Has reports whether parameter i is in the set.
func (s Set) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return s | t }

// Inter returns s ∩ t.
func (s Set) Inter(t Set) Set { return s & t }

// Diff returns s \ t.
func (s Set) Diff(t Set) Set { return s &^ t }

// SubsetOf reports s ⊆ t.
func (s Set) SubsetOf(t Set) bool { return s&^t == 0 }

// Empty reports whether the set has no members.
func (s Set) Empty() bool { return s == 0 }

// Count returns the number of parameters in the set.
func (s Set) Count() int { return bits.OnesCount16(uint16(s)) }

// Members returns the parameter indices in increasing order. It allocates;
// hot paths iterate the mask directly (see the bit loops below) instead.
func (s Set) Members() []int {
	m := make([]int, 0, s.Count())
	for i := 0; i < MaxParams; i++ {
		if s.Has(i) {
			m = append(m, i)
		}
	}
	return m
}

// The hot-path iteration idiom: peel the lowest set bit until empty.
//
//	for m := s; m != 0; m = m.Rest() {
//		i := m.First()
//		...
//	}
//
// First/Rest compile to two instructions each and never allocate, unlike
// Members. Every per-event path below uses this form.

// First returns the smallest parameter index in the set. Undefined on the
// empty set.
func (s Set) First() int { return bits.TrailingZeros16(uint16(s)) }

// Rest returns the set without its smallest member.
func (s Set) Rest() Set { return s & (s - 1) }

// Format renders the set using the given parameter names, e.g. "{c, i}".
func (s Set) Format(names []string) string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, i := range s.Members() {
		if !first {
			b.WriteString(", ")
		}
		first = false
		if i < len(names) {
			b.WriteString(names[i])
		} else {
			fmt.Fprintf(&b, "p%d", i)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Instance is a parameter instance θ: a partial map from parameter indices
// to objects. The zero value is ⊥, the empty instance.
type Instance struct {
	mask Set
	vals [MaxParams]heap.Ref
}

// Empty returns ⊥, the instance binding no parameters.
func Empty() Instance { return Instance{} }

// Bind returns a copy of θ with parameter i bound to v. Rebinding a
// parameter to a different object panics: event dispatch never rebinds.
func (t Instance) Bind(i int, v heap.Ref) Instance {
	if v == nil {
		panic("param: Bind with nil value")
	}
	if t.mask.Has(i) && t.vals[i].ID() != v.ID() {
		panic(fmt.Sprintf("param: rebinding parameter %d", i))
	}
	t.mask |= 1 << uint(i)
	t.vals[i] = v
	return t
}

// Of builds an instance binding the given parameter indices (mask) to vals,
// in increasing index order.
func Of(mask Set, vals ...heap.Ref) Instance {
	if mask.Count() != len(vals) {
		panic("param: Of arity mismatch")
	}
	t := Instance{mask: mask}
	k := 0
	for m := mask; m != 0; m = m.Rest() {
		if vals[k] == nil {
			panic("param: Bind with nil value")
		}
		t.vals[m.First()] = vals[k]
		k++
	}
	return t
}

// Mask returns dom(θ) as a Set.
func (t Instance) Mask() Set { return t.mask }

// Value returns θ(i), or nil if i ∉ dom(θ).
func (t Instance) Value(i int) heap.Ref {
	if !t.mask.Has(i) {
		return nil
	}
	return t.vals[i]
}

// Compatible reports whether θ and u agree on dom(θ) ∩ dom(u) (Def. 5).
func (t Instance) Compatible(u Instance) bool {
	for m := t.mask & u.mask; m != 0; m = m.Rest() {
		i := m.First()
		if t.vals[i].ID() != u.vals[i].ID() {
			return false
		}
	}
	return true
}

// LessInformative reports θ ⊑ u: every binding of θ is a binding of u.
func (t Instance) LessInformative(u Instance) bool {
	if !t.mask.SubsetOf(u.mask) {
		return false
	}
	for m := t.mask; m != 0; m = m.Rest() {
		i := m.First()
		if t.vals[i].ID() != u.vals[i].ID() {
			return false
		}
	}
	return true
}

// Lub returns θ ⊔ u and true when the two instances are compatible;
// otherwise the zero Instance and false.
func (t Instance) Lub(u Instance) (Instance, bool) {
	if !t.Compatible(u) {
		return Instance{}, false
	}
	for m := u.mask; m != 0; m = m.Rest() {
		i := m.First()
		t.vals[i] = u.vals[i]
	}
	t.mask |= u.mask
	return t, true
}

// Restrict returns θ restricted to the parameters in s.
func (t Instance) Restrict(s Set) Instance {
	r := Instance{mask: t.mask & s}
	for m := r.mask; m != 0; m = m.Rest() {
		i := m.First()
		r.vals[i] = t.vals[i]
	}
	return r
}

// Map returns θ over the same domain with every bound object v replaced by
// f(i, v). f must preserve identity (the image's ID is v's): the result is
// the same instance held through other references. It does not allocate.
func (t Instance) Map(f func(i int, v heap.Ref) heap.Ref) Instance {
	for m := t.mask; m != 0; m = m.Rest() {
		i := m.First()
		t.vals[i] = f(i, t.vals[i])
	}
	return t
}

// AliveMask returns the set of bound parameters whose objects are alive.
func (t Instance) AliveMask() Set {
	var s Set
	for m := t.mask; m != 0; m = m.Rest() {
		i := m.First()
		if t.vals[i].Alive() {
			s |= 1 << uint(i)
		}
	}
	return s
}

// AllAlive reports whether every bound parameter object is alive — the
// per-event death check, with an early exit the full AliveMask lacks.
func (t Instance) AllAlive() bool {
	for m := t.mask; m != 0; m = m.Rest() {
		if !t.vals[m.First()].Alive() {
			return false
		}
	}
	return true
}

// Key is a comparable identity for an instance, suitable as a map key.
type Key struct {
	Mask Set
	IDs  [MaxParams]uint64
}

// Key returns the instance's identity.
func (t Instance) Key() Key {
	k := Key{Mask: t.mask}
	for m := t.mask; m != 0; m = m.Rest() {
		i := m.First()
		k.IDs[i] = t.vals[i].ID()
	}
	return k
}

// AppendIDs appends the bound IDs to dst in ascending parameter order:
// the instance as an event or verdict record carries it.
func (k Key) AppendIDs(dst []uint64) []uint64 {
	for m := k.Mask; m != 0; m = m.Rest() {
		dst = append(dst, k.IDs[m.First()])
	}
	return dst
}

// Format renders the key using the given parameter names, labelling each
// object rN by its ID N — what Instance.Format prints for an object known
// by its ID alone.
func (k Key) Format(names []string) string {
	var b strings.Builder
	b.WriteByte('<')
	for m := k.Mask; m != 0; m = m.Rest() {
		i := m.First()
		if m != k.Mask {
			b.WriteString(", ")
		}
		if i < len(names) {
			b.WriteString(names[i])
		} else {
			fmt.Fprintf(&b, "p%d", i)
		}
		fmt.Fprintf(&b, "=r%d", k.IDs[i])
	}
	b.WriteByte('>')
	return b.String()
}

// String renders the key as ⟨name↦rN, …⟩ using indices as names.
func (k Key) String() string { return k.Format(nil) }

// String renders the instance as ⟨name↦label, …⟩ using indices as names.
func (t Instance) String() string {
	var b strings.Builder
	b.WriteByte('<')
	first := true
	for _, i := range t.mask.Members() {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "p%d=%s", i, t.vals[i].Label())
	}
	b.WriteByte('>')
	return b.String()
}

// Format renders the instance using the given parameter names.
func (t Instance) Format(names []string) string {
	var b strings.Builder
	b.WriteByte('<')
	first := true
	for _, i := range t.mask.Members() {
		if !first {
			b.WriteString(", ")
		}
		first = false
		name := fmt.Sprintf("p%d", i)
		if i < len(names) {
			name = names[i]
		}
		fmt.Fprintf(&b, "%s=%s", name, t.vals[i].Label())
	}
	b.WriteByte('>')
	return b.String()
}

// SortKeys sorts instance keys deterministically (mask, then IDs); used to
// make verdict reports and tests stable.
func SortKeys(keys []Key) {
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Mask != keys[b].Mask {
			return keys[a].Mask < keys[b].Mask
		}
		for i := 0; i < MaxParams; i++ {
			if keys[a].IDs[i] != keys[b].IDs[i] {
				return keys[a].IDs[i] < keys[b].IDs[i]
			}
		}
		return false
	})
}
