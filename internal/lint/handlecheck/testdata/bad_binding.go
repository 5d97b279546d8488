// Planted binding-pointer escapes: a *param.Binding points into a θ-table
// slot (or at a copy of one), and a slot recycles to another θ within its
// slab with nothing to tell the holder. Every store form must be caught.
package bad

import "rvgo/internal/param"

// Struct field retaining a slot's binding.
type pending struct {
	theta *param.Binding
	sym   int
}

// Pointer identity as a map key, and a map value.
type seen struct {
	byPtr map[*param.Binding]uint64
	bySym map[int]*param.Binding
}

// Package-level var retaining bindings through a slice.
var stash []*param.Binding

// Named container type over bindings.
type frontier map[uint64]*param.Binding

// Channel element retention inside a struct.
type relay struct {
	out chan *param.Binding
}

// Local struct types are stores too.
func keep(b *param.Binding) {
	type holder struct {
		kept *param.Binding
	}
	_ = holder{kept: b}
}

// Nested anonymous structs are their own stores.
type outer struct {
	inner struct {
		b *param.Binding
	}
}
