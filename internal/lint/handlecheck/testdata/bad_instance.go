// Planted instance-pointer escapes: a pointer to a param.Instance is a view
// into a θ-table slot (or a second identity for θ next to the slot's
// handle) and may not be stored, in any package. The import is aliased: the
// linter must resolve the file's own name for the param package.
package bad

import inst "rvgo/internal/param"

// Struct field retaining a slot view.
type monitorRec struct {
	theta *inst.Instance
	sym   int
}

// The parent engine's Δ: pointer identity as a map key.
type engine struct {
	exact     map[*inst.Instance]uint64
	processed map[*inst.Instance]bool
	byValue   map[inst.Key]inst.Instance // legal: keys and instances by value
}

// Package-level var retaining views through a slice.
var ghosts []*inst.Instance

// Named container type over views.
type avoided map[*inst.Instance]struct{}
