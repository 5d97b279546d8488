// Transient uses the discipline permits: parameters, results, locals and
// function-typed fields. The linter must report nothing here.
package good

import (
	"example.com/subpkg"

	"rvgo/internal/monitor"
	"rvgo/internal/param"
)

// Passing a view down a call stack within one engine operation is the
// contract working as intended.
func step(m *monitor.Mon) *monitor.Mon {
	local := m
	return local
}

// A function-typed field mentions Mon without storing one.
type hooks struct {
	onStep func(*monitor.Mon)
}

// Handles, not views, are what stores keep.
type index struct {
	slots map[uint64]uint32
}

// Unrelated selectors named Mon from other packages are not the monitor
// package's records.
type other struct {
	m subpkg.Mon
}

// Instances travel by value: a by-value field (or container element) is a
// copy, not a view into a θ-table slot.
type verdict struct {
	inst  param.Instance
	trail []param.Instance
	byKey map[param.Key]param.Instance
}

// A tree walk takes a transient pointer and retains nothing.
func lookup(inst *param.Instance) *param.Instance { return inst }

// A function-typed field mentions the pointer without storing one.
type walker struct {
	visit func(*param.Instance) bool
}
