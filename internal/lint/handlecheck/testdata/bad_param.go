// Inside package param the instance type is the bare identifier: the
// θ-table's own package is held to the rule too (the table stores its
// instances by value in slab slots).
package param

type Instance struct{ mask uint16 }

type table struct {
	canon map[uint64]*Instance
	slots []Instance // legal: by value
}
