// Inside package param the instance and binding types are bare
// identifiers: the θ-table's own package is held to the rule too (the
// table stores its bindings by value in slab slots).
package param

type Instance struct{ mask uint16 }

type table struct {
	canon map[uint64]*Instance
	slots []Instance // legal: by value
}

type Binding struct{ mask uint16 }

type slots struct {
	last *Binding
	keys map[Binding]uint32 // legal: by value
}
