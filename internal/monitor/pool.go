package monitor

import (
	"rvgo/internal/arena"
	"rvgo/internal/index"
	"rvgo/internal/param"
)

// Arena poisoning: under race builds (the -race test suite) a monitor
// record, θ-record or leaf record entering its arena's free list is
// poisoned and one leaving it is verified (and so is a block of the block
// heap, armed with the leaf pool's pair), so a straggling dangling pointer
// that mutated a freed record fails loudly at the recycle point even if it
// dodged the handle generation check. poolCheck is a build-tag constant (see
// pool_race.go / pool_norace.go); in normal builds the checks are never
// installed and the arenas' poison/verify hooks stay nil.

// poisonState is an out-of-range logic state word: any graph step through
// it indexes far outside Next and panics attributably.
const poisonState uint32 = 0xDEAD7001

// poisonMon scrambles a freed monitor record so any mutation before reuse
// is detectable, and any use crashes: the state word is out of range for
// every state graph, and the sentinel symbol makes the wreckage
// attributable in the panic.
func poisonMon(m *Mon) {
	m.state = poisonState
	m.lastSym = -0x7001 // "pooled" sentinel
	m.instH = arena.Nil
	m.refs = -1
}

// verifyMon asserts the poison is intact on a record leaving the free
// list.
func verifyMon(m *Mon) {
	if m.state != poisonState || m.lastSym != -0x7001 || !m.instH.IsNil() || m.refs != -1 {
		panic("monitor: free-list monitor was mutated while pooled")
	}
}

// pooledTheta is the poison for the payload of a freed θ-record: a Δ entry
// and a leaf chain naming sentinel handles, a stamp no event number reaches,
// every flag set. param.Interner.SetChecks zeroes the bindings and sets the
// pin count negative around it, and verifies all of it when the slot leaves
// the free list — so a stale *Instance or *Slot written through after its
// slot recycled fails at the reuse point.
var pooledTheta = theta{mon: ^arena.Handle(0), stamp: ^uint64(0), leaf: ^arena.Handle(0), flags: 0xFF}

func poisonTheta(t *theta) { *t = pooledTheta }

func verifyTheta(t *theta) {
	if *t != pooledTheta {
		panic("monitor: free-list θ-record was mutated while pooled")
	}
}

// pooledLeaf is the poison of a freed leaf record: a domain no spec has
// and a chain link no pool issues, so a walk that reached it would fail on
// the link. The record released its block before it was freed, so a
// member found on reuse was put there through a stale *Set.
var pooledLeaf = index.Leaf{R: ^param.Set(0), Next: ^arena.Handle(0)}

func poisonLeaf(l *index.Leaf) { *l = pooledLeaf }

func verifyLeaf(l *index.Leaf) {
	if *l != pooledLeaf {
		panic("monitor: free-list leaf record was mutated while pooled")
	}
}
