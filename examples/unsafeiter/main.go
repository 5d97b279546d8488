// Unsafeiter reproduces the paper's motivating scenario (§1, §3): under
// UNSAFEITER, a long-lived Collection keeps spawning short-lived Iterators.
// JavaMOP can only collect a ⟨c, i⟩ monitor when *both* objects die, so
// monitors for dead iterators pile up for the collection's whole lifetime;
// RV's coenable sets prove them unnecessary the moment the iterator dies.
//
// The example runs the same workload under the three GC policies and
// prints the Figure-10-style counters side by side, plus the ALIVENESS
// formulas that make the difference.
package main

import (
	"fmt"
	"log"

	"rvgo"
	"rvgo/spec"
)

const iterators = 10000

func run(gc rvgo.GCPolicy) rvgo.Stats {
	property, err := spec.Builtin("UnsafeIter")
	if err != nil {
		log.Fatal(err)
	}
	m, err := rvgo.New(property, rvgo.WithGC(gc))
	if err != nil {
		log.Fatal(err)
	}
	create := m.MustEvent("create")
	update := m.MustEvent("update")
	next := m.MustEvent("next")

	h := rvgo.NewHeap()
	coll := h.Alloc("collection") // lives for the whole program
	for k := 0; k < iterators; k++ {
		it := h.Alloc(fmt.Sprintf("iter%d", k))
		create.Emit(coll, it)
		next.Emit(it)
		next.Emit(it)
		m.Free(it) // the iterator goes out of scope immediately...
		h.Free(it)
		update.Emit(coll) // ...and the collection keeps being updated
	}
	m.Flush()
	st := m.Stats()
	m.Close()
	return st
}

func main() {
	property, err := spec.Builtin("UnsafeIter")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("UNSAFEITER: one immortal Collection,", iterators, "short-lived Iterators")
	fmt.Println("ALIVENESS formulas driving RV's collection decisions:")
	for _, ev := range property.Events() {
		formula, err := property.AlivenessFormula(ev)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  after %-6s → keep iff %s\n", ev, formula)
	}
	fmt.Println()
	fmt.Printf("%-22s %10s %10s %10s %10s %10s\n", "GC policy", "events", "created", "flagged", "collected", "retained")
	for _, p := range []rvgo.GCPolicy{rvgo.GCNone, rvgo.GCAllDead, rvgo.GCCoenable} {
		st := run(p)
		fmt.Printf("%-22s %10d %10d %10d %10d %10d\n",
			label(p), st.Events, st.Created, st.Flagged, st.Collected, st.Live)
	}
	fmt.Println("\nretained = monitors still held by the index at the end:")
	fmt.Println("JavaMOP-style GC keeps one dead-iterator monitor per iteration alive")
	fmt.Println("as long as the collection lives; RV flags and collects them lazily.")
}

func label(p rvgo.GCPolicy) string {
	switch p {
	case rvgo.GCNone:
		return "none (leak)"
	case rvgo.GCAllDead:
		return "all-dead (JavaMOP)"
	case rvgo.GCCoenable:
		return "coenable (RV)"
	}
	return "?"
}
