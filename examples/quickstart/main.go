// Quickstart: monitor the HASNEXT typestate (Figures 1–2) over a toy
// program through the rvgo façade. Demonstrates the whole public API in
// one sitting: build a property (rvgo/spec), create a monitor with a
// verdict handler (rvgo.New), resolve typed emitters, emit parametric
// events, read the statistics.
package main

import (
	"fmt"
	"log"

	"rvgo"
	"rvgo/spec"
)

func main() {
	// 1. Build the property: an FSM over events hasnexttrue, hasnextfalse
	//    and next, parametric in the iterator i. spec.Builtin("HasNext")
	//    returns the same property from the built-in library; it is
	//    spelled out here to show the fluent builder. Validation and the
	//    paper's static analyses run now — errors surface at build time,
	//    not at first event.
	property, err := spec.New("HasNext").
		Params("i").
		Event("hasnexttrue", "i").
		Event("hasnextfalse", "i").
		Event("next", "i").
		FSM(
			spec.State("unknown", "hasnexttrue", "more", "hasnextfalse", "none", "next", "error"),
			spec.State("more", "hasnexttrue", "more", "hasnextfalse", "none", "next", "unknown"),
			spec.State("none", "hasnexttrue", "more", "hasnextfalse", "none", "next", "error"),
			spec.State("error"),
		).
		Goal("error").
		Build()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Create the monitor: coenable-set garbage collection and
	//    enable-set creation avoidance are the defaults, so only the
	//    verdict handler needs saying. rvgo.WithShards(4) here would run
	//    the same property on the sharded concurrent runtime, and
	//    rvgo.WithRemote("host:7472") on a monitoring server; both learn
	//    of a death only through m.Free, which step 4 calls.
	m, err := rvgo.New(property, rvgo.WithVerdictHandler(func(v rvgo.Verdict) {
		fmt.Printf("improper Iterator use found! (%s)\n", v.Inst.Format(property.Params()))
	}))
	if err != nil {
		log.Fatal(err)
	}

	// 3. Resolve the events once; each Emitter's Emit is then the
	//    allocation-free hot path — no name lookups while the program
	//    runs.
	hasNextTrue := m.MustEvent("hasnexttrue")
	hasNextFalse := m.MustEvent("hasnextfalse")
	next := m.MustEvent("next")

	// 4. Run a little "program". Objects live on a simulated heap so the
	//    monitor can observe their deaths deterministically; package rv
	//    monitors real Go objects instead.
	h := rvgo.NewHeap()

	// A disciplined iterator: hasNext before every next.
	good := h.Alloc("good-iter")
	for k := 0; k < 3; k++ {
		hasNextTrue.Emit(good)
		next.Emit(good)
	}
	hasNextFalse.Emit(good)
	m.Free(good) // position the death in the event stream...
	h.Free(good) // ...then let the object die

	// A sloppy iterator: next() after hasNext() returned false.
	bad := h.Alloc("bad-iter")
	hasNextTrue.Emit(bad)
	next.Emit(bad)
	hasNextFalse.Emit(bad)
	next.Emit(bad) // violation: the handler fires here
	m.Free(bad)
	h.Free(bad)

	// 5. Statistics (the counters of the paper's Figure 10).
	m.Flush()
	st := m.Stats()
	fmt.Printf("events=%d monitors created=%d flagged=%d collected=%d verdicts=%d\n",
		st.Events, st.Created, st.Flagged, st.Collected, st.GoalVerdicts)
	m.Close()
}
