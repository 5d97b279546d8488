package monitor_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
	"rvgo/internal/slicing"
)

// mapIterTrace generates a well-formed UNSAFEMAPITER trace: views belong
// to one map, iterators to one view, objects' first events are their
// creating events.
func mapIterTrace(rng *rand.Rand, h *heap.Heap, n int) []slicing.Event {
	const (
		pM = 0
		pC = 1
		pI = 2
	)
	const (
		symCreateColl = 0
		symCreateIter = 1
		symUseIter    = 2
		symUpdateMap  = 3
	)
	maps := []*heap.Object{h.Alloc("m1"), h.Alloc("m2")}
	type view struct{ m, c *heap.Object }
	type iter struct {
		v  view
		it *heap.Object
	}
	var views []view
	var iters []iter
	var tr []slicing.Event
	for len(tr) < n {
		switch rng.Intn(4) {
		case 0:
			m := maps[rng.Intn(len(maps))]
			v := view{m: m, c: h.Alloc(fmt.Sprintf("c%d", len(views)))}
			views = append(views, v)
			tr = append(tr, slicing.Event{Sym: symCreateColl,
				Inst: param.Empty().Bind(pM, v.m).Bind(pC, v.c)})
		case 1:
			if len(views) == 0 {
				continue
			}
			v := views[rng.Intn(len(views))]
			it := iter{v: v, it: h.Alloc(fmt.Sprintf("i%d", len(iters)))}
			iters = append(iters, it)
			tr = append(tr, slicing.Event{Sym: symCreateIter,
				Inst: param.Empty().Bind(pC, v.c).Bind(pI, it.it)})
		case 2:
			if len(iters) == 0 {
				continue
			}
			it := iters[rng.Intn(len(iters))]
			tr = append(tr, slicing.Event{Sym: symUseIter,
				Inst: param.Empty().Bind(pI, it.it)})
		case 3:
			m := maps[rng.Intn(len(maps))]
			tr = append(tr, slicing.Event{Sym: symUpdateMap,
				Inst: param.Empty().Bind(pM, m)})
		}
	}
	return tr
}

// TestUnsafeMapIterEngineMatchesReference: the three-parameter property —
// where instances are built through chained joins ⟨m,c⟩ ⊔ ⟨c,i⟩ — agrees
// with the Figure 5 oracle under both creation strategies on well-formed
// traces.
func TestUnsafeMapIterEngineMatchesReference(t *testing.T) {
	spec, err := props.Build("UnsafeMapIter")
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []monitor.CreationStrategy{monitor.CreateFull, monitor.CreateEnable} {
		for seed := int64(0); seed < 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			h := heap.New()
			tr := mapIterTrace(rng, h, 70)

			var engGot []verdictRec
			eng, err := monitor.New(spec, monitor.Options{
				GC: monitor.GCNone, Creation: strat,
				OnVerdict: func(v monitor.Verdict) {
					engGot = append(engGot, verdictRec{key: v.Inst.Key(), cat: v.Cat})
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			ref := slicing.New(spec.RuntimeBlueprint())
			var refGot []verdictRec
			for _, e := range tr {
				eng.Dispatch(e.Sym, e.Inst)
				for _, up := range ref.Process(e) {
					if spec.IsGoal(up.Cat) {
						refGot = append(refGot, verdictRec{key: up.Inst.Key(), cat: up.Cat})
					}
				}
			}
			if d := diffVerdicts(engGot, refGot); d != "" {
				t.Fatalf("strategy %v seed %d: %s", strat, seed, d)
			}
		}
	}
}

// TestUnsafeMapIterGC: killing an iterator flags its ⟨m,c,i⟩ monitors even
// while map and view live on; killing the map flags monitors whose future
// needs it.
func TestUnsafeMapIterGC(t *testing.T) {
	spec, err := props.Build("UnsafeMapIter")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := monitor.New(spec, monitor.Options{
		GC: monitor.GCCoenable, Creation: monitor.CreateEnable, SweepInterval: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	m := h.Alloc("m")
	c := h.Alloc("c")
	createColl, _ := spec.Symbol("createColl")
	createIter, _ := spec.Symbol("createIter")
	useIter, _ := spec.Symbol("useIter")
	updateMap, _ := spec.Symbol("updateMap")

	monitor.Emit(eng, createColl, m, c)
	for k := 0; k < 20; k++ {
		it := h.Alloc(fmt.Sprintf("i%d", k))
		monitor.Emit(eng, createIter, c, it)
		monitor.Emit(eng, useIter, it)
		h.Free(it)
		monitor.Emit(eng, updateMap, m) // reaches the monitors under ⟨m⟩: they observe the death
	}
	eng.Flush()
	st := eng.Stats()
	if st.Flagged == 0 || st.Collected == 0 {
		t.Fatalf("dead iterators must flag ⟨m,c,i⟩ monitors: %+v", st)
	}
}

// TestEngineStatsConsistency: counters hold basic invariants on a random
// workload.
func TestEngineStatsConsistency(t *testing.T) {
	spec := unsafeIterSpec(t)
	eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable, SweepInterval: 8})
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	rng := rand.New(rand.NewSource(9))
	c := h.Alloc("c")
	var live []*heap.Object
	for n := 0; n < 300; n++ {
		switch rng.Intn(4) {
		case 0:
			it := h.Alloc("")
			live = append(live, it)
			monitor.Emit(eng, symCreate, c, it)
		case 1:
			monitor.Emit(eng, symUpdate, c)
		case 2:
			if len(live) > 0 {
				monitor.Emit(eng, symNext, live[rng.Intn(len(live))])
			}
		case 3:
			if len(live) > 0 {
				k := rng.Intn(len(live))
				h.Free(live[k])
				live = append(live[:k], live[k+1:]...)
			}
		}
	}
	eng.Flush()
	st := eng.Stats()
	if st.Collected > st.Created {
		t.Fatalf("collected %d > created %d", st.Collected, st.Created)
	}
	if st.Live != int64(st.Created)-int64(st.Collected) {
		t.Fatalf("live %d != created %d - collected %d", st.Live, st.Created, st.Collected)
	}
	if st.PeakLive < st.Live {
		t.Fatalf("peak %d < live %d", st.PeakLive, st.Live)
	}
	if st.Events != 0 && st.Steps == 0 {
		t.Fatal("events dispatched but no steps taken")
	}
}
