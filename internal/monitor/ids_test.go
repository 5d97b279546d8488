package monitor_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rvgo/internal/heap"
	"rvgo/internal/logic"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
	"rvgo/internal/slicing"
)

// hasNextTrace is a random HasNext stream: iterators come and go, each
// probed and advanced in any order, and about half die right after their
// last event.
func hasNextTrace(rng *rand.Rand, h *heap.Heap, n int) []thetaStep {
	var its []*heap.Object
	var tr []slicing.Event
	for len(tr) < n {
		if len(its) == 0 || rng.Intn(6) == 0 {
			its = append(its, h.Alloc(fmt.Sprintf("i%d", len(tr))))
		}
		it := its[rng.Intn(len(its))]
		tr = append(tr, slicing.Event{Sym: rng.Intn(3), Inst: param.Empty().Bind(0, it)})
		if len(its) > 4 {
			its = its[1:]
		}
	}
	return withDeaths(rng, tr)
}

// idVerdict is a verdict as a server session forwards it: the event, the
// category and the bound IDs.
type idVerdict struct {
	sym int
	cat logic.Category
	key param.Key
}

// TestDispatchIDsMatchesRefs: the ID entry is the Ref entry after the
// object-table lookup. Random HasNext, UnsafeIter and UnsafeMapIter streams
// with deaths run through two engines — one fed heap refs by Dispatch, each
// killed right after Free, and one fed the refs' IDs by DispatchIDs, each
// death a FreeIDs — under every GC policy × creation strategy
// Options.Check accepts. The verdict sequences (IDs included) and the
// Stats, PeakLive among them, must be identical, and the ID engine keeps
// CheckTheta's invariants every 64 events and after Flush. Its records are
// dropped and their handles reissued like ref records (under race builds
// through the same pooledObject poison check).
func TestDispatchIDsMatchesRefs(t *testing.T) {
	mapIter, err := props.Build("UnsafeMapIter")
	if err != nil {
		t.Fatal(err)
	}
	streams := []struct {
		name string
		spec *monitor.Spec
		gen  func(*rand.Rand, *heap.Heap) []thetaStep
	}{
		{"hasnext", hasNextSpec(t), func(rng *rand.Rand, h *heap.Heap) []thetaStep {
			return hasNextTrace(rng, h, 500)
		}},
		{"unsafeiter", unsafeIterSpec(t), func(rng *rand.Rand, h *heap.Heap) []thetaStep {
			return iterChurnTrace(rng, h, 600)
		}},
		{"mapiter", mapIter, func(rng *rand.Rand, h *heap.Heap) []thetaStep {
			return withDeaths(rng, mapIterTrace(rng, h, 400))
		}},
	}
	for _, st := range streams {
		for _, gc := range []monitor.GCPolicy{monitor.GCNone, monitor.GCAllDead, monitor.GCCoenable} {
			for _, cr := range []monitor.CreationStrategy{monitor.CreateEnable, monitor.CreateFull} {
				opts := monitor.Options{GC: gc, Creation: cr, SweepInterval: 37}
				if opts.Check(st.spec, 1) != nil {
					continue
				}
				t.Run(fmt.Sprintf("%s/%v/%v", st.name, gc, cr), func(t *testing.T) {
					for seed := int64(0); seed < 6; seed++ {
						h := heap.New()
						steps := st.gen(rand.New(rand.NewSource(seed)), h)
						refs, refStats := runRefs(t, st.spec, opts, h, steps)
						ids, idStats, eng := runIDs(t, st.spec, opts, steps)
						if len(ids) != len(refs) {
							t.Fatalf("seed %d: %d verdicts by ID, %d by ref", seed, len(ids), len(refs))
						}
						for i := range refs {
							if ids[i] != refs[i] {
								t.Fatalf("seed %d: verdict %d by ID %+v, by ref %+v", seed, i, ids[i], refs[i])
							}
						}
						if idStats != refStats {
							t.Fatalf("seed %d: Stats by ID %+v, by ref %+v", seed, idStats, refStats)
						}
						if gc == monitor.GCCoenable && monitor.ObjectSlots(eng) >= objectsIn(steps) {
							t.Fatalf("seed %d: %d object slots for %d objects: no ID-named record was dropped and reissued", seed, monitor.ObjectSlots(eng), objectsIn(steps))
						}
					}
				})
			}
		}
	}
}

// runRefs drives steps through Dispatch, killing each dying object right
// after Free.
func runRefs(t *testing.T, spec *monitor.Spec, opts monitor.Options, h *heap.Heap, steps []thetaStep) ([]idVerdict, monitor.Stats) {
	t.Helper()
	var got []idVerdict
	opts.OnVerdict = func(v monitor.Verdict) { got = append(got, idVerdict{v.Sym, v.Cat, v.Inst.Key()}) }
	eng, err := monitor.New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		if s.kill != nil {
			eng.Free(s.kill)
			h.Free(s.kill)
			continue
		}
		eng.Dispatch(s.ev.Sym, s.ev.Inst)
	}
	eng.Flush()
	return got, eng.Stats()
}

// runIDs drives the same steps through DispatchIDs and FreeIDs, holding the
// engine to CheckTheta as it goes.
func runIDs(t *testing.T, spec *monitor.Spec, opts monitor.Options, steps []thetaStep) ([]idVerdict, monitor.Stats, *monitor.Engine) {
	t.Helper()
	var got []idVerdict
	opts.OnVerdict = func(v monitor.Verdict) { got = append(got, idVerdict{v.Sym, v.Cat, v.Inst.Key()}) }
	eng, err := monitor.New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for _, s := range steps {
		if s.kill != nil {
			eng.FreeIDs([]uint64{s.kill.ID()})
			continue
		}
		ids = ids[:0]
		for m := s.ev.Inst.Mask(); m != 0; m = m.Rest() {
			ids = append(ids, s.ev.Inst.Value(m.First()).ID())
		}
		eng.DispatchIDs(s.ev.Sym, ids)
		if n := eng.Stats().Events; n%64 == 0 {
			if err := monitor.CheckTheta(eng, false); err != nil {
				t.Fatalf("event %d: %v", n, err)
			}
		}
	}
	eng.Flush()
	if err := monitor.CheckTheta(eng, true); err != nil {
		t.Fatalf("after Flush: %v", err)
	}
	return got, eng.Stats(), eng
}

// objectsIn counts the distinct objects a stream's events name.
func objectsIn(steps []thetaStep) int {
	seen := map[uint64]bool{}
	for _, s := range steps {
		for m := s.ev.Inst.Mask(); m != 0; m = m.Rest() {
			seen[s.ev.Inst.Value(m.First()).ID()] = true
		}
	}
	return len(seen)
}
