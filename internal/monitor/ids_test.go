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

// TestDispatchIDsMatchesRefs: the ID and held entries are the Ref entry
// after the object-table lookup. Random HasNext, UnsafeIter and
// UnsafeMapIter streams with deaths run through three engines — one fed
// heap refs by Dispatch, each killed right after Free; one fed the refs'
// IDs by DispatchIDs; and one fed refs that report themselves dead from the
// start by DispatchHeld — the last two with each death a FreeIDs at its
// position — under every GC policy × creation strategy Options.Check
// accepts. The verdict sequences (IDs included) and the Stats, PeakLive
// among them, must be identical, the held engine must never ask a ref
// whether it is alive, and both keep CheckTheta's invariants every 64
// events and after Flush. Their records are dropped and their handles
// reissued like ref records (under race builds through the same
// pooledObject poison check).
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
						held, heldStats, heldEng := runHeld(t, st.spec, opts, steps)
						for _, col := range []struct {
							name  string
							got   []idVerdict
							stats monitor.Stats
							eng   *monitor.Engine
						}{{"by ID", ids, idStats, eng}, {"held", held, heldStats, heldEng}} {
							if len(col.got) != len(refs) {
								t.Fatalf("seed %d: %d verdicts %s, %d by ref", seed, len(col.got), col.name, len(refs))
							}
							for i := range refs {
								if col.got[i] != refs[i] {
									t.Fatalf("seed %d: verdict %d %s %+v, by ref %+v", seed, i, col.name, col.got[i], refs[i])
								}
							}
							if col.stats != refStats {
								t.Fatalf("seed %d: Stats %s %+v, by ref %+v", seed, col.name, col.stats, refStats)
							}
							if gc == monitor.GCCoenable && monitor.ObjectSlots(col.eng) >= objectsIn(steps) {
								t.Fatalf("seed %d: %d object slots for %d objects: no %s record was dropped and reissued", seed, monitor.ObjectSlots(col.eng), objectsIn(steps), col.name)
							}
						}
						idRecs, idDead := eng.ObjectRecords()
						if n, d := heldEng.ObjectRecords(); n != idRecs || d != idDead {
							t.Fatalf("seed %d: held engine keeps %d object records (%d dead), the ID engine %d (%d)", seed, n, d, idRecs, idDead)
						}
					}
				})
			}
		}
	}
}

// runRefs drives steps through Dispatch, killing each dying object right
// after Free, and sweeps the lazy engine after every death and every event
// (monitor.SweepNow): the positioned engines collect there.
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
		} else {
			eng.Dispatch(s.ev.Sym, s.ev.Inst)
		}
		monitor.SweepNow(eng)
	}
	eng.Flush()
	return got, eng.Stats()
}

// runIDs drives the same steps through DispatchIDs and FreeIDs, holding the
// engine to CheckTheta as it goes.
func runIDs(t *testing.T, spec *monitor.Spec, opts monitor.Options, steps []thetaStep) ([]idVerdict, monitor.Stats, *monitor.Engine) {
	t.Helper()
	var got []idVerdict
	opts.OnVerdict = func(v monitor.Verdict) { got = append(got, idVerdict{v.Sym, v.Cat, v.Key}) }
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

// deadRef is a caller's ref that reports itself dead from the start and
// counts every time it is asked: a held record must read its liveness from
// the record alone.
type deadRef struct {
	id    uint64
	asked *int
}

func (r *deadRef) ID() uint64    { return r.id }
func (r *deadRef) Label() string { return fmt.Sprintf("d%d", r.id) }
func (r *deadRef) Alive() bool {
	*r.asked++
	return false
}

// runHeld drives the same steps through DispatchHeld, over deadRefs in
// place of the heap objects, and FreeIDs at the recorded death positions,
// holding the engine to CheckTheta as it goes. Verdicts must carry the
// refs the engine was handed, and no ref may ever be asked.
func runHeld(t *testing.T, spec *monitor.Spec, opts monitor.Options, steps []thetaStep) ([]idVerdict, monitor.Stats, *monitor.Engine) {
	t.Helper()
	var got []idVerdict
	asked := 0
	opts.OnVerdict = func(v monitor.Verdict) {
		for m := v.Inst.Mask(); m != 0; m = m.Rest() {
			if _, ok := v.Inst.Value(m.First()).(*deadRef); !ok {
				t.Fatalf("verdict %v carries %T, not the held ref", v.Inst, v.Inst.Value(m.First()))
			}
		}
		got = append(got, idVerdict{v.Sym, v.Cat, v.Inst.Key()})
	}
	eng, err := monitor.New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	refs := map[uint64]*deadRef{}
	for _, s := range steps {
		if s.kill != nil {
			eng.FreeIDs([]uint64{s.kill.ID()})
			continue
		}
		theta := s.ev.Inst.Map(func(_ int, v heap.Ref) heap.Ref {
			r, ok := refs[v.ID()]
			if !ok {
				r = &deadRef{id: v.ID(), asked: &asked}
				refs[v.ID()] = r
			}
			return r
		})
		eng.DispatchHeld(s.ev.Sym, theta)
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
	eng.ObjectRecords() // a diagnostic must not ask either
	if asked != 0 {
		t.Fatalf("the engine asked held refs %d times whether they are alive", asked)
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
