package tracematches_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
	"rvgo/internal/tracematches"
)

func newTM(t testing.TB, prop string) (*tracematches.Engine, *monitor.Spec, *int) {
	t.Helper()
	s, err := props.Build(prop)
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	tm, err := tracematches.New(s, tracematches.Options{
		OnMatch: func(param.Instance) { matches++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	return tm, s, &matches
}

func TestUnsafeIterViolation(t *testing.T) {
	tm, _, matches := newTM(t, "UnsafeIter")
	h := heap.New()
	c, i := h.Alloc("c"), h.Alloc("i")
	must(t, monitor.EmitNamed(tm, "create", c, i))
	must(t, monitor.EmitNamed(tm, "next", i))
	must(t, monitor.EmitNamed(tm, "update", c))
	must(t, monitor.EmitNamed(tm, "next", i))
	if *matches != 1 {
		t.Fatalf("matches = %d", *matches)
	}
}

func TestNoCrossBindingMatch(t *testing.T) {
	tm, _, matches := newTM(t, "UnsafeIter")
	h := heap.New()
	c1, c2, i1 := h.Alloc("c1"), h.Alloc("c2"), h.Alloc("i1")
	must(t, monitor.EmitNamed(tm, "create", c1, i1))
	must(t, monitor.EmitNamed(tm, "update", c2)) // different collection
	must(t, monitor.EmitNamed(tm, "next", i1))
	if *matches != 0 {
		t.Fatalf("matches = %d", *matches)
	}
}

// TestAgreesWithRVEngine: on random fresh traces the tracematch engine
// must report exactly the goal verdicts the RV engine reports.
func TestAgreesWithRVEngine(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, err := props.Build("UnsafeIter")
		if err != nil {
			t.Fatal(err)
		}
		var tmGot, rvGot []string
		tm, err := tracematches.New(s, tracematches.Options{
			OnMatch: func(inst param.Instance) { tmGot = append(tmGot, inst.String()) },
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := monitor.New(s, monitor.Options{
			GC: monitor.GCNone, Creation: monitor.CreateEnable,
			OnVerdict: func(v monitor.Verdict) { rvGot = append(rvGot, v.Inst.String()) },
		})
		if err != nil {
			t.Fatal(err)
		}

		h := heap.New()
		cols := []*heap.Object{h.Alloc("c1"), h.Alloc("c2")}
		type iter struct{ obj *heap.Object }
		var iters []iter
		for n := 0; n < 80; n++ {
			switch rng.Intn(3) {
			case 0:
				c := cols[rng.Intn(2)]
				it := h.Alloc(fmt.Sprintf("i%d", len(iters)))
				iters = append(iters, iter{it})
				must(t, monitor.EmitNamed(tm, "create", c, it))
				must(t, monitor.EmitNamed(eng, "create", c, it))
			case 1:
				c := cols[rng.Intn(2)]
				must(t, monitor.EmitNamed(tm, "update", c))
				must(t, monitor.EmitNamed(eng, "update", c))
			case 2:
				if len(iters) == 0 {
					continue
				}
				it := iters[rng.Intn(len(iters))].obj
				must(t, monitor.EmitNamed(tm, "next", it))
				must(t, monitor.EmitNamed(eng, "next", it))
			}
		}
		if fmt.Sprint(tmGot) != fmt.Sprint(rvGot) {
			t.Fatalf("seed %d: tracematches %v vs RV %v", seed, tmGot, rvGot)
		}
	}
}

// TestStateBasedGC: bindings whose needed parameters died are dropped by
// the eager sweep.
func TestStateBasedGC(t *testing.T) {
	tm, _, _ := newTM(t, "UnsafeIter")
	h := heap.New()
	c := h.Alloc("c")
	for k := 0; k < 100; k++ {
		it := h.Alloc(fmt.Sprintf("i%d", k))
		must(t, monitor.EmitNamed(tm, "create", c, it))
		must(t, monitor.EmitNamed(tm, "next", it))
		h.Free(it)
	}
	tm.Sweep()
	st := tm.Stats()
	if st.Collected == 0 {
		t.Fatalf("state-based GC collected nothing: %+v", st)
	}
	// Only the ⟨c⟩-ish disjuncts may survive; all ⟨c,i⟩ bindings with dead
	// iterators must be gone.
	if st.Live > 5 {
		t.Fatalf("live bindings = %d, want nearly none", st.Live)
	}
}

func TestRejectsCFGProperties(t *testing.T) {
	s, err := props.Build("SafeLock")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tracematches.New(s, tracematches.Options{}); err == nil {
		t.Fatal("tracematches must reject context-free properties (the paper's point)")
	}
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
