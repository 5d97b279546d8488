package monitor_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rvgo/internal/ere"
	"rvgo/internal/heap"
	"rvgo/internal/logic"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/slicing"
)

const (
	pC = 0
	pI = 1
)

const (
	symCreate = 0
	symUpdate = 1
	symNext   = 2
)

// unsafeIterSpec builds the UNSAFEITER spec of Figure 3.
func unsafeIterSpec(t testing.TB) *monitor.Spec {
	t.Helper()
	alphabet := []string{"create", "update", "next"}
	bp, err := ere.Compile("update* create next* update+ next", alphabet)
	if err != nil {
		t.Fatal(err)
	}
	s := &monitor.Spec{
		Name:   "UnsafeIter",
		Params: []string{"c", "i"},
		Events: []monitor.EventDef{
			{Name: "create", Params: param.SetOf(pC, pI)},
			{Name: "update", Params: param.SetOf(pC)},
			{Name: "next", Params: param.SetOf(pI)},
		},
		BP:   bp,
		Goal: []logic.Category{logic.Match},
	}
	if err := s.Analyze(); err != nil {
		t.Fatal(err)
	}
	return s
}

// hasNextSpec builds the HASNEXT FSM property of Figure 2 as an ERE
// equivalent for single-parameter testing.
func hasNextSpec(t testing.TB) *monitor.Spec {
	t.Helper()
	alphabet := []string{"hasnexttrue", "hasnextfalse", "next"}
	// Violation pattern: a next not immediately preceded by hasnexttrue.
	bp, err := ere.Compile(
		"(hasnexttrue | hasnextfalse | next)* (hasnextfalse | next) next", alphabet)
	if err != nil {
		t.Fatal(err)
	}
	s := &monitor.Spec{
		Name:   "HasNext",
		Params: []string{"i"},
		Events: []monitor.EventDef{
			{Name: "hasnexttrue", Params: param.SetOf(0)},
			{Name: "hasnextfalse", Params: param.SetOf(0)},
			{Name: "next", Params: param.SetOf(0)},
		},
		BP:   bp,
		Goal: []logic.Category{logic.Match},
	}
	if err := s.Analyze(); err != nil {
		t.Fatal(err)
	}
	return s
}

// randomTrace generates a random UNSAFEITER trace over nc collections and
// ni iterators. If fresh is true, iterators first appear at their create
// event (the well-formed shape real programs produce).
func randomTrace(rng *rand.Rand, h *heap.Heap, n, nc, ni int, fresh bool) []slicing.Event {
	cols := make([]*heap.Object, nc)
	for i := range cols {
		cols[i] = h.Alloc(fmt.Sprintf("c%d", i+1))
	}
	iters := make([]*heap.Object, ni)
	created := make([]bool, ni)
	for i := range iters {
		iters[i] = h.Alloc(fmt.Sprintf("i%d", i+1))
	}
	var tr []slicing.Event
	for len(tr) < n {
		c := cols[rng.Intn(nc)]
		it := rng.Intn(ni)
		switch rng.Intn(3) {
		case 0:
			tr = append(tr, slicing.Event{Sym: symUpdate, Inst: param.Empty().Bind(pC, c)})
		case 1:
			if fresh && created[it] {
				// Real programs create an iterator exactly once.
				continue
			}
			tr = append(tr, slicing.Event{
				Sym:  symCreate,
				Inst: param.Empty().Bind(pC, c).Bind(pI, iters[it]),
			})
			created[it] = true
		case 2:
			if fresh && !created[it] {
				continue
			}
			tr = append(tr, slicing.Event{Sym: symNext, Inst: param.Empty().Bind(pI, iters[it])})
		}
	}
	return tr
}

type verdictRec struct {
	key param.Key
	cat logic.Category
}

func runEngine(t testing.TB, spec *monitor.Spec, opts monitor.Options, tr []slicing.Event) ([]verdictRec, monitor.Stats) {
	t.Helper()
	var got []verdictRec
	opts.OnVerdict = func(v monitor.Verdict) {
		got = append(got, verdictRec{key: v.Inst.Key(), cat: v.Cat})
	}
	eng, err := monitor.New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr {
		eng.Dispatch(e.Sym, e.Inst)
	}
	eng.Flush()
	return got, eng.Stats()
}

func runReference(spec *monitor.Spec, tr []slicing.Event) []verdictRec {
	ref := slicing.New(spec.RuntimeBlueprint())
	var got []verdictRec
	for _, e := range tr {
		for _, up := range ref.Process(e) {
			if spec.IsGoal(up.Cat) {
				got = append(got, verdictRec{key: up.Inst.Key(), cat: up.Cat})
			}
		}
	}
	return got
}

func diffVerdicts(a, b []verdictRec) string {
	count := func(v []verdictRec) map[verdictRec]int {
		m := map[verdictRec]int{}
		for _, r := range v {
			m[r]++
		}
		return m
	}
	ca, cb := count(a), count(b)
	for r, n := range ca {
		if cb[r] != n {
			return fmt.Sprintf("verdict %v: %d vs %d", r, n, cb[r])
		}
	}
	for r, n := range cb {
		if ca[r] != n {
			return fmt.Sprintf("verdict %v: %d vs %d", r, ca[r], n)
		}
	}
	return ""
}

// TestEngineFullMatchesReference: the CreateFull engine is verdict-
// equivalent to the abstract algorithm of Figure 5 on random traces —
// including adversarial interleavings where iterators are seen before
// their create event.
func TestEngineFullMatchesReference(t *testing.T) {
	spec := unsafeIterSpec(t)
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := heap.New()
		tr := randomTrace(rng, h, 60, 2, 3, false)
		eng, _ := runEngine(t, spec, monitor.Options{GC: monitor.GCNone, Creation: monitor.CreateFull}, tr)
		ref := runReference(spec, tr)
		if d := diffVerdicts(eng, ref); d != "" {
			t.Fatalf("seed %d: engine(full) != reference: %s", seed, d)
		}
	}
}

// TestEngineEnableMatchesReferenceOnFreshTraces: with the fresh-object
// discipline real programs follow (an iterator's first event is its
// create), the enable-optimized engine is also verdict-equivalent.
func TestEngineEnableMatchesReferenceOnFreshTraces(t *testing.T) {
	spec := unsafeIterSpec(t)
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := heap.New()
		tr := randomTrace(rng, h, 60, 2, 3, true)
		eng, _ := runEngine(t, spec, monitor.Options{GC: monitor.GCNone, Creation: monitor.CreateEnable}, tr)
		ref := runReference(spec, tr)
		if d := diffVerdicts(eng, ref); d != "" {
			t.Fatalf("seed %d: engine(enable) != reference: %s", seed, d)
		}
	}
}

// TestEngineEnableSoundOnAdversarialTraces: on arbitrary interleavings the
// enable-optimized engine may skip monitors, but must never report a
// verdict the slicing semantics would not (soundness).
func TestEngineEnableSoundOnAdversarialTraces(t *testing.T) {
	spec := unsafeIterSpec(t)
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := heap.New()
		tr := randomTrace(rng, h, 80, 2, 3, false)
		eng, _ := runEngine(t, spec, monitor.Options{GC: monitor.GCNone, Creation: monitor.CreateEnable}, tr)
		ref := runReference(spec, tr)
		refCount := map[verdictRec]int{}
		for _, r := range ref {
			refCount[r]++
		}
		engCount := map[verdictRec]int{}
		for _, r := range eng {
			engCount[r]++
		}
		for r, n := range engCount {
			if refCount[r] < n {
				t.Fatalf("seed %d: engine(enable) reported %v %d times, reference only %d (unsound)",
					seed, r, n, refCount[r])
			}
		}
	}
}

// TestCoenableGCPreservesVerdicts: killing parameter objects mid-trace and
// enabling coenable GC must not change the verdict stream — Theorem 1 says
// flagged monitors could never have triggered. Three engines (no GC,
// JavaMOP all-dead GC, RV coenable GC) observe the same single pass of
// events and frees; events only ever mention live objects, as in a real
// program.
func TestCoenableGCPreservesVerdicts(t *testing.T) {
	spec := unsafeIterSpec(t)
	anyFlagged := false
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := heap.New()
		cols := []*heap.Object{h.Alloc("c1"), h.Alloc("c2")}
		var live []*heap.Object

		mk := func(gc monitor.GCPolicy, sink *[]verdictRec) *monitor.Engine {
			eng, err := monitor.New(spec, monitor.Options{
				GC: gc, Creation: monitor.CreateEnable, SweepInterval: 16,
				OnVerdict: func(v monitor.Verdict) {
					*sink = append(*sink, verdictRec{key: v.Inst.Key(), cat: v.Cat})
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
		var gotNone, gotDead, gotCoen []verdictRec
		engines := []*monitor.Engine{
			mk(monitor.GCNone, &gotNone),
			mk(monitor.GCAllDead, &gotDead),
			mk(monitor.GCCoenable, &gotCoen),
		}
		emit := func(sym int, inst param.Instance) {
			for _, eng := range engines {
				eng.Dispatch(sym, inst)
			}
		}

		iterSeq := 0
		for n := 0; n < 150; n++ {
			switch rng.Intn(10) {
			case 0, 1:
				iterSeq++
				it := h.Alloc(fmt.Sprintf("i%d", iterSeq))
				live = append(live, it)
				c := cols[rng.Intn(len(cols))]
				emit(symCreate, param.Empty().Bind(pC, c).Bind(pI, it))
			case 2, 3, 4:
				emit(symUpdate, param.Empty().Bind(pC, cols[rng.Intn(len(cols))]))
			case 5, 6, 7:
				if len(live) == 0 {
					continue
				}
				emit(symNext, param.Empty().Bind(pI, live[rng.Intn(len(live))]))
			default:
				if len(live) == 0 {
					continue
				}
				k := rng.Intn(len(live))
				h.Free(live[k])
				live = append(live[:k], live[k+1:]...)
			}
		}
		for _, eng := range engines {
			eng.Flush()
		}
		if d := diffVerdicts(gotNone, gotCoen); d != "" {
			t.Fatalf("seed %d: coenable GC changed verdicts: %s", seed, d)
		}
		if d := diffVerdicts(gotNone, gotDead); d != "" {
			t.Fatalf("seed %d: all-dead GC changed verdicts: %s", seed, d)
		}
		if engines[2].Stats().Flagged > 0 {
			anyFlagged = true
		}
	}
	if !anyFlagged {
		t.Fatal("coenable GC never flagged a monitor across 40 random runs")
	}
}

// TestPaperScenario replays §1's motivating scenario: a long-lived
// Collection and a dead Iterator. JavaMOP-mode retains the ⟨c,i⟩ monitor;
// RV-mode flags and collects it.
func TestPaperScenario(t *testing.T) {
	spec := unsafeIterSpec(t)

	scenario := func(gc monitor.GCPolicy) monitor.Stats {
		h := heap.New()
		c := h.Alloc("c1")
		eng, err := monitor.New(spec, monitor.Options{GC: gc, Creation: monitor.CreateEnable, SweepInterval: 4})
		if err != nil {
			t.Fatal(err)
		}
		// Many iterators created and abandoned; collection lives forever.
		for k := 0; k < 50; k++ {
			it := h.Alloc(fmt.Sprintf("i%d", k))
			monitor.Emit(eng, symCreate, c, it)
			monitor.Emit(eng, symNext, it)
			h.Free(it)
			// Subsequent updates touch the ⟨c⟩-tree, triggering lazy
			// notification of dead iterators (Figure 7).
			monitor.Emit(eng, symUpdate, c)
		}
		eng.Flush()
		return eng.Stats()
	}

	rv := scenario(monitor.GCCoenable)
	mop := scenario(monitor.GCAllDead)

	if rv.Flagged == 0 || rv.Collected == 0 {
		t.Fatalf("RV mode must flag and collect dead-iterator monitors: %+v", rv)
	}
	if rv.Live >= mop.Live {
		t.Fatalf("RV must retain fewer monitors than JavaMOP mode: rv=%d mop=%d", rv.Live, mop.Live)
	}
	if mop.Flagged != 0 {
		t.Fatalf("JavaMOP mode must not flag monitors while the collection lives: %+v", mop)
	}
	// RV also avoids stepping dead monitors: update events fan out to fewer
	// instances.
	if rv.Steps >= mop.Steps {
		t.Fatalf("RV must take fewer base-monitor steps: rv=%d mop=%d", rv.Steps, mop.Steps)
	}
}

// TestHasNextSingleParam checks a single-parameter property end to end,
// including verdict positions.
func TestHasNextSingleParam(t *testing.T) {
	spec := hasNextSpec(t)
	h := heap.New()
	i1 := h.Alloc("i1")
	i2 := h.Alloc("i2")

	var verdicts []string
	eng, err := monitor.New(spec, monitor.Options{
		GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
		OnVerdict: func(v monitor.Verdict) {
			verdicts = append(verdicts, v.Inst.Format(spec.Params))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		hnT = 0
		hnF = 1
		nxt = 2
	)
	monitor.Emit(eng, hnT, i1)
	monitor.Emit(eng, nxt, i1) // ok
	monitor.Emit(eng, hnT, i2)
	monitor.Emit(eng, nxt, i2) // ok
	monitor.Emit(eng, nxt, i2) // violation: next after next
	monitor.Emit(eng, hnF, i1)
	monitor.Emit(eng, nxt, i1) // violation: next after hasnextfalse

	if len(verdicts) != 2 {
		t.Fatalf("verdicts = %v, want two violations", verdicts)
	}
	if verdicts[0] != "<i=i2>" || verdicts[1] != "<i=i1>" {
		t.Fatalf("verdicts = %v", verdicts)
	}
}
