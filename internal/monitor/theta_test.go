package monitor_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rvgo/internal/arena"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
	"rvgo/internal/slicing"
)

// thetaStep is one record of a stream with death points: an event, or
// (kill set) the death of an object no later event mentions.
type thetaStep struct {
	ev   slicing.Event
	kill *heap.Object
}

// withDeaths places random death points into a trace: about half of the
// objects die, each at a random point after its last event.
func withDeaths(rng *rand.Rand, tr []slicing.Event) []thetaStep {
	last := map[*heap.Object]int{}
	var objs []*heap.Object // first-mention order: deterministic per seed
	for i, ev := range tr {
		for pm := ev.Inst.Mask(); pm != 0; pm = pm.Rest() {
			o := ev.Inst.Value(pm.First()).(*heap.Object)
			if _, ok := last[o]; !ok {
				objs = append(objs, o)
			}
			last[o] = i
		}
	}
	killsAfter := make([][]*heap.Object, len(tr))
	for _, o := range objs {
		if rng.Intn(2) == 0 {
			at := min(last[o]+rng.Intn(12), len(tr)-1)
			killsAfter[at] = append(killsAfter[at], o)
		}
	}
	var out []thetaStep
	for i, ev := range tr {
		out = append(out, thetaStep{ev: ev})
		for _, o := range killsAfter[i] {
			out = append(out, thetaStep{kill: o})
		}
	}
	return out
}

// iterChurnTrace is the UnsafeIter churn stream, randomized: short-lived
// iterators over a few collections that are themselves replaced now and
// then, with events arriving in any order — a next before its create makes
// the ⟨i⟩-from-⊥ creations the full strategy's static guard tombstones.
func iterChurnTrace(rng *rand.Rand, h *heap.Heap, n int) []thetaStep {
	cols := []*heap.Object{h.Alloc("c0"), h.Alloc("c1"), h.Alloc("c2")}
	var its []*heap.Object
	var out []thetaStep
	for len(out) < n {
		switch k := rng.Intn(12); {
		case k < 3 || len(its) == 0:
			it := h.Alloc(fmt.Sprintf("i%d", len(out)))
			its = append(its, it)
			if rng.Intn(4) == 0 { // used before it is created
				out = append(out, thetaStep{ev: slicing.Event{Sym: symNext, Inst: param.Empty().Bind(pI, it)}})
			}
			out = append(out, thetaStep{ev: slicing.Event{Sym: symCreate,
				Inst: param.Empty().Bind(pC, cols[rng.Intn(len(cols))]).Bind(pI, it)}})
		case k < 6:
			out = append(out, thetaStep{ev: slicing.Event{Sym: symNext, Inst: param.Empty().Bind(pI, its[rng.Intn(len(its))])}})
		case k < 8:
			out = append(out, thetaStep{ev: slicing.Event{Sym: symUpdate, Inst: param.Empty().Bind(pC, cols[rng.Intn(len(cols))])}})
		case k < 11:
			j := rng.Intn(len(its))
			out = append(out, thetaStep{kill: its[j]})
			its = append(its[:j], its[j+1:]...)
		default:
			j := rng.Intn(len(cols))
			out = append(out, thetaStep{kill: cols[j]})
			cols[j] = h.Alloc(fmt.Sprintf("c%d", len(out)))
		}
	}
	return out
}

// TestThetaInvariants holds the θ-table, the monitor arena and the leaf
// records to monitor.CheckTheta every 64 events (sweeps run every 37, so the checks
// fall at every distance from one) and after Flush, over random UnsafeMapIter and UnsafeIter streams with random
// death points, under every GC policy × creation strategy × avoidance mode
// New accepts.
func TestThetaInvariants(t *testing.T) {
	mapIter, err := props.Build("UnsafeMapIter")
	if err != nil {
		t.Fatal(err)
	}
	streams := []struct {
		name string
		spec *monitor.Spec
		gen  func(*rand.Rand, *heap.Heap) []thetaStep
	}{
		{"mapiter", mapIter, func(rng *rand.Rand, h *heap.Heap) []thetaStep {
			return withDeaths(rng, mapIterTrace(rng, h, 400))
		}},
		{"iterchurn", unsafeIterSpec(t), func(rng *rand.Rand, h *heap.Heap) []thetaStep {
			return iterChurnTrace(rng, h, 600)
		}},
	}
	for _, st := range streams {
		for _, gc := range []monitor.GCPolicy{monitor.GCNone, monitor.GCAllDead, monitor.GCCoenable} {
			for _, cr := range []monitor.CreationStrategy{monitor.CreateEnable, monitor.CreateFull} {
				for _, av := range []monitor.AvoidMode{monitor.AvoidOff, monitor.AvoidAudit, monitor.AvoidEnforce} {
					opts := monitor.Options{GC: gc, Creation: cr, Avoid: av, SweepInterval: 37}
					if _, err := monitor.New(st.spec, opts); err != nil {
						continue // full+enforce needs the none policy
					}
					t.Run(fmt.Sprintf("%s/%v/%v/%v", st.name, gc, cr, av), func(t *testing.T) {
						var tombstoned uint64
						for seed := int64(0); seed < 6; seed++ {
							eng, err := monitor.New(st.spec, opts)
							if err != nil {
								t.Fatal(err)
							}
							rng := rand.New(rand.NewSource(seed))
							h := heap.New()
							check := func(when string) {
								t.Helper()
								if err := monitor.CheckTheta(eng, when == "after Flush"); err != nil {
									t.Fatalf("seed %d, %s: %v", seed, when, err)
								}
							}
							for _, s := range st.gen(rng, h) {
								if s.kill != nil {
									h.Free(s.kill)
									continue
								}
								eng.Dispatch(s.ev.Sym, s.ev.Inst)
								if n := eng.Stats().Events; n%64 == 0 {
									check(fmt.Sprintf("event %d", n))
								}
							}
							eng.Flush()
							check("after Flush")
							if av == monitor.AvoidEnforce {
								tombstoned += eng.Stats().Avoided
							}
						}
						if av == monitor.AvoidEnforce && cr == monitor.CreateFull && tombstoned == 0 {
							t.Error("full+enforce never tombstoned a creation: the stream does not reach the ghost scan")
						}
					})
				}
			}
		}
	}
}

// TestCloseEmptiesEngine: a closed engine that stays referenced (callers
// keep it to read Stats) holds no object record — the one holder of the
// monitored program's refs — no θ-record, no leaf, no registry member and
// no slab, under the configuration that fills every per-θ structure
// (tombstones included) and under the production one.
func TestCloseEmptiesEngine(t *testing.T) {
	for _, opts := range []monitor.Options{
		{GC: monitor.GCNone, Creation: monitor.CreateFull, Avoid: monitor.AvoidEnforce},
		{GC: monitor.GCCoenable, Creation: monitor.CreateEnable, SweepInterval: 64},
	} {
		eng, err := monitor.New(unsafeIterSpec(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		h := heap.New()
		for _, s := range iterChurnTrace(rand.New(rand.NewSource(1)), h, 500) {
			if s.kill != nil {
				h.Free(s.kill)
			} else {
				eng.Dispatch(s.ev.Sym, s.ev.Inst)
			}
		}
		before := eng.Stats()
		if before.Created == 0 || eng.InternedInstances() == 0 || monitor.HeldRefs(eng) == 0 {
			t.Fatalf("%v/%v: nothing to release: %+v", opts.GC, opts.Creation, before)
		}
		if leaves, _, registered := monitor.IndexStats(eng); leaves.Live == 0 || registered == 0 || monitor.HeldRefs(eng) == 0 {
			t.Fatalf("%v/%v: no index to release: %+v, %d registered", opts.GC, opts.Creation, leaves, registered)
		}
		if opts.Avoid == monitor.AvoidEnforce && before.Avoided == 0 {
			t.Fatalf("enforce run left no tombstone: %+v", before)
		}
		eng.Close()
		if n := eng.InternedInstances(); n != 0 {
			t.Errorf("%v/%v: θ-table maps %d instances after Close", opts.GC, opts.Creation, n)
		}
		if st := eng.InstanceArenaStats(); st != (arena.Stats{HighWater: st.HighWater}) {
			t.Errorf("%v/%v: instance arena after Close: %+v", opts.GC, opts.Creation, st)
		}
		if st := eng.ArenaStats(); st != (arena.Stats{HighWater: st.HighWater}) {
			t.Errorf("%v/%v: monitor arena after Close: %+v", opts.GC, opts.Creation, st)
		}
		if st, words, registered := monitor.IndexStats(eng); st != (arena.Stats{HighWater: st.HighWater}) || words != 0 || registered != 0 {
			t.Errorf("%v/%v: index after Close: leaf arena %+v, %d heap words, %d registry members", opts.GC, opts.Creation, st, words, registered)
		}
		if n := monitor.HeldRefs(eng); n != 0 {
			t.Errorf("%v/%v: %d object records (and their refs) survive Close", opts.GC, opts.Creation, n)
		}
		if err := monitor.CheckTheta(eng, false); err != nil {
			t.Errorf("%v/%v: after Close: %v", opts.GC, opts.Creation, err)
		}
		if got := eng.Stats(); got != before {
			t.Errorf("%v/%v: Stats after Close = %+v, want %+v", opts.GC, opts.Creation, got, before)
		}
	}
}

// TestCheckThetaCatchesSweepMutants: the two ways a sweep could break the
// leaf discipline — unmapping a θ-record before its leaves are detached,
// detaching without releasing the members — are each caught by CheckTheta.
func TestCheckThetaCatchesSweepMutants(t *testing.T) {
	for name, corrupt := range map[string]func(*monitor.Engine) bool{
		"unmap before detach":    monitor.UnmapWithLeaf,
		"detach without release": monitor.LeakLeafMember,
	} {
		eng, err := monitor.New(unsafeIterSpec(t), monitor.Options{GC: monitor.GCCoenable})
		if err != nil {
			t.Fatal(err)
		}
		h := heap.New()
		c := h.Alloc("c")
		for i := 0; i < 4; i++ {
			monitor.Emit(eng, symCreate, c, h.Alloc("i"))
		}
		if err := monitor.CheckTheta(eng, false); err != nil {
			t.Fatalf("%s: before the corruption: %v", name, err)
		}
		if !corrupt(eng) {
			t.Fatalf("%s: no leaf to corrupt", name)
		}
		if err := monitor.CheckTheta(eng, false); err == nil {
			t.Errorf("%s: CheckTheta accepts the corrupted engine", name)
		}
	}
}

// TestLeavesPartitionByDomain: under a key tuple the monitors sit in one
// leaf per domain, so a creation join reads the progenitors of its own
// domain only. After N createIter⟨c0, i_k⟩ on UnsafeMapIter the keys ⟨m⟩ and
// ⟨m,c0⟩ index the N ⟨m,c0,i_k⟩ monitors beside the one ⟨m,c0⟩ monitor, each
// domain in its own leaf, and the leaf a createIter join for R = {m,c} reads
// at ⟨c0⟩ has that one member — under GCNone, where nothing is ever
// compacted away, a join over a shared leaf would scan all N.
func TestLeavesPartitionByDomain(t *testing.T) {
	spec, err := props.Build("UnsafeMapIter")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCNone})
	if err != nil {
		t.Fatal(err)
	}
	const pM, pC, pI = 0, 1, 2
	createColl, _ := spec.Symbol("createColl")
	createIter, _ := spec.Symbol("createIter")
	h := heap.New()
	m, c0 := h.Alloc("m"), h.Alloc("c0")
	monitor.Emit(eng, createColl, m, c0)
	const n = 50
	for k := 0; k < n; k++ {
		monitor.Emit(eng, createIter, c0, h.Alloc(fmt.Sprintf("i%d", k)))
	}
	mc, mci := param.SetOf(pM, pC), param.SetOf(pM, pC, pI)
	for _, tc := range []struct {
		key  param.Instance
		R    param.Set
		want int
	}{
		{param.Empty().Bind(pC, c0), mc, 1},
		{param.Empty().Bind(pM, m), mc, 1},
		{param.Empty().Bind(pM, m), mci, n},
		{param.Empty().Bind(pM, m).Bind(pC, c0), mc, 1},
		{param.Empty().Bind(pM, m).Bind(pC, c0), mci, n},
	} {
		if got := monitor.LeafLen(eng, tc.key, tc.R); got != tc.want {
			t.Errorf("leaf %v under %v has %d members, want %d", tc.R, tc.key, got, tc.want)
		}
	}
	if err := monitor.CheckTheta(eng, false); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorHeldOncePerKey: a key domain that is both an event domain and
// a join overlap — {c} for UnsafeIter's ⟨c⟩ monitors: update(c) dispatches
// through it and create⟨c,i⟩ joins through it — indexes the monitor once.
// Its refcount is its number of key domains plus the registry.
func TestMonitorHeldOncePerKey(t *testing.T) {
	eng, err := monitor.New(unsafeIterSpec(t), monitor.Options{GC: monitor.GCCoenable})
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	c, i := h.Alloc("c"), h.Alloc("i")
	monitor.Emit(eng, symUpdate, c)
	monitor.Emit(eng, symCreate, c, i)
	for _, inst := range []param.Instance{
		param.Empty().Bind(pC, c),
		param.Empty().Bind(pC, c).Bind(pI, i),
	} {
		refs, keys, ok := monitor.MonRefs(eng, inst)
		if !ok {
			t.Fatalf("no monitor for %v", inst)
		}
		if int(refs) != keys+1 {
			t.Errorf("monitor for %v: refcount %d, want %d key domains + its registry", inst, refs, keys)
		}
	}
	if refs, keys, _ := monitor.MonRefs(eng, param.Empty().Bind(pC, c)); keys != 1 || refs != 2 {
		t.Errorf("⟨c⟩ monitor: %d key domains, refcount %d; want {c} once and the registry", keys, refs)
	}
}

// TestSequentialDispatchNoAlloc: the two steady-state shapes of the
// sequential engine allocate nothing per event — the HasNext loop (one θ,
// one monitor, found through the θ-table alone) and the UnsafeIter update
// fan-out (one ⟨c⟩ event stepping every ⟨c,i⟩ monitor below it and stamping
// each one's θ-record).
func TestSequentialDispatchNoAlloc(t *testing.T) {
	if monitor.RaceBuild {
		t.Skip("allocation counts are not meaningful under -race")
	}
	h := heap.New()

	hasNext, err := monitor.New(hasNextSpec(t), monitor.Options{GC: monitor.GCCoenable})
	if err != nil {
		t.Fatal(err)
	}
	its := make([]param.Instance, 16)
	for i := range its {
		its[i] = param.Empty().Bind(0, h.Alloc("i"))
		hasNext.Dispatch(0, its[i]) // first sight: θ-record and monitor
	}
	k := 0
	if avg := testing.AllocsPerRun(4096, func() {
		hasNext.Dispatch(0, its[k%len(its)]) // hasnexttrue
		hasNext.Dispatch(2, its[k%len(its)]) // next
		k++
	}); avg != 0 {
		t.Errorf("HasNext steady loop allocates %.2f times per iteration, want 0", avg)
	}

	iter, err := monitor.New(unsafeIterSpec(t), monitor.Options{GC: monitor.GCCoenable})
	if err != nil {
		t.Fatal(err)
	}
	c := h.Alloc("c")
	for i := 0; i < 32; i++ {
		monitor.Emit(iter, symCreate, c, h.Alloc("i"))
	}
	update := param.Empty().Bind(pC, c)
	iter.Dispatch(symUpdate, update) // sizes the leaf-walk scratch buffer
	steps := iter.Stats().Steps
	if avg := testing.AllocsPerRun(1024, func() { iter.Dispatch(symUpdate, update) }); avg != 0 {
		t.Errorf("UnsafeIter update fan-out allocates %.2f times per event, want 0", avg)
	}
	if got := iter.Stats().Steps - steps; got < 32*1024 {
		t.Fatalf("update fan-out took %d steps over 1024+ events, want 32 per event", got)
	}
}

// TestChurnDispatchNoAlloc: generations of short-lived iterators — create,
// next, death, update, update — allocate nothing per generation once the
// engine is warm: the θ-records, the monitor and the leaf entries of a
// dead iterator are collected by the sweep and recycled for the next one.
func TestChurnDispatchNoAlloc(t *testing.T) {
	if monitor.RaceBuild {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const warm, measured = 20_000, 4096
	eng, err := monitor.New(unsafeIterSpec(t), monitor.Options{GC: monitor.GCCoenable, SweepInterval: 256})
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	c := h.Alloc("c")
	// The workload's own objects are allocated up front: AllocsPerRun
	// counts every allocation, and only the engine's are under test.
	its := make([]*heap.Object, warm+measured+1)
	for i := range its {
		its[i] = h.Alloc("i")
	}
	k := 0
	generation := func() {
		it := its[k]
		k++
		monitor.Emit(eng, symCreate, c, it)
		monitor.Emit(eng, symNext, it)
		h.Free(it)
		monitor.Emit(eng, symUpdate, c)
		monitor.Emit(eng, symUpdate, c)
	}
	for k < warm {
		generation()
	}
	if avg := testing.AllocsPerRun(measured, generation); avg != 0 {
		t.Errorf("churn generation allocates %.2f times, want 0", avg)
	}
	if st := eng.Stats(); st.Collected < warm {
		t.Fatalf("only %d of %d+ dead iterators' monitors collected: %+v", st.Collected, warm, st)
	}
}
