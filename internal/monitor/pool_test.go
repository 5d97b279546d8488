package monitor_test

import (
	"fmt"
	"runtime"
	"testing"

	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
)

// churnTrace drives an engine through generations of short-lived iterators:
// each generation creates an iterator on a long-lived collection, steps it,
// then frees it — the coenable GC flags and collects its monitor, and the
// periodic sweep recycles it into the free list for the next generation.
func churnTrace(t *testing.T, eng *monitor.Engine, h *heap.Heap, generations int) {
	t.Helper()
	c := h.Alloc("c")
	for g := 0; g < generations; g++ {
		it := h.Alloc(fmt.Sprintf("i%d", g))
		eng.Dispatch(symCreate, param.Empty().Bind(pC, c).Bind(pI, it))
		eng.Dispatch(symNext, param.Empty().Bind(pI, it))
		h.Free(it)
		// Touch the engine so the death is observed and swept.
		eng.Dispatch(symUpdate, param.Empty().Bind(pC, c))
	}
	eng.Flush()
}

// TestMonitorPoolRecycles: collected monitors come back out of the free
// list — the coenable GC's garbage becomes the allocator — and the engine
// holds far fewer interned instances than it saw, because the intern table
// is swept with the tombstones.
func TestMonitorPoolRecycles(t *testing.T) {
	spec := unsafeIterSpec(t)
	eng, err := monitor.New(spec, monitor.Options{
		GC: monitor.GCCoenable, Creation: monitor.CreateEnable, SweepInterval: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	const generations = 200
	churnTrace(t, eng, h, generations)

	st := eng.Stats()
	if st.Created < generations {
		t.Fatalf("Created = %d, want >= %d", st.Created, generations)
	}
	recycled, reused := eng.PoolStats()
	if recycled == 0 {
		t.Fatalf("no monitors recycled despite %d collected", st.Collected)
	}
	if reused == 0 {
		t.Fatal("no creations served from the free list")
	}
	if reused > st.Created {
		t.Fatalf("reused %d > created %d", reused, st.Created)
	}
	// The intern table must not accumulate one entry per dead generation.
	if n := eng.InternedInstances(); n > generations/2 {
		t.Fatalf("intern table holds %d instances after churn of %d", n, generations)
	}
}

// TestPooledEngineMatchesFreshCounters: a churn-heavy run has identical
// settled counters and verdicts whether monitors come from the pool or
// fresh allocations — pooling is invisible to the monitoring semantics.
// (The fresh-allocation engine is simulated by an identical run: pooling is
// deterministic, so the real assertion is against the reference algorithm
// in the engine_test oracle suites; here we pin determinism.)
func TestPooledEngineMatchesFreshCounters(t *testing.T) {
	run := func() (monitor.Stats, []verdictRec) {
		spec := unsafeIterSpec(t)
		var got []verdictRec
		eng, err := monitor.New(spec, monitor.Options{
			GC: monitor.GCCoenable, Creation: monitor.CreateEnable, SweepInterval: 4,
			OnVerdict: func(v monitor.Verdict) {
				got = append(got, verdictRec{key: v.Inst.Key(), cat: v.Cat})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		h := heap.New()
		churnTrace(t, eng, h, 100)
		return eng.Stats(), got
	}
	s1, v1 := run()
	s2, v2 := run()
	if s1 != s2 {
		t.Fatalf("counters diverge across identical runs:\n%+v\n%+v", s1, s2)
	}
	if d := diffVerdicts(v1, v2); d != "" {
		t.Fatalf("verdicts diverge: %s", d)
	}
}

// TestEngineFloor: an engine costs what it holds. After one event a fresh
// engine has one 256-record slab in each of its three pools (θ-records,
// monitors, leaves), and sixteen such engines average at most 64 KB of
// live heap each — the floor a server pays per session and a cluster per
// slot.
func TestEngineFloor(t *testing.T) {
	spec := unsafeIterSpec(t)
	const engines, floor = 16, 64 << 10
	open := func(h *heap.Heap) *monitor.Engine {
		eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable})
		if err != nil {
			t.Fatal(err)
		}
		monitor.Emit(eng, symCreate, h.Alloc("c"), h.Alloc("i"))
		return eng
	}

	h := heap.New()
	eng := open(h)
	leaves, _, _ := monitor.IndexStats(eng)
	for name, got := range map[string]int{
		"θ-record": eng.InstanceArenaStats().Cap,
		"monitor":  eng.ArenaStats().Cap,
		"leaf":     leaves.Cap,
	} {
		if got != 256 {
			t.Errorf("%s pool capacity after one event = %d, want one 256-record slab", name, got)
		}
	}
	eng.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	held := make([]*monitor.Engine, engines)
	for i := range held {
		held[i] = open(h)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / engines
	t.Logf("heap per engine after one event: %d B", per)
	if per > floor {
		t.Errorf("heap per engine after one event = %d B, want ≤ %d", per, floor)
	}
	runtime.KeepAlive(held)
}

// TestEngineLiveFloor: an engine's indexes cost what they hold. After
// 4096 events, each naming a fresh live object in a θ of its own, four
// engines average at most liveFloor bytes of live heap each: the
// θ-records, monitors and leaves of 4096 θs, the object records, and the
// two indexes that find them. Measured at 1 012 240 B; the floor is 1.25×
// the measurement.
func TestEngineLiveFloor(t *testing.T) {
	if monitor.RaceBuild {
		t.Skip("heap sizes are not meaningful under -race")
	}
	spec := unsafeIterSpec(t)
	const engines, objects, liveFloor = 4, 4096, 1_265_300
	h := heap.New()
	refs := make([]heap.Ref, engines*objects)
	for i := range refs {
		refs[i] = h.Alloc("c")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	held := make([]*monitor.Engine, engines)
	for i := range held {
		eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range refs[i*objects : (i+1)*objects] {
			monitor.Emit(eng, symUpdate, c)
		}
		held[i] = eng
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / engines
	t.Logf("heap per engine holding %d live objects in distinct θs: %d B", objects, per)
	if per > liveFloor {
		t.Errorf("heap per engine holding %d live objects = %d B, want ≤ %d", objects, per, liveFloor)
	}
	runtime.KeepAlive(held)
	runtime.KeepAlive(refs)
}
