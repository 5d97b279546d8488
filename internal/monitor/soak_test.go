// The soak tier is timing-based and million-scale; under the race detector
// it would take minutes and measure the detector, not the collector. The
// race suite covers the arena through the conformance and stress tests.

//go:build !race

package monitor_test

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"testing"

	"rvgo/internal/heap"
	"rvgo/internal/monitor"
)

// gcPauseTotal reads the cumulative stop-the-world pause time from the
// runtime's /gc/pauses histogram (bucket-midpoint approximation — exact
// totals are not exported, but the approximation is consistent between two
// reads, so deltas compare fairly).
func gcPauseTotal(t *testing.T) float64 {
	t.Helper()
	s := []rtmetrics.Sample{{Name: "/gc/pauses:seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64Histogram {
		t.Fatalf("/gc/pauses:seconds kind = %v", s[0].Value.Kind())
	}
	h := s[0].Value.Float64Histogram()
	total := 0.0
	for i, count := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		total += float64(count) * (lo + hi) / 2
	}
	return total
}

// buildLiveMonitors creates an engine holding exactly n live monitors (one
// UNSAFEITER ⟨c,i⟩ slice per iterator, GCNone so nothing is reclaimed) and
// returns it with the simulated heap keeping the parameter objects alive.
func buildLiveMonitors(t *testing.T, n int) (*monitor.Engine, *heap.Heap) {
	t.Helper()
	eng, err := monitor.New(unsafeIterSpec(t), monitor.Options{
		GC:       monitor.GCNone,
		Creation: monitor.CreateEnable,
		// The soak population never dies; don't pay sweeps over it.
		SweepInterval: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	c := h.Alloc("c")
	for j := 0; j < n; j++ {
		monitor.Emit(eng, symCreate, c, h.Alloc(""))
	}
	return eng, h
}

// TestArenaScaleLiveMonitors is the scale/soak tier of the arena store
// (skipped under -short): a million live monitors must (a) be accounted
// exactly by the slab arena, (b) cost the host collector stop-the-world
// pauses that stay flat relative to a 10× smaller population — the store
// is noscan, so pause time must not scale with monitor count — and (c)
// vanish without a slab leak on Flush/Close.
func TestArenaScaleLiveMonitors(t *testing.T) {
	if testing.Short() {
		t.Skip("soak tier: skipped under -short")
	}

	const big = 1_000_000
	const small = big / 10

	// measure runs k forced collections against an engine holding n live
	// monitors and returns the added STW pause time.
	measure := func(n int) (pause float64, eng *monitor.Engine, h *heap.Heap) {
		eng, h = buildLiveMonitors(t, n)
		runtime.GC() // let the build's floating garbage clear
		before := gcPauseTotal(t)
		for i := 0; i < 5; i++ {
			runtime.GC()
		}
		return gcPauseTotal(t) - before, eng, h
	}

	smallPause, smallEng, _ := measure(small)
	smallEng.Close()

	bigPause, eng, hp := measure(big)
	_ = hp

	// (a) Arena occupancy is the engine's exact live count.
	st := eng.Stats()
	ast := eng.ArenaStats()
	if st.Created != big || st.Live != big {
		t.Fatalf("engine stats = %+v, want %d created and live", st, big)
	}
	if ast.Live != int(st.Live) {
		t.Fatalf("arena live %d != engine live %d", ast.Live, st.Live)
	}
	if occ := ast.Occupancy(); occ < 0.9 {
		t.Errorf("arena occupancy %.3f after pure growth, want ≥0.9 (slabs %d, cap %d)", occ, ast.Slabs, ast.Cap)
	}
	if ist := eng.InstanceArenaStats(); ist.Live < big {
		t.Errorf("instance arena live %d, want ≥%d (one interned instance per monitor)", ist.Live, big)
	}

	// (b) Host-GC pause contribution stays flat: 10× the live monitors may
	// not cost 10× the stop-the-world time. The bound is deliberately loose
	// (5× over a floored baseline) — the store being noscan makes the real
	// ratio ≈1, but CI schedulers add noise to any timing assertion.
	floor := 2e-3 // 2ms across 5 forced cycles
	if smallPause < floor {
		smallPause = floor
	}
	if bigPause > smallPause*5 {
		t.Errorf("STW pause grew with monitor count: %d mons -> %.2fms, %d mons -> %.2fms (>5x)",
			small, smallPause*1e3, big, bigPause*1e3)
	}
	t.Logf("STW pause over 5 forced GCs: %d mons = %.3fms, %d mons = %.3fms (slabs: %d)",
		small, smallPause*1e3, big, bigPause*1e3, ast.Slabs)

	// (c) Flush keeps the population (nothing is collectable under GCNone);
	// Close returns every slab to the host allocator.
	eng.Flush()
	if got := eng.ArenaStats().Live; got != big {
		t.Fatalf("Flush changed arena live to %d, want %d (GCNone reclaims nothing)", got, big)
	}
	eng.Close()
	if st := eng.ArenaStats(); st.Slabs != 0 || st.Live != 0 || st.Cap != 0 {
		t.Fatalf("slab leak after Close: %+v", st)
	}
	if st := eng.InstanceArenaStats(); st.Slabs != 0 || st.Live != 0 {
		t.Fatalf("instance slab leak after Close: %+v", st)
	}
}
