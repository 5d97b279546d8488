// Tests of the WithMetrics façade: the exposed series must settle to the
// engine's exact Stats, instrumentation must not cost the hot path its
// 0 allocs/op guarantee, and — the observability ground rule — enabling
// metrics must not change a single observable of the monitored run.
package rvgo_test

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"rvgo"
	"rvgo/spec"
)

// seriesValue reads one labeled series from a registry snapshot.
func seriesValue(t *testing.T, met *rvgo.Metrics, family, label string) float64 {
	t.Helper()
	fam, ok := met.Find(family)
	if !ok {
		t.Fatalf("registry has no family %q (have %v)", family, familyNames(met))
	}
	for _, s := range fam.Series {
		if s.Label == label {
			return s.Value
		}
	}
	t.Fatalf("family %q has no series %q: %+v", family, label, fam.Series)
	return 0
}

func familyNames(met *rvgo.Metrics) []string {
	var names []string
	for _, f := range met.Snapshot() {
		names = append(names, f.Name)
	}
	return names
}

// TestMonitorMetrics covers the attach/expose cycle on the sequential
// backend: after a Flush the engine series equal the exact Stats counters,
// the Prometheus text carries them under the tenant label, and the
// registry is mountable as an http.Handler.
func TestMonitorMetrics(t *testing.T) {
	sp, err := spec.Builtin("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	met := rvgo.NewMetrics()
	m, err := rvgo.New(sp, rvgo.WithMetrics(met))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Metrics() != met {
		t.Fatal("Monitor.Metrics() did not return the attached registry")
	}
	hnT, next := m.MustEvent("hasnexttrue"), m.MustEvent("next")
	h := rvgo.NewHeap()
	for i := 0; i < 1000; i++ {
		it := h.Alloc("it")
		hnT.Emit(it)
		next.Emit(it)
		m.Free(it)
		h.Free(it)
	}
	m.Flush()
	st := m.Stats()

	// Settled equality with the exact counters, per family.
	for _, c := range []struct {
		family string
		want   uint64
	}{
		{"rv_engine_events_total", st.Events},
		{"rv_engine_monitors_created_total", st.Created},
		{"rv_engine_monitors_collected_total", st.Collected},
		{"rv_engine_verdicts_total", st.GoalVerdicts},
	} {
		if got := seriesValue(t, met, c.family, "HasNext"); got != float64(c.want) {
			t.Errorf("%s{tenant=HasNext} = %v, want %d (exact Stats)", c.family, got, c.want)
		}
	}
	if live := seriesValue(t, met, "rv_engine_monitors_live", "HasNext"); live != float64(st.Live) {
		t.Errorf("rv_engine_monitors_live = %v, want %d", live, st.Live)
	}

	// The mounted handler serves the same series as WritePrometheus.
	var sb strings.Builder
	if err := met.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	met.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Body.String() != sb.String() {
		t.Error("ServeHTTP body differs from WritePrometheus output")
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the Prometheus text exposition type", ct)
	}
	want := fmt.Sprintf("rv_engine_events_total{tenant=\"HasNext\"} %d", st.Events)
	if !strings.Contains(sb.String(), want) {
		t.Errorf("Prometheus text missing %q:\n%s", want, sb.String())
	}
}

// TestMetricsSharedRegistry pins the aggregation contract: two Monitors
// over the same property attached to one registry sum into one series.
func TestMetricsSharedRegistry(t *testing.T) {
	sp, err := spec.Builtin("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	met := rvgo.NewMetrics()
	var total uint64
	for _, n := range []int{300, 700} {
		m, err := rvgo.New(sp, rvgo.WithMetrics(met))
		if err != nil {
			t.Fatal(err)
		}
		hnT := m.MustEvent("hasnexttrue")
		h := rvgo.NewHeap()
		it := h.Alloc("it")
		for i := 0; i < n; i++ {
			hnT.Emit(it)
		}
		total += uint64(n)
		m.Close() // Close settles this Monitor's deltas into the registry
	}
	if got := seriesValue(t, met, "rv_engine_events_total", "HasNext"); got != float64(total) {
		t.Errorf("shared series = %v after two monitors, want %d", got, total)
	}
}

// TestMetricsZeroAlloc is the hard gate of the tentpole: WithMetrics must
// not cost the sequential hot path its 0 allocs/op guarantee
// (TestEmitterZeroAlloc without instrumentation). The run is long enough
// to cross the engine's amortized publication interval many times, so the
// delta-publish path itself is under the gate too.
func TestMetricsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sp, err := spec.Builtin("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	m, err := rvgo.New(sp, rvgo.WithMetrics(rvgo.NewMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	hnT, next := m.MustEvent("hasnexttrue"), m.MustEvent("next")
	h := rvgo.NewHeap()
	it := h.Alloc("it")
	hnT.Emit(it) // warm up: monitor creation is off the steady-state path
	if avg := testing.AllocsPerRun(2000, func() {
		hnT.Emit(it)
		next.Emit(it)
	}); avg != 0 {
		t.Errorf("instrumented Emitter.Emit allocates %.2f allocs/op on the sequential backend, want 0", avg)
	}
}

// scriptedRun drives a fixed UNSAFEITER workload (40 iterators over 4
// collections, one violation each, explicit deaths) and returns the
// settled counters and the sorted verdict set.
func scriptedRun(t *testing.T, opts ...rvgo.Option) (rvgo.Stats, []string) {
	t.Helper()
	sp, err := spec.Builtin("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var verdicts []string
	opts = append(opts, rvgo.WithVerdictHandler(func(v rvgo.Verdict) {
		mu.Lock()
		verdicts = append(verdicts, string(v.Cat)+"@"+v.Inst.Format(sp.Params()))
		mu.Unlock()
	}))
	m, err := rvgo.New(sp, opts...)
	if err != nil {
		t.Fatal(err)
	}
	h := rvgo.NewHeap()
	create, update, next := m.MustEvent("create"), m.MustEvent("update"), m.MustEvent("next")
	for cIdx := 0; cIdx < 4; cIdx++ {
		c := h.Alloc(fmt.Sprintf("c%d", cIdx))
		for r := 0; r < 10; r++ {
			it := h.Alloc(fmt.Sprintf("i%d_%d", cIdx, r))
			create.Emit(c, it)
			update.Emit(c)
			next.Emit(it) // next after update: one UNSAFEITER violation
			m.Free(it)
			h.Free(it)
		}
		m.Free(c)
		h.Free(c)
	}
	m.Flush()
	st := m.Stats()
	m.Close()
	mu.Lock()
	defer mu.Unlock()
	sort.Strings(verdicts)
	return st, verdicts
}

// TestMetricsConformance runs the observability ground rule over the full
// matrix — three backends × three GC policies: with metrics attached the
// oracle suites must still pass, and a scripted trace must produce
// bit-identical settled counters and verdicts with and without a registry.
func TestMetricsConformance(t *testing.T) {
	addr := startFacadeServer(t)
	backends := []struct {
		name  string
		lanes int
		opts  func() []rvgo.Option
	}{
		{"seq", 1, func() []rvgo.Option { return nil }},
		{"shard4", 4, func() []rvgo.Option { return []rvgo.Option{rvgo.WithShards(4)} }},
		{"remote", 1, func() []rvgo.Option { return []rvgo.Option{rvgo.WithRemote(addr)} }},
	}
	policies := []rvgo.GCPolicy{rvgo.GCCoenable, rvgo.GCAllDead, rvgo.GCNone}
	for _, bk := range backends {
		for _, gc := range policies {
			t.Run(fmt.Sprintf("%s/gc=%s", bk.name, gc), func(t *testing.T) {
				// Oracle suites with a registry attached.
				facadeSuites(t, facadeBackend(bk.name, bk.lanes, func() []rvgo.Option {
					return append(bk.opts(), rvgo.WithMetrics(rvgo.NewMetrics()))
				}), gc)

				// Bit-identical with and without instrumentation.
				t.Run("Identical", func(t *testing.T) {
					base := append(bk.opts(), rvgo.WithGC(gc))
					met := rvgo.NewMetrics()
					stOn, vOn := scriptedRun(t, append(base, rvgo.WithMetrics(met))...)
					stOff, vOff := scriptedRun(t, base...)
					if stOn != stOff {
						t.Errorf("stats diverge with metrics attached:\n  on  %+v\n  off %+v", stOn, stOff)
					}
					if fmt.Sprint(vOn) != fmt.Sprint(vOff) || len(vOn) != 40 {
						t.Errorf("verdicts diverge: with metrics %v, without %v", vOn, vOff)
					}
					// The registry's settled counters match the run they
					// instrumented. Remote sessions count at the client tap
					// (the engine series live in the server's registry).
					if bk.name == "remote" {
						if got := seriesValue(t, met, "rv_client_events_total", "UnsafeIter"); got != float64(stOn.Events) {
							t.Errorf("rv_client_events_total = %v, want %d", got, stOn.Events)
						}
						if got := seriesValue(t, met, "rv_client_verdicts_total", "UnsafeIter"); got != 40 {
							t.Errorf("rv_client_verdicts_total = %v, want 40", got)
						}
					} else {
						// Engine events sum per-worker dispatches: on the
						// sharded runtime a broadcast counts once per shard
						// it reaches, so the series dominates the deduped
						// façade counter (and equals it sequentially).
						got := seriesValue(t, met, "rv_engine_events_total", "UnsafeIter")
						if bk.name == "seq" && got != float64(stOn.Events) {
							t.Errorf("rv_engine_events_total = %v, want %d", got, stOn.Events)
						}
						if got < float64(stOn.Events) {
							t.Errorf("rv_engine_events_total = %v, want >= %d", got, stOn.Events)
						}
						if got := seriesValue(t, met, "rv_engine_monitors_created_total", "UnsafeIter"); got != float64(stOn.Created) {
							t.Errorf("rv_engine_monitors_created_total = %v, want %d", got, stOn.Created)
						}
						if got := seriesValue(t, met, "rv_engine_monitors_collected_total", "UnsafeIter"); got != float64(stOn.Collected) {
							t.Errorf("rv_engine_monitors_collected_total = %v, want %d", got, stOn.Collected)
						}
					}
				})
			})
		}
	}
}
