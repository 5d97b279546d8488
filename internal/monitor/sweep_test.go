package monitor_test

import (
	"testing"

	"rvgo/internal/heap"
	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
)

// TestSweepPacer checks the two halves of the sweep schedule. A churn
// stream — generations of iterators that die after one next — is swept as
// fast as it adds θ-records, so its peak live population is bounded by the
// pacer's floor and does not grow with the stream's length. A steady
// stream, which adds no θ-records once warmed up, is swept by the period
// alone, and early sweeps during its warm-up are added to the period
// schedule without shifting it.
func TestSweepPacer(t *testing.T) {
	spec := unsafeIterSpec(t)
	churn := func(events int) monitor.Stats {
		eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable})
		if err != nil {
			t.Fatal(err)
		}
		h := heap.New()
		c := h.Alloc("c")
		for i := 0; i < events; i += 4 {
			it := h.Alloc("")
			monitor.Emit(eng, symCreate, c, it)
			monitor.Emit(eng, symNext, it)
			h.Free(it)
			monitor.Emit(eng, symUpdate, c)
			monitor.Emit(eng, symUpdate, c)
		}
		return eng.Stats()
	}
	short, long := churn(50_000), churn(500_000)
	t.Logf("churn PeakLive: %d at 50k events, %d at 500k", short.PeakLive, long.PeakLive)
	if short.PeakLive != long.PeakLive || long.PeakLive > 256 {
		t.Errorf("churn PeakLive = %d at 50k events, %d at 500k; want equal and ≤ 256", short.PeakLive, long.PeakLive)
	}

	hn := hasNextSpec(t)
	const hnT, nxt = 0, 2
	// steady runs events hasnexttrue/next pairs round-robin over iters
	// immortal iterators and returns the sweeps taken before any Flush.
	steady := func(iters, interval, events int) uint64 {
		met := metrics.NewEngineSeries(metrics.NewRegistry(), "steady", "coenable")
		eng, err := monitor.New(hn, monitor.Options{
			GC: monitor.GCCoenable, Creation: monitor.CreateEnable, SweepInterval: interval, Metrics: met,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := heap.New()
		its := make([]*heap.Object, iters)
		for k := range its {
			its[k] = h.Alloc("")
		}
		for n := 0; n < events; n += 2 {
			it := its[n/2%iters]
			monitor.Emit(eng, hnT, it)
			monitor.Emit(eng, nxt, it)
		}
		if got := eng.Stats().Events; got != uint64(events) {
			t.Fatalf("dispatched %d events, want %d", got, events)
		}
		return met.Sweeps.Value()
	}
	// 64 iterators stay under the pacer's floor: the period is the whole
	// schedule, the default one and an explicit one alike.
	const events = 100_000
	if got, want := steady(64, 0, events), uint64(events/4096); got != want {
		t.Errorf("steady, 64 iterators, default period: %d sweeps, want %d", got, want)
	}
	if got, want := steady(64, 1000, events), uint64(events/1000); got != want {
		t.Errorf("steady, 64 iterators, period 1000: %d sweeps, want %d", got, want)
	}
	// 600 iterators take two early sweeps while warming up, once 256 and
	// then 512 θ-records have been added (nothing leaves the table); the
	// period schedule keeps its phase around them.
	if got, want := steady(600, 0, events), uint64(2+events/4096); got != want {
		t.Errorf("steady, 600 iterators, default period: %d sweeps, want %d", got, want)
	}
}
