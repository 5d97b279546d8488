package conformance

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"rvgo/internal/dacapo"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
)

// PolicyFactory builds one backend instance for the given property under a
// specific GC policy, wired to the verdict handler. The oracle suite closes
// every runtime it builds.
type PolicyFactory func(t *testing.T, prop string, gc monitor.GCPolicy, onVerdict func(monitor.Verdict)) monitor.Runtime

// oracleScale sizes the avrora replay: large enough that the trace
// exercises creation joins, coenable flagging, object deaths, sweeps and
// monitor recycling; small enough for every backend × policy cell to stay
// well under a second.
const oracleScale = 0.05

// oracleProp is the replayed property. UNSAFEITER is the paper's running
// example and the one whose avrora slice population stresses all three
// reclamation policies differently.
const oracleProp = "UnsafeIter"

// avroraReplay drives the synthetic avrora trace through a backend and
// returns its per-slice verdict sequences and settled counters. The
// substrate is seeded, so every call replays the identical event/death
// sequence; object deaths reach the backend through the Runtime.Free hook
// exactly as the evaluation harness positions them.
func avroraReplay(t *testing.T, rt monitor.Runtime) monitor.Stats {
	t.Helper()
	drt := dacapo.NewRuntime()
	sink, err := dacapo.Adapt(oracleProp, rt)
	if err != nil {
		t.Fatal(err)
	}
	drt.AddSink(sink)
	drt.Heap.SetFreeHook(func(o *heap.Object) { rt.Free(o) })
	p, ok := dacapo.Get("avrora")
	if !ok {
		t.Fatal("avrora benchmark missing")
	}
	if err := p.Run(drt, oracleScale); err != nil {
		t.Fatal(err)
	}
	rt.Flush()
	stats := rt.Stats()
	rt.Close()
	return stats
}

// sliceVerdicts accumulates verdict categories per trace slice. Backends
// may interleave slices differently (shard workers, the remote reader
// goroutine) but must deliver each slice's verdicts in order, so equality
// is per-slice sequence equality.
type sliceVerdicts struct {
	mu sync.Mutex
	m  map[string][]string
}

func (sv *sliceVerdicts) handler() func(monitor.Verdict) {
	sv.m = map[string][]string{}
	return func(v monitor.Verdict) {
		key := v.Inst.Format(v.Spec.Params)
		sv.mu.Lock()
		sv.m[key] = append(sv.m[key], string(v.Cat))
		sv.mu.Unlock()
	}
}

func (sv *sliceVerdicts) diff(want *sliceVerdicts) string {
	keys := map[string]bool{}
	for k := range sv.m {
		keys[k] = true
	}
	for k := range want.m {
		keys[k] = true
	}
	var sorted []string
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if fmt.Sprint(sv.m[k]) != fmt.Sprint(want.m[k]) {
			return fmt.Sprintf("slice %s: verdicts %v, want %v", k, sv.m[k], want.m[k])
		}
	}
	return ""
}

// RunArenaOracle is the arena-vs-seed oracle matrix: it replays the
// seeded avrora trace through the backend under every GC policy and
// requires per-slice verdict sequences and all settled Figure 10 counters
// to be bit-identical to a sequential-engine reference run of the same
// trace — the semantics the pre-arena engine pinned down (and that
// internal/eval's paper.golden pins counter-exactly). PeakLive is compared
// as a lower bound only on non-sequential backends (a sharded runtime sums
// per-shard peaks).
func RunArenaOracle(t *testing.T, build PolicyFactory) {
	for _, gc := range []monitor.GCPolicy{monitor.GCNone, monitor.GCAllDead, monitor.GCCoenable} {
		t.Run(gc.String(), func(t *testing.T) {
			spec, err := props.Build(oracleProp)
			if err != nil {
				t.Fatal(err)
			}
			var wantV sliceVerdicts
			ref, err := monitor.New(spec, monitor.Options{
				GC:        gc,
				Creation:  monitor.CreateEnable,
				OnVerdict: wantV.handler(),
			})
			if err != nil {
				t.Fatal(err)
			}
			want := avroraReplay(t, ref)

			var gotV sliceVerdicts
			rt := build(t, oracleProp, gc, gotV.handler())
			got := avroraReplay(t, rt)

			if d := gotV.diff(&wantV); d != "" {
				t.Error(d)
			}
			if got.PeakLive < want.PeakLive {
				t.Errorf("PeakLive = %d, below the sequential peak %d", got.PeakLive, want.PeakLive)
			}
			want.PeakLive, got.PeakLive = 0, 0
			if got != want {
				t.Errorf("settled counters diverge:\n  got  %+v\n  want %+v", got, want)
			}
			// The trace kills objects, so the reclaiming policies must have
			// reclaimed — an oracle that never collects is not testing the
			// arena's recycling path.
			if gc != monitor.GCNone && got.Collected == 0 {
				t.Error("no monitor collected over the avrora trace")
			}
		})
	}
}
