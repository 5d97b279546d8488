package rv_test

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"rvgo"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
	"rvgo/rv"
	"rvgo/spec"
)

// ostep is one step of a backend-independent trace over object ordinals:
// an event, or (ev == "") the death of ordinal objs[0]. The same trace is
// replayed once with explicit frees on simulated-heap objects and once
// through the rv frontend with real Go objects dropped at the same points
// and collected by the real garbage collector; the paper's claim — the
// host GC is a faithful death signal — is that the two runs are
// indistinguishable.
type ostep struct {
	ev   string
	objs []int
}

// genTrace generates a random trace for a spec: per-parameter pools of
// live ordinals, events over live objects only, births, and deaths that
// permanently retire an ordinal (as real garbage collection does). Only
// ordinals that appeared in an event can die as a trace step — the death
// of a never-monitored object is invisible to every ingestion mode, so it
// would have no replayable position.
func genTrace(rng *rand.Rand, spec *monitor.Spec, n int) []ostep {
	nParams := len(spec.Params)
	pools := make([][]int, nParams)
	used := map[int]bool{}
	next := 0
	alloc := func(p int) {
		pools[p] = append(pools[p], next)
		next++
	}
	for p := 0; p < nParams; p++ {
		alloc(p)
		alloc(p)
	}
	var steps []ostep
	for len(steps) < n {
		switch r := rng.Float64(); {
		case r < 0.08: // death
			p := rng.Intn(nParams)
			if len(pools[p]) <= 1 {
				continue
			}
			i := rng.Intn(len(pools[p]))
			if !used[pools[p][i]] {
				continue
			}
			o := pools[p][i]
			pools[p] = append(pools[p][:i], pools[p][i+1:]...)
			steps = append(steps, ostep{objs: []int{o}})
		case r < 0.2: // birth
			alloc(rng.Intn(nParams))
		default:
			sym := rng.Intn(len(spec.Events))
			if spec.Events[sym].Params.Empty() {
				continue
			}
			ps := spec.Events[sym].Params.Members()
			objs := make([]int, len(ps))
			for k, p := range ps {
				objs[k] = pools[p][rng.Intn(len(pools[p]))]
				used[objs[k]] = true
			}
			steps = append(steps, ostep{ev: spec.Events[sym].Name, objs: objs})
		}
	}
	return steps
}

// result is one replay's observable outcome.
type result struct {
	verdicts map[string][]string
	stats    monitor.Stats
}

func recordVerdicts(spec *monitor.Spec, into map[string][]string) func(monitor.Verdict) {
	return func(v monitor.Verdict) {
		k := v.Inst.Format(spec.Params)
		into[k] = append(into[k], fmt.Sprintf("%d/%s", v.Sym, v.Cat))
	}
}

// backend builds one façade monitor for the oracle grid. shards == 0 is
// the sequential engine; remote != "" dials a server session. Going
// through rvgo here means every oracle cell also exercises the façade's
// backend wiring.
func backend(t testing.TB, prop string, gc monitor.GCPolicy, shards int, remote string, onV func(monitor.Verdict)) *rvgo.Monitor {
	t.Helper()
	sp, err := spec.Builtin(prop)
	if err != nil {
		t.Fatal(err)
	}
	opts := []rvgo.Option{rvgo.WithGC(gc), rvgo.WithVerdictHandler(onV)}
	switch {
	case remote != "":
		opts = append(opts, rvgo.WithRemote(remote), rvgo.WithShards(max(shards, 1)))
	case shards > 0:
		opts = append(opts, rvgo.WithShards(shards))
	}
	m, err := rvgo.New(sp, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// replayExplicit drives a trace with simulated-heap objects and explicit,
// synchronous frees: the reference run.
func replayExplicit(t testing.TB, rt *rvgo.Monitor, steps []ostep) monitor.Stats {
	t.Helper()
	h := heap.New()
	objs := map[int]*heap.Object{}
	get := func(o int) *heap.Object {
		v, ok := objs[o]
		if !ok {
			v = h.Alloc(fmt.Sprintf("o%d", o))
			objs[o] = v
		}
		return v
	}
	for _, st := range steps {
		if st.ev == "" {
			o := get(st.objs[0])
			rt.Free(o)
			h.Free(o)
			continue
		}
		vals := make([]heap.Ref, len(st.objs))
		for k, o := range st.objs {
			vals[k] = get(o)
		}
		if err := rt.EmitNamed(st.ev, vals...); err != nil {
			t.Fatal(err)
		}
	}
	rt.Flush()
	st := rt.Stats()
	rt.Close()
	return st
}

// liveObj is a real heap-allocated parameter object for the rv replay.
type liveObj struct {
	ord int
	pad [4]int64
}

//go:noinline
func newLiveObj(ord int) *liveObj { return &liveObj{ord: ord} }

// replayLive drives the same trace through the rv frontend: real objects,
// dropped at the trace's death points and collected by pinned Go GC
// cycles, with the death signals delivered at exactly those positions.
func replayLive(t testing.TB, rt *rvgo.Monitor, steps []ostep) monitor.Stats {
	t.Helper()
	s := rv.New(rt, rv.Options{
		ManualPoll: true,
		Label:      func(v any) string { return fmt.Sprintf("o%d", v.(*liveObj).ord) },
	})
	objs := map[int]*liveObj{}
	get := func(o int) *liveObj {
		v, ok := objs[o]
		if !ok {
			v = newLiveObj(o)
			objs[o] = v
		}
		return v
	}
	for _, st := range steps {
		if st.ev == "" {
			// Drop the only strong reference, pin a GC point, deliver.
			delete(objs, st.objs[0])
			delivered, ok := s.Collect(1, 20*time.Second)
			if !ok || delivered != 1 {
				t.Fatalf("death of o%d: delivered %d (settled=%v); registry %+v",
					st.objs[0], delivered, ok, s.Registry().Stats())
			}
			continue
		}
		vals := make([]any, len(st.objs))
		for k, o := range st.objs {
			vals[k] = get(o)
		}
		if err := s.Attach(st.ev, vals...); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	st := s.Stats()
	s.Close()
	return st
}

// compareRuns checks per-slice verdict sequences and settled counters.
// exactPeak excludes PeakLive for multi-shard backends (which sum
// per-shard peaks).
func compareRuns(t *testing.T, name string, want, got result, exactPeak bool) {
	t.Helper()
	a, b := want.stats, got.stats
	if !exactPeak {
		a.PeakLive, b.PeakLive = 0, 0
	}
	if a != b {
		t.Errorf("%s: settled counters diverge:\n  explicit %+v\n  live     %+v", name, a, b)
	}
	if !reflect.DeepEqual(want.verdicts, got.verdicts) {
		t.Errorf("%s: per-slice verdicts diverge:\n  explicit %v\n  live     %v",
			name, want.verdicts, got.verdicts)
	}
}

// startServer runs an in-process monitoring server for the remote cells.
func startServer(t testing.TB) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := rvgo.NewServer(rvgo.ServerOptions{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return l.Addr().String()
}

// TestLiveOracle is the acceptance oracle of the live-object frontend:
// replaying a trace with explicit frees and re-running it with real
// objects dropped at the same points (collected by the real Go GC) yield
// identical per-slice verdicts and settled GC counters, on the sequential
// engine, the sharded runtime, and remote sessions, under all three GC
// policies.
func TestLiveOracle(t *testing.T) {
	addr := startServer(t)
	gcs := []monitor.GCPolicy{monitor.GCNone, monitor.GCAllDead, monitor.GCCoenable}
	propsUnder := []string{"HasNext", "UnsafeIter", "UnsafeMapIter"}
	traceLen := 160
	seeds := 2
	if testing.Short() {
		propsUnder = propsUnder[:2]
		seeds = 1
	}
	backends := []struct {
		name      string
		shards    int
		remote    bool
		exactPeak bool
	}{
		{"seq", 0, false, true},
		{"shard4", 4, false, false},
		{"remote1", 1, true, true},
		{"remote4", 4, true, false},
	}
	for _, prop := range propsUnder {
		spec, err := props.Build(prop)
		if err != nil {
			t.Fatal(err)
		}
		for seed := 0; seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			steps := genTrace(rng, spec, traceLen)
			for _, gc := range gcs {
				for _, bk := range backends {
					name := fmt.Sprintf("%s/seed%d/gc=%s/%s", prop, seed, gc, bk.name)
					remote := ""
					if bk.remote {
						remote = addr
					}
					want := result{verdicts: map[string][]string{}}
					rtA := backend(t, prop, gc, bk.shards, remote, recordVerdicts(spec, want.verdicts))
					want.stats = replayExplicit(t, rtA, steps)

					got := result{verdicts: map[string][]string{}}
					rtB := backend(t, prop, gc, bk.shards, remote, recordVerdicts(spec, got.verdicts))
					got.stats = replayLive(t, rtB, steps)

					compareRuns(t, name, want, got, bk.exactPeak)
				}
			}
		}
	}
}
