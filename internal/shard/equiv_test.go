package shard_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"rvgo/internal/dacapo"
	"rvgo/internal/ere"
	"rvgo/internal/heap"
	"rvgo/internal/logic"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
	"rvgo/internal/shard"
)

// gstep is one step of a backend-independent random trace: an event over
// object ordinals, or (sym == -1) the death of ordinal objs[0]. Ordinals
// are mapped to fresh heap objects per replay, so the same trace can drive
// any number of backends with identical per-slice event/death sequences.
type gstep struct {
	sym  int
	objs []int
}

// genTrace generates a random trace for an arbitrary spec: per-parameter
// pools of live ordinals, random events over live objects, random object
// births and deaths. Events only ever mention live objects, as in a real
// program.
func genTrace(rng *rand.Rand, spec *monitor.Spec, n int) []gstep {
	nParams := len(spec.Params)
	pools := make([][]int, nParams)
	next := 0
	alloc := func(p int) {
		pools[p] = append(pools[p], next)
		next++
	}
	for p := 0; p < nParams; p++ {
		alloc(p)
		alloc(p)
	}
	var steps []gstep
	for len(steps) < n {
		switch r := rng.Float64(); {
		case r < 0.08: // a parameter object dies
			p := rng.Intn(nParams)
			if len(pools[p]) <= 1 {
				continue
			}
			i := rng.Intn(len(pools[p]))
			o := pools[p][i]
			pools[p] = append(pools[p][:i], pools[p][i+1:]...)
			steps = append(steps, gstep{sym: -1, objs: []int{o}})
		case r < 0.2: // a fresh object appears
			alloc(rng.Intn(nParams))
		default:
			sym := rng.Intn(len(spec.Events))
			ps := spec.Events[sym].Params.Members()
			objs := make([]int, len(ps))
			for k, p := range ps {
				objs[k] = pools[p][rng.Intn(len(pools[p]))]
			}
			steps = append(steps, gstep{sym: sym, objs: objs})
		}
	}
	return steps
}

// result is one backend's observable outcome: per-slice verdict sequences
// (keyed by the instance rendered with object labels, which are stable
// across replays) and the settled counters.
type result struct {
	verdicts map[string][]string
	stats    monitor.Stats
}

// recordVerdicts returns a verdict handler appending "sym/category" to the
// slice's sequence. The handler relies on the backend serializing verdict
// delivery (the sequential engine trivially, the sharded runtime via its
// verdict mutex).
func recordVerdicts(spec *monitor.Spec, into map[string][]string) func(monitor.Verdict) {
	return func(v monitor.Verdict) {
		k := v.Inst.Format(spec.Params)
		into[k] = append(into[k], fmt.Sprintf("%d/%s", v.Sym, v.Cat))
	}
}

// replayInto feeds a gstep trace into a backend, allocating fresh objects
// labeled prefix+ordinal and barriering before every death so the backend
// observes deaths at their trace positions. useTry exercises the
// non-blocking path with a retry loop (order-preserving).
func replayInto(t testing.TB, rt monitor.Runtime, h *heap.Heap, steps []gstep, prefix string, useTry bool) {
	t.Helper()
	spec := rt.Spec()
	objs := map[int]*heap.Object{}
	get := func(o int) *heap.Object {
		v, ok := objs[o]
		if !ok {
			v = h.Alloc(fmt.Sprintf("%so%d", prefix, o))
			objs[o] = v
		}
		return v
	}
	srt, _ := rt.(*shard.Runtime)
	for _, st := range steps {
		if st.sym < 0 {
			rt.Barrier()
			h.Free(get(st.objs[0]))
			continue
		}
		vals := make([]heap.Ref, len(st.objs))
		for k, o := range st.objs {
			vals[k] = get(o)
		}
		if useTry && srt != nil {
			theta := param.Of(spec.Events[st.sym].Params, vals...)
			for !srt.TryDispatch(st.sym, theta) {
				runtime.Gosched()
			}
		} else {
			monitor.Emit(rt, st.sym, vals...)
		}
	}
}

// execTrace runs one backend over a trace. shards == 0 selects the
// sequential engine (the oracle); otherwise the sharded runtime.
func execTrace(t testing.TB, spec *monitor.Spec, gc monitor.GCPolicy, shards, batch int, steps []gstep, useTry bool) result {
	t.Helper()
	verdicts := map[string][]string{}
	opts := monitor.Options{GC: gc, Creation: monitor.CreateEnable, OnVerdict: recordVerdicts(spec, verdicts)}
	var rt monitor.Runtime
	var err error
	if shards == 0 {
		rt, err = monitor.New(spec, opts)
	} else {
		rt, err = shard.New(spec, shard.Options{Options: opts, Shards: shards, BatchSize: batch})
	}
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, rt, heap.New(), steps, "", useTry)
	rt.Flush()
	st := rt.Stats()
	rt.Close()
	return result{verdicts: verdicts, stats: st}
}

// compareResults checks per-slice verdict sequences and the settled
// counters. PeakLive is excluded: the sharded runtime sums per-shard peaks,
// an upper bound on the sequential peak.
func compareResults(t *testing.T, name string, oracle, got result) {
	t.Helper()
	a, b := oracle.stats, got.stats
	a.PeakLive, b.PeakLive = 0, 0
	if a != b {
		t.Errorf("%s: stats diverge:\n  sequential %+v\n  sharded    %+v", name, a, b)
	}
	if !reflect.DeepEqual(oracle.verdicts, got.verdicts) {
		t.Errorf("%s: per-slice verdicts diverge:\n  sequential %v\n  sharded    %v",
			name, oracle.verdicts, got.verdicts)
	}
}

// propMixSpec exercises the propositional-event dispatch path: tick binds
// no parameters, so the router must broadcast it and every shard's ⊥-slice
// and monitors observe it.
func propMixSpec(t testing.TB) *monitor.Spec {
	t.Helper()
	alphabet := []string{"open", "tick", "close"}
	bp, err := ere.Compile("open (tick | close)* close", alphabet)
	if err != nil {
		t.Fatal(err)
	}
	s := &monitor.Spec{
		Name:   "PropMix",
		Params: []string{"f"},
		Events: []monitor.EventDef{
			{Name: "open", Params: param.SetOf(0)},
			{Name: "tick", Params: 0},
			{Name: "close", Params: param.SetOf(0)},
		},
		BP:   bp,
		Goal: []logic.Category{logic.Match},
	}
	if err := s.Analyze(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardEquivalenceAllProps is the core oracle: for every property in
// the library (plus a spec with a propositional event), random traces with
// mid-trace object deaths produce the same per-slice verdict sequences and
// the same settled counters on the sharded runtime (N ∈ {1,2,4,8}) as on
// the sequential engine, under all three GC policies.
func TestShardEquivalenceAllProps(t *testing.T) {
	gcs := []monitor.GCPolicy{monitor.GCNone, monitor.GCAllDead, monitor.GCCoenable}
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	specs := map[string]*monitor.Spec{"PropMix": propMixSpec(t)}
	names := append([]string{"PropMix"}, props.Names()...)
	for _, name := range names {
		spec, ok := specs[name]
		if !ok {
			var err error
			spec, err = props.Build(name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for seed := 0; seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			steps := genTrace(rng, spec, 300)
			for _, gc := range gcs {
				oracle := execTrace(t, spec, gc, 0, 0, steps, false)
				for _, n := range []int{1, 2, 4, 8} {
					got := execTrace(t, spec, gc, n, 4, steps, n == 4)
					compareResults(t, fmt.Sprintf("%s/seed%d/gc=%s/shards=%d", name, seed, gc, n), oracle, got)
				}
			}
		}
	}
}

// TestShardEquivalenceDaCapo replays recorded DaCapo workload traces —
// instrumentation events and object deaths in program order — through the
// property adapters into both backends and requires identical verdicts and
// counters.
func TestShardEquivalenceDaCapo(t *testing.T) {
	benches := []struct {
		name  string
		scale float64
	}{
		{"avrora", 0.02},
		{"bloat", 0.002},
		{"xalan", 1.0},
	}
	gcs := []monitor.GCPolicy{monitor.GCNone, monitor.GCAllDead, monitor.GCCoenable}
	shardCounts := []int{1, 2, 4, 8}
	if testing.Short() {
		benches = benches[:1]
		shardCounts = []int{4}
	}
	for _, b := range benches {
		p, ok := dacapo.Get(b.name)
		if !ok {
			t.Fatalf("no profile %q", b.name)
		}
		tr, err := p.Record(b.scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, propName := range props.DaCapoProperties() {
			spec, err := props.Build(propName)
			if err != nil {
				t.Fatal(err)
			}
			runOne := func(gc monitor.GCPolicy, shards int) result {
				verdicts := map[string][]string{}
				opts := monitor.Options{GC: gc, Creation: monitor.CreateEnable, OnVerdict: recordVerdicts(spec, verdicts)}
				var rt monitor.Runtime
				var err error
				if shards == 0 {
					rt, err = monitor.New(spec, opts)
				} else {
					rt, err = shard.New(spec, shard.Options{Options: opts, Shards: shards})
				}
				if err != nil {
					t.Fatal(err)
				}
				sink, err := dacapo.Adapt(propName, rt)
				if err != nil {
					t.Fatal(err)
				}
				tr.Replay(heap.New(), sink, rt.Barrier)
				rt.Flush()
				st := rt.Stats()
				rt.Close()
				return result{verdicts: verdicts, stats: st}
			}
			for _, gc := range gcs {
				oracle := runOne(gc, 0)
				if oracle.stats.Events == 0 {
					t.Fatalf("%s/%s: trace drove no events", b.name, propName)
				}
				for _, n := range shardCounts {
					got := runOne(gc, n)
					compareResults(t, fmt.Sprintf("%s/%s/gc=%s/shards=%d", b.name, propName, gc, n), oracle, got)
				}
			}
		}
	}
}

// TestShardParallelProducers is the randomized multi-goroutine dispatch
// oracle (run under -race in CI): several producers with disjoint object
// families feed one sharded runtime concurrently, mixing Dispatch and
// TryDispatch. Slices of disjoint families are independent, so the merged
// outcome must equal the sequential engine processing the producers' traces
// back to back.
func TestShardParallelProducers(t *testing.T) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	const producers = 4
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for seed := 0; seed < rounds; seed++ {
		traces := make([][]gstep, producers)
		for g := range traces {
			rng := rand.New(rand.NewSource(int64(1000*seed + g)))
			traces[g] = genTrace(rng, spec, 400)
		}

		// Sequential oracle: the concatenation, families labeled apart.
		oracleVerdicts := map[string][]string{}
		eng, err := monitor.New(spec, monitor.Options{
			GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
			OnVerdict: recordVerdicts(spec, oracleVerdicts),
		})
		if err != nil {
			t.Fatal(err)
		}
		oh := heap.New()
		for g, steps := range traces {
			replayInto(t, eng, oh, steps, fmt.Sprintf("g%d.", g), false)
		}
		eng.Flush()
		oracle := result{verdicts: oracleVerdicts, stats: eng.Stats()}

		// Concurrent run: one runtime, one producer goroutine per family.
		gotVerdicts := map[string][]string{}
		rt, err := shard.New(spec, shard.Options{
			Options: monitor.Options{
				GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
				OnVerdict: recordVerdicts(spec, gotVerdicts),
			},
			Shards:    4,
			BatchSize: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		sh := heap.New()
		var wg sync.WaitGroup
		for g, steps := range traces {
			wg.Add(1)
			go func(g int, steps []gstep) {
				defer wg.Done()
				replayInto(t, rt, sh, steps, fmt.Sprintf("g%d.", g), g%2 == 1)
			}(g, steps)
		}
		wg.Wait()
		rt.Flush()
		got := result{verdicts: gotVerdicts, stats: rt.Stats()}
		rt.Close()
		compareResults(t, fmt.Sprintf("parallel/seed%d", seed), oracle, got)
	}
}
