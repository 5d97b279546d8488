// Benchmarks regenerating the paper's evaluation artifacts (one benchmark
// per table/figure, see DESIGN.md's experiment index) plus the ablations
// of the design decisions and micro-benchmarks of the hot paths.
//
// The authoritative table generator is cmd/rvbench; these benches exercise
// the same harness at a small scale so `go test -bench=.` reports the
// relative shape: RV ≤ MOP ≪ TM in time, RV below MOP in retained
// monitors and memory.
package rvgo_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"rvgo/internal/cfg"
	"rvgo/internal/dacapo"
	"rvgo/internal/ere"
	"rvgo/internal/eval"
	"rvgo/internal/heap"
	"rvgo/internal/logic"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
	"rvgo/internal/shard"
	"rvgo/internal/slicing"
	"rvgo/internal/tracematches"
	"rvgo/internal/wire"
)

const benchScale = 0.02

var benchRows = []string{"bloat", "avrora"}
var benchProps = []string{"HasNext", "UnsafeIter", "UnsafeMapIter"}

// runCell executes one monitored workload and returns the cell.
func runCell(b *testing.B, bench, prop string, sys eval.System) eval.Cell {
	b.Helper()
	cfg := eval.DefaultConfig()
	cfg.Scale = benchScale
	cfg.Timeout = time.Minute
	cell, err := eval.RunCell(bench, prop, sys, eval.Baseline{}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return cell
}

// BenchmarkFig9A regenerates the runtime-overhead grid of Figure 9(A):
// the ns/op of each sub-benchmark is the monitored runtime of the cell;
// compare against the Baseline sub-benchmark for the overhead ratio.
func BenchmarkFig9A(b *testing.B) {
	for _, bench := range benchRows {
		b.Run(bench+"/Baseline", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.RunBaseline(bench, benchScale); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, prop := range benchProps {
			for _, sys := range []eval.System{eval.SysTM, eval.SysMOP, eval.SysRV} {
				b.Run(fmt.Sprintf("%s/%s/%s", bench, prop, sys), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						runCell(b, bench, prop, sys)
					}
				})
			}
		}
	}
}

// BenchmarkFig9B regenerates the peak-memory comparison of Figure 9(B) as
// a reported metric (peakMB) per cell.
func BenchmarkFig9B(b *testing.B) {
	for _, bench := range benchRows {
		for _, prop := range benchProps {
			for _, sys := range []eval.System{eval.SysTM, eval.SysMOP, eval.SysRV} {
				b.Run(fmt.Sprintf("%s/%s/%s", bench, prop, sys), func(b *testing.B) {
					peak := 0.0
					for i := 0; i < b.N; i++ {
						if c := runCell(b, bench, prop, sys); c.PeakMemMB > peak {
							peak = c.PeakMemMB
						}
					}
					b.ReportMetric(peak, "peakMB")
				})
			}
		}
	}
}

// BenchmarkFig10 regenerates the monitoring statistics of Figure 10 as
// reported metrics: events (E), monitors created (M), flagged (FM) and
// collected (CM) per run of the RV system.
func BenchmarkFig10(b *testing.B) {
	for _, bench := range benchRows {
		for _, prop := range benchProps {
			b.Run(fmt.Sprintf("%s/%s", bench, prop), func(b *testing.B) {
				var st monitor.Stats
				for i := 0; i < b.N; i++ {
					st = runCell(b, bench, prop, eval.SysRV).Stats
				}
				b.ReportMetric(float64(st.Events), "E")
				b.ReportMetric(float64(st.Created), "M")
				b.ReportMetric(float64(st.Flagged), "FM")
				b.ReportMetric(float64(st.Collected), "CM")
			})
		}
	}
}

// BenchmarkGCPolicy is the abl-gc ablation: the same workload under no GC,
// JavaMOP's all-dead GC, and RV's coenable GC. The retained metric shows
// what the paper's Figure 10 shows — coenable GC collects what all-dead
// cannot.
func BenchmarkGCPolicy(b *testing.B) {
	for _, mode := range []struct {
		name string
		gc   monitor.GCPolicy
	}{
		{"None", monitor.GCNone},
		{"AllDead", monitor.GCAllDead},
		{"Coenable", monitor.GCCoenable},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var peak int64
			for i := 0; i < b.N; i++ {
				spec, err := props.Build("UnsafeIter")
				if err != nil {
					b.Fatal(err)
				}
				eng, err := monitor.New(spec, monitor.Options{GC: mode.gc, Creation: monitor.CreateEnable})
				if err != nil {
					b.Fatal(err)
				}
				sink, err := dacapo.Adapt("UnsafeIter", eng)
				if err != nil {
					b.Fatal(err)
				}
				rt := dacapo.NewRuntime()
				rt.AddSink(sink)
				p, _ := dacapo.Get("bloat")
				if err := p.Run(rt, benchScale); err != nil {
					b.Fatal(err)
				}
				eng.Flush()
				peak = eng.Stats().PeakLive
			}
			b.ReportMetric(float64(peak), "peakLive")
		})
	}
}

// BenchmarkCreation is the abl-create ablation: the exact Figure 5
// semantics (CreateFull, quadratic joins) against the enable-set guarded
// strategy on the same workload.
func BenchmarkCreation(b *testing.B) {
	for _, mode := range []struct {
		name string
		cs   monitor.CreationStrategy
	}{
		{"Full", monitor.CreateFull},
		{"Enable", monitor.CreateEnable},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, err := props.Build("UnsafeIter")
				if err != nil {
					b.Fatal(err)
				}
				eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: mode.cs})
				if err != nil {
					b.Fatal(err)
				}
				sink, err := dacapo.Adapt("UnsafeIter", eng)
				if err != nil {
					b.Fatal(err)
				}
				rt := dacapo.NewRuntime()
				rt.AddSink(sink)
				p, _ := dacapo.Get("avrora")
				if err := p.Run(rt, 0.01); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepInterval is the abl-lazy ablation: eager (sweep every
// event) versus lazy (default) collection — the paper's argument for
// laziness in §4.2.
func BenchmarkSweepInterval(b *testing.B) {
	for _, mode := range []struct {
		name     string
		interval int
	}{
		{"Eager1", 1},
		{"Lazy16k", 1 << 14},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, err := props.Build("UnsafeIter")
				if err != nil {
					b.Fatal(err)
				}
				eng, err := monitor.New(spec, monitor.Options{
					GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
					SweepInterval: mode.interval,
				})
				if err != nil {
					b.Fatal(err)
				}
				sink, err := dacapo.Adapt("UnsafeIter", eng)
				if err != nil {
					b.Fatal(err)
				}
				rt := dacapo.NewRuntime()
				rt.AddSink(sink)
				p, _ := dacapo.Get("bloat")
				if err := p.Run(rt, benchScale); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLiveObjects measures the live-object ingestion mode (the rv
// frontend over real Go objects, deaths delivered by pinned real-GC
// cycles): per-policy runtime of the workload, with the settled monitor
// counts as metrics. The shape to expect mirrors BenchmarkGCPolicy, now
// against the real collector: coenable leaves only the collections'
// monitors live (liveMons ≈ #collections), the other policies retain
// every dead iterator's monitor.
func BenchmarkLiveObjects(b *testing.B) {
	for _, mode := range []struct {
		name string
		gc   monitor.GCPolicy
	}{
		{"None", monitor.GCNone},
		{"AllDead", monitor.GCAllDead},
		{"Coenable", monitor.GCCoenable},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var last eval.LiveResult
			for i := 0; i < b.N; i++ {
				r, err := eval.RunLivePolicy(mode.gc, eval.LiveConfig{Scale: 0.125})
				if err != nil {
					b.Fatal(err)
				}
				if !r.Settled {
					b.Fatal("cleanups did not settle")
				}
				last = r
			}
			b.ReportMetric(float64(last.Stats.Collected), "CM")
			b.ReportMetric(float64(last.Stats.Live), "liveMons")
		})
	}
}

// --- sharded runtime scaling ---

// shardBackends is the grid compared by the scaling benchmarks: the
// sequential engine and the sharded runtime at 1/2/4/8 workers.
var shardBackends = []struct {
	name   string
	shards int // 0 = sequential monitor.Engine
}{
	{"Sequential", 0},
	{"Shards1", 1},
	{"Shards2", 2},
	{"Shards4", 4},
	{"Shards8", 8},
}

// newShardBenchBackend builds one backend for a scaling benchmark.
func newShardBenchBackend(b *testing.B, propName string, shards int) monitor.Runtime {
	b.Helper()
	spec, err := props.Build(propName)
	if err != nil {
		b.Fatal(err)
	}
	opts := monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable}
	if shards == 0 {
		eng, err := monitor.New(spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}
	rt, err := shard.New(spec, shard.Options{Options: opts, Shards: shards, BatchSize: 256})
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

// BenchmarkShardScalingHasNext measures event throughput on the synthetic
// multi-slice workload where sharding is embarrassingly parallel: HASNEXT
// slices are single-iterator, every event binds the pivot, nothing
// broadcasts. ns/op is per event; compare Sequential vs ShardsN (on a
// multi-core host, 4 shards should clear 2× the sequential throughput).
func BenchmarkShardScalingHasNext(b *testing.B) {
	for _, bk := range shardBackends {
		b.Run(bk.name, func(b *testing.B) {
			rt := newShardBenchBackend(b, "HasNext", bk.shards)
			defer rt.Close()
			h := heap.New()
			iters := make([]*heap.Object, 1024)
			for i := range iters {
				iters[i] = h.Alloc("")
			}
			spec := rt.Spec()
			hnT, _ := spec.Symbol("hasnexttrue")
			nxt, _ := spec.Symbol("next")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := iters[i&1023]
				if i&1 == 0 {
					monitor.Emit(rt, hnT, it)
				} else {
					monitor.Emit(rt, nxt, it)
				}
			}
			rt.Barrier()
		})
	}
}

// BenchmarkShardScalingUnsafeIter is the honest mixed case: next events do
// not bind the UNSAFEITER pivot (the collection) and broadcast to every
// shard, so scaling is sublinear — the benchmark quantifies the broadcast
// tax alongside the routed update/create traffic.
func BenchmarkShardScalingUnsafeIter(b *testing.B) {
	for _, bk := range shardBackends {
		b.Run(bk.name, func(b *testing.B) {
			rt := newShardBenchBackend(b, "UnsafeIter", bk.shards)
			defer rt.Close()
			h := heap.New()
			spec := rt.Spec()
			create, _ := spec.Symbol("create")
			update, _ := spec.Symbol("update")
			next, _ := spec.Symbol("next")
			const nColl = 64
			cols := make([]*heap.Object, nColl)
			its := make([]*heap.Object, nColl*16)
			for c := range cols {
				cols[c] = h.Alloc("")
			}
			for i := range its {
				its[i] = h.Alloc("")
				monitor.Emit(rt, create, cols[i%nColl], its[i])
			}
			rt.Barrier() // drain the setup events before the clock starts
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i&7 == 7 {
					monitor.Emit(rt, update, cols[i%nColl])
				} else {
					monitor.Emit(rt, next, its[i%len(its)])
				}
			}
			rt.Barrier()
		})
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkDispatchHasNext measures one single-parameter event dispatch.
// The sequential hot path is allocation-free in steady state (run with
// -benchmem; the allocs-regression CI gate pins this via eval.RunMicro).
func BenchmarkDispatchHasNext(b *testing.B) {
	b.ReportAllocs()
	spec, err := props.Build("HasNext")
	if err != nil {
		b.Fatal(err)
	}
	eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable})
	if err != nil {
		b.Fatal(err)
	}
	h := heap.New()
	iters := make([]*heap.Object, 256)
	for i := range iters {
		iters[i] = h.Alloc("")
	}
	hnT, _ := spec.Symbol("hasnexttrue")
	nxt, _ := spec.Symbol("next")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := iters[i&255]
		monitor.Emit(eng, hnT, it)
		monitor.Emit(eng, nxt, it)
	}
}

// BenchmarkDispatchUnsafeIterUpdate measures the fan-out path: an update
// event hitting a collection with many iterators. Allocation-free in
// steady state.
func BenchmarkDispatchUnsafeIterUpdate(b *testing.B) {
	b.ReportAllocs()
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		b.Fatal(err)
	}
	eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable})
	if err != nil {
		b.Fatal(err)
	}
	h := heap.New()
	c := h.Alloc("c")
	create, _ := spec.Symbol("create")
	update, _ := spec.Symbol("update")
	for i := 0; i < 64; i++ {
		monitor.Emit(eng, create, c, h.Alloc(""))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		monitor.Emit(eng, update, c)
	}
}

// BenchmarkCoenableAnalysis measures the full static analysis of a spec.
func BenchmarkCoenableAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec, err := props.UnsafeMapIter()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := spec.Analysis(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkERECompile measures derivative-DFA construction.
func BenchmarkERECompile(b *testing.B) {
	alphabet := []string{"create", "update", "next"}
	for i := 0; i < b.N; i++ {
		if _, err := ere.Compile("update* create next* update+ next", alphabet); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCFGBackends compares one monitor step of the two CFG backends
// on a 64-deep SafeLock state: the general Earley recognizer (chart
// copies) versus the SLR(1) stack machine (JavaMOP's approach) the
// property library uses when the grammar allows.
func BenchmarkCFGBackends(b *testing.B) {
	g, err := cfg.Parse("S -> S begin S end | S acquire S release | epsilon",
		[]string{"acquire", "release", "begin", "end"})
	if err != nil {
		b.Fatal(err)
	}
	slr, err := cfg.CompileSLR(g)
	if err != nil {
		b.Fatal(err)
	}
	for _, backend := range []struct {
		name string
		bp   logic.Blueprint
	}{
		{"Earley", cfg.FromGrammar(g)},
		{"SLR", slr},
	} {
		b.Run(backend.name, func(b *testing.B) {
			s := backend.bp.Start()
			for i := 0; i < 64; i++ {
				s = s.Step(0) // acquire
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					s.Step(1) // release
				} else {
					s.Step(0)
				}
			}
		})
	}
}

// BenchmarkTracematchDispatch measures the TM baseline's per-event cost on
// the same shape as BenchmarkDispatchUnsafeIterUpdate.
func BenchmarkTracematchDispatch(b *testing.B) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		b.Fatal(err)
	}
	tm, err := tracematches.New(spec, tracematches.Options{})
	if err != nil {
		b.Fatal(err)
	}
	h := heap.New()
	c := h.Alloc("c")
	for i := 0; i < 64; i++ {
		monitor.Emit(tm, 0, c, h.Alloc("")) // create
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		monitor.Emit(tm, 1, c) // update
	}
}

// BenchmarkReferenceAlgorithm measures the abstract Figure 5 algorithm
// (the oracle), for scale against the engine.
func BenchmarkReferenceAlgorithm(b *testing.B) {
	bp, err := ere.Compile("update* create next* update+ next",
		[]string{"create", "update", "next"})
	if err != nil {
		b.Fatal(err)
	}
	var _ logic.Blueprint = bp
	h := heap.New()
	c := h.Alloc("c")
	iters := make([]*heap.Object, 32)
	for i := range iters {
		iters[i] = h.Alloc("")
	}
	b.ResetTimer()
	mon := slicing.New(bp)
	for i := 0; i < b.N; i++ {
		it := iters[i&31]
		mon.Process(slicing.Event{Sym: 0, Inst: param.Empty().Bind(0, c).Bind(1, it)})
		mon.Process(slicing.Event{Sym: 2, Inst: param.Empty().Bind(1, it)})
	}
}

// --- allocation micro-benchmarks (run with -benchmem) ---
//
// These pin the allocation-free hot path: interned parameter instances,
// pooled monitors, preboxed monitor states, scratch-buffer leaf walks and
// the reused wire decode buffers. The same scenarios run inside
// eval.RunMicro, whose allocs/event section is what the CI -compare gate
// enforces; the Benchmark forms exist for benchstat comparisons across
// revisions.

// BenchmarkDispatchChurnAllocs: generations of short-lived iterators —
// create, step, die, collect, recycle. Steady state allocates only the
// workload's own heap object and the two canonical instances of the fresh
// bindings (the intern table's documented amortization boundary); the
// monitor itself comes from the free list.
func BenchmarkDispatchChurnAllocs(b *testing.B) {
	b.ReportAllocs()
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		b.Fatal(err)
	}
	eng, err := monitor.New(spec, monitor.Options{
		GC: monitor.GCCoenable, Creation: monitor.CreateEnable, SweepInterval: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := heap.New()
	c := h.Alloc("c")
	create, _ := spec.Symbol("create")
	update, _ := spec.Symbol("update")
	next, _ := spec.Symbol("next")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := h.Alloc("")
		monitor.Emit(eng, create, c, it)
		monitor.Emit(eng, next, it)
		h.Free(it)
		monitor.Emit(eng, update, c)
	}
}

// BenchmarkShardDispatchAllocs: the producer-side cost of routing one
// event into the sharded runtime (batch append; the batch pool recycles
// its boxed batches). Dispatch with a bound instance is the production
// path: the dacapo adapter builds instances directly.
func BenchmarkShardDispatchAllocs(b *testing.B) {
	b.ReportAllocs()
	rt := newShardBenchBackend(b, "HasNext", 2)
	defer rt.Close()
	h := heap.New()
	iters := make([]*heap.Object, 256)
	for i := range iters {
		iters[i] = h.Alloc("")
	}
	spec := rt.Spec()
	hnT, _ := spec.Symbol("hasnexttrue")
	nxt, _ := spec.Symbol("next")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := iters[i&255]
		if i&1 == 0 {
			rt.Dispatch(hnT, param.Empty().Bind(0, it))
		} else {
			rt.Dispatch(nxt, param.Empty().Bind(0, it))
		}
	}
	rt.Barrier()
}

// BenchmarkWireDecodeAllocs: the server's per-frame decode loop; the
// reader reuses its frame and ID buffers, so a pipelined event stream
// decodes without allocating.
func BenchmarkWireDecodeAllocs(b *testing.B) {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	const burst = 4096
	for i := 0; i < burst; i++ {
		if err := w.WriteEvent(i&3, []uint64{uint64(i & 1023), uint64(i & 255)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	var msg wire.Msg
	r := wire.NewReader(&loopBytes{data: encoded})
	for i := 0; i < b.N; i++ {
		if err := r.Next(&msg); err != nil {
			b.Fatal(err)
		}
	}
}

// loopBytes replays a byte stream forever (frames align with the buffer).
type loopBytes struct {
	data []byte
	off  int
}

func (l *loopBytes) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}
