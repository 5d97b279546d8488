package remote_test

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rvgo/internal/conformance"
	"rvgo/internal/dacapo"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
	"rvgo/internal/remote"
	"rvgo/internal/server"
	"rvgo/internal/shard"
)

// startServer runs a monitoring server on an ephemeral localhost port and
// returns its address. The server is drained when the test ends.
func startServer(t testing.TB, opts server.Options) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(opts)
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

// TestClientConformance runs the backend-independent Runtime suite over
// the network, once against a sequential session and once against a
// sharded one.
func TestClientConformance(t *testing.T) {
	addr := startServer(t, server.Options{})
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			conformance.RunEmitNamed(t, func(t *testing.T, prop string, onVerdict func(monitor.Verdict)) monitor.Runtime {
				cl, err := remote.Dial(addr, remote.Options{
					Prop:      prop,
					GC:        monitor.GCCoenable,
					Creation:  monitor.CreateEnable,
					Shards:    shards,
					OnVerdict: onVerdict,
				})
				if err != nil {
					t.Fatal(err)
				}
				return cl
			})
		})
	}
}

// TestClientFreeConformance runs the death-positioning suite (Free and
// FreeAsync) over the network: protocol-level frees must position deaths
// exactly as the in-process backends do.
func TestClientFreeConformance(t *testing.T) {
	addr := startServer(t, server.Options{})
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			conformance.RunFree(t, func(t *testing.T, prop string, onVerdict func(monitor.Verdict)) monitor.Runtime {
				cl, err := remote.Dial(addr, remote.Options{
					Prop:      prop,
					GC:        monitor.GCCoenable,
					Creation:  monitor.CreateEnable,
					Shards:    shards,
					OnVerdict: onVerdict,
				})
				if err != nil {
					t.Fatal(err)
				}
				return cl
			})
		})
	}
}

// TestClientArenaOracle replays the avrora trace over the network under
// every GC policy, against sequential and 4-shard server sessions, and
// requires per-slice verdicts and settled counters bit-identical to an
// in-process sequential-engine reference.
func TestClientArenaOracle(t *testing.T) {
	addr := startServer(t, server.Options{})
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			conformance.RunArenaOracle(t, func(t *testing.T, prop string, gc monitor.GCPolicy, onVerdict func(monitor.Verdict)) monitor.Runtime {
				cl, err := remote.Dial(addr, remote.Options{
					Prop:      prop,
					GC:        gc,
					Creation:  monitor.CreateEnable,
					Shards:    shards,
					OnVerdict: onVerdict,
				})
				if err != nil {
					t.Fatal(err)
				}
				return cl
			})
		})
	}
}

// TestClientAvoidanceOracle replays the avrora trace over the network
// under every GC policy × avoidance mode (the mode travels in the Hello)
// and holds verdicts and settled counters against the unguarded
// sequential reference.
func TestClientAvoidanceOracle(t *testing.T) {
	addr := startServer(t, server.Options{})
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			conformance.RunAvoidanceOracle(t, func(t *testing.T, prop string, gc monitor.GCPolicy, avoid monitor.AvoidMode, onVerdict func(monitor.Verdict)) monitor.Runtime {
				cl, err := remote.Dial(addr, remote.Options{
					Prop:      prop,
					GC:        gc,
					Creation:  monitor.CreateEnable,
					Avoid:     avoid,
					Shards:    shards,
					OnVerdict: onVerdict,
				})
				if err != nil {
					t.Fatal(err)
				}
				return cl
			})
		})
	}
}

// gstep is one step of a backend-independent random trace: an event over
// object ordinals, or (sym == -1) the death of objs[0].
type gstep struct {
	sym  int
	objs []int
}

// genTrace generates a random trace for a spec: per-parameter pools of
// live ordinals, random events over live objects, random births and
// deaths (same generator shape as the internal/shard oracle).
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
		case r < 0.08:
			p := rng.Intn(nParams)
			if len(pools[p]) <= 1 {
				continue
			}
			i := rng.Intn(len(pools[p]))
			o := pools[p][i]
			pools[p] = append(pools[p][:i], pools[p][i+1:]...)
			steps = append(steps, gstep{sym: -1, objs: []int{o}})
		case r < 0.2:
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

// result is one backend's observable outcome.
type result struct {
	verdicts map[string][]string
	stats    monitor.Stats
}

func recordVerdicts(spec *monitor.Spec, mu *sync.Mutex, into map[string][]string) func(monitor.Verdict) {
	return func(v monitor.Verdict) {
		k := v.Inst.Format(spec.Params)
		if mu != nil {
			mu.Lock()
			defer mu.Unlock()
		}
		into[k] = append(into[k], fmt.Sprintf("%d/%s", v.Sym, v.Cat))
	}
}

// freer is the death-forwarding surface of the remote remote.
type freer interface {
	Free(refs ...heap.Ref)
}

// replayInto feeds a gstep trace into any backend. Local backends get a
// Barrier before each death; the remote client gets an explicit Free (the
// server barriers on its side).
func replayInto(t testing.TB, rt monitor.Runtime, h *heap.Heap, steps []gstep, prefix string) {
	t.Helper()
	objs := map[int]*heap.Object{}
	get := func(o int) *heap.Object {
		v, ok := objs[o]
		if !ok {
			v = h.Alloc(fmt.Sprintf("%so%d", prefix, o))
			objs[o] = v
		}
		return v
	}
	f, isRemote := rt.(freer)
	for _, st := range steps {
		if st.sym < 0 {
			o := get(st.objs[0])
			if isRemote {
				f.Free(o)
			} else {
				rt.Barrier()
			}
			h.Free(o)
			continue
		}
		vals := make([]heap.Ref, len(st.objs))
		for k, o := range st.objs {
			vals[k] = get(o)
		}
		monitor.Emit(rt, st.sym, vals...)
	}
}

// execTrace runs one backend over a trace. kind: "seq", "shard", or
// "remote"; shards applies to the latter two.
func execTrace(t testing.TB, addr string, spec *monitor.Spec, prop string, gc monitor.GCPolicy, kind string, shards int, steps []gstep) result {
	t.Helper()
	verdicts := map[string][]string{}
	var rt monitor.Runtime
	var err error
	switch kind {
	case "seq":
		rt, err = monitor.New(spec, monitor.Options{
			GC: gc, Creation: monitor.CreateEnable,
			OnVerdict: recordVerdicts(spec, nil, verdicts),
		})
	case "shard":
		rt, err = shard.New(spec, shard.Options{
			Options: monitor.Options{
				GC: gc, Creation: monitor.CreateEnable,
				OnVerdict: recordVerdicts(spec, nil, verdicts),
			},
			Shards: shards,
		})
	case "remote":
		rt, err = remote.Dial(addr, remote.Options{
			Prop: prop, GC: gc, Creation: monitor.CreateEnable, Shards: shards,
			OnVerdict: recordVerdicts(spec, nil, verdicts),
		})
	default:
		t.Fatalf("unknown backend kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, rt, heap.New(), steps, "")
	rt.Flush()
	st := rt.Stats()
	rt.Close()
	if cl, ok := rt.(*remote.Client); ok {
		if err := cl.Err(); err != nil {
			t.Fatalf("remote session error: %v", err)
		}
	}
	return result{verdicts: verdicts, stats: st}
}

// compareResults checks per-slice verdict sequences and settled counters.
// PeakLive is compared only when exact is set (sharded backends sum
// per-shard peaks, an upper bound).
func compareResults(t *testing.T, name string, oracle, got result, exact bool) {
	t.Helper()
	a, b := oracle.stats, got.stats
	if !exact {
		a.PeakLive, b.PeakLive = 0, 0
	}
	if a != b {
		t.Errorf("%s: stats diverge:\n  oracle %+v\n  got    %+v", name, a, b)
	}
	if !reflect.DeepEqual(oracle.verdicts, got.verdicts) {
		t.Errorf("%s: per-slice verdicts diverge:\n  oracle %v\n  got    %v", name, oracle.verdicts, got.verdicts)
	}
}

// TestRemoteEquivalenceRandom is the network oracle: identical random
// traces through the sequential engine, the sharded runtime, and remote
// sessions (sequential and sharded server backends) must produce equal
// per-slice verdict sequences and settled counters, under all three GC
// policies. A remote session over a 1-shard backend must match the
// sequential engine exactly, PeakLive included.
func TestRemoteEquivalenceRandom(t *testing.T) {
	addr := startServer(t, server.Options{})
	gcs := []monitor.GCPolicy{monitor.GCNone, monitor.GCAllDead, monitor.GCCoenable}
	propNames := []string{"HasNext", "UnsafeIter", "UnsafeMapIter"}
	seeds := 3
	if testing.Short() {
		seeds = 1
		propNames = propNames[:2]
	}
	for _, prop := range propNames {
		spec, err := props.Build(prop)
		if err != nil {
			t.Fatal(err)
		}
		for seed := 0; seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			steps := genTrace(rng, spec, 300)
			for _, gc := range gcs {
				name := fmt.Sprintf("%s/seed%d/gc=%s", prop, seed, gc)
				oracle := execTrace(t, addr, spec, prop, gc, "seq", 0, steps)
				if oracle.stats.Events == 0 {
					t.Fatalf("%s: trace drove no events", name)
				}
				sharded := execTrace(t, addr, spec, prop, gc, "shard", 4, steps)
				compareResults(t, name+"/shard4", oracle, sharded, false)
				remote1 := execTrace(t, addr, spec, prop, gc, "remote", 1, steps)
				compareResults(t, name+"/remote1", oracle, remote1, true)
				remote4 := execTrace(t, addr, spec, prop, gc, "remote", 4, steps)
				compareResults(t, name+"/remote4", oracle, remote4, false)
			}
		}
	}
}

// TestRemoteEquivalenceDaCapo replays recorded DaCapo workload traces —
// instrumentation events and object deaths in program order — through the
// property adapters into the sequential engine and a remote session, and
// requires identical verdicts and counters.
func TestRemoteEquivalenceDaCapo(t *testing.T) {
	addr := startServer(t, server.Options{})
	benches := []struct {
		name  string
		scale float64
	}{{"avrora", 0.02}, {"xalan", 1.0}}
	propNames := props.DaCapoProperties()
	if testing.Short() {
		benches = benches[:1]
		propNames = propNames[:2]
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
		for _, propName := range propNames {
			spec, err := props.Build(propName)
			if err != nil {
				t.Fatal(err)
			}
			runOne := func(overWire bool, shards int) result {
				verdicts := map[string][]string{}
				var rt monitor.Runtime
				var err error
				if overWire {
					rt, err = remote.Dial(addr, remote.Options{
						Prop: propName, GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
						Shards: shards, OnVerdict: recordVerdicts(spec, nil, verdicts),
					})
				} else {
					rt, err = monitor.New(spec, monitor.Options{
						GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
						OnVerdict: recordVerdicts(spec, nil, verdicts),
					})
				}
				if err != nil {
					t.Fatal(err)
				}
				sink, err := dacapo.Adapt(propName, rt)
				if err != nil {
					t.Fatal(err)
				}
				h := heap.New()
				if f, ok := rt.(freer); ok {
					h.SetFreeHook(func(o *heap.Object) { f.Free(o) })
					tr.Replay(h, sink, nil)
				} else {
					tr.Replay(h, sink, rt.Barrier)
				}
				rt.Flush()
				st := rt.Stats()
				rt.Close()
				return result{verdicts: verdicts, stats: st}
			}
			oracle := runOne(false, 0)
			if oracle.stats.Events == 0 {
				t.Fatalf("%s/%s: trace drove no events", b.name, propName)
			}
			got1 := runOne(true, 1)
			compareResults(t, fmt.Sprintf("%s/%s/remote1", b.name, propName), oracle, got1, true)
			got4 := runOne(true, 4)
			compareResults(t, fmt.Sprintf("%s/%s/remote4", b.name, propName), oracle, got4, false)
		}
	}
}

// TestConcurrentSessions drives many concurrent sessions against one
// server (run under -race in CI): every session must independently match
// the sequential oracle for its own trace.
func TestConcurrentSessions(t *testing.T) {
	addr := startServer(t, server.Options{})
	const sessions = 10
	propNames := []string{"HasNext", "UnsafeIter", "UnsafeMapIter", "UnsafeSyncColl", "UnsafeSyncMap"}
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prop := propNames[g%len(propNames)]
			spec, err := props.Build(prop)
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(int64(7000 + g)))
			steps := genTrace(rng, spec, 500)
			gc := []monitor.GCPolicy{monitor.GCCoenable, monitor.GCAllDead}[g%2]
			shards := []int{1, 4}[g%2]
			oracle := execTrace(t, addr, spec, prop, gc, "seq", 0, steps)
			got := execTrace(t, addr, spec, prop, gc, "remote", shards, steps)
			compareResults(t, fmt.Sprintf("session%d/%s", g, prop), oracle, got, shards == 1)
		}(g)
	}
	wg.Wait()
}

// TestShardedVerdictStream hammers one sharded session with a
// verdict-dense stream and no barriers, so server-side shard workers
// reconstruct verdict IDs concurrently with the session goroutine
// ingesting events — the access pattern that races on the session's ID
// tables unless they are locked (run under -race in CI).
func TestShardedVerdictStream(t *testing.T) {
	addr := startServer(t, server.Options{})
	var verdicts int
	var vmu sync.Mutex
	cl, err := remote.Dial(addr, remote.Options{
		Prop: "HasNext", GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
		Shards: 4,
		OnVerdict: func(monitor.Verdict) {
			vmu.Lock()
			verdicts++
			vmu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	next, _ := cl.Spec().Symbol("next")
	hnT, _ := cl.Spec().Symbol("hasnexttrue")
	const iters = 5000
	for k := 0; k < iters; k++ {
		it := h.Alloc("i")
		monitor.Emit(cl, hnT, it)
		monitor.Emit(cl, next, it)
		monitor.Emit(cl, next, it) // violation: verdict fires on a shard worker
		cl.Free(it)
	}
	cl.Flush()
	st := cl.Stats()
	cl.Close()
	if err := cl.Err(); err != nil {
		t.Fatal(err)
	}
	if st.Events != 3*iters || st.GoalVerdicts != iters {
		t.Fatalf("stats = %+v, want Events=%d GoalVerdicts=%d", st, 3*iters, iters)
	}
	vmu.Lock()
	defer vmu.Unlock()
	if verdicts != iters {
		t.Fatalf("delivered %d verdicts, want %d", verdicts, iters)
	}
}

// TestSpecSourceSession: a session negotiated from .rv source (compiled
// independently on both sides) monitors correctly.
func TestSpecSourceSession(t *testing.T) {
	addr := startServer(t, server.Options{})
	src := `HasNextSrc(Iterator i) {
    event hasnexttrue(i)
    event hasnextfalse(i)
    event next(i)

    fsm:
    unknown [
        hasnexttrue -> more
        hasnextfalse -> none
        next -> error
    ]
    more [
        hasnexttrue -> more
        hasnextfalse -> none
        next -> unknown
    ]
    none [
        hasnexttrue -> more
        hasnextfalse -> none
        next -> error
    ]
    error [ ]
    @error { print "violation" }
}`
	var got []string
	cl, err := remote.Dial(addr, remote.Options{
		SpecSource: src,
		GC:         monitor.GCCoenable,
		Creation:   monitor.CreateEnable,
		OnVerdict: func(v monitor.Verdict) {
			got = append(got, string(v.Cat)+"@"+v.Inst.Format(v.Spec.Params))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h := heap.New()
	i := h.Alloc("it")
	for _, ev := range []string{"hasnexttrue", "next", "next"} {
		if err := monitor.EmitNamed(cl, ev, i); err != nil {
			t.Fatal(err)
		}
	}
	cl.Barrier()
	if len(got) != 1 || !strings.Contains(got[0], "error") {
		t.Fatalf("verdicts = %v, want one error verdict", got)
	}
}

// TestDialErrors: server-side refusals (unknown property, bad shard
// count) surface as Dial errors carrying the server's message.
func TestDialErrors(t *testing.T) {
	addr := startServer(t, server.Options{MaxShards: 4})
	if _, err := remote.Dial(addr, remote.Options{Prop: "NoSuchProp"}); err == nil {
		t.Fatal("Dial with an unknown property succeeded")
	} else if !strings.Contains(err.Error(), "NoSuchProp") {
		t.Errorf("error %q does not name the property", err)
	}
	if _, err := remote.Dial(addr, remote.Options{Prop: "HasNext", Shards: 64}); err == nil {
		t.Fatal("Dial with an excessive shard count succeeded")
	} else if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("error %q does not mention the shard range", err)
	}
	// Client-side option validation.
	if _, err := remote.Dial(addr, remote.Options{}); err == nil {
		t.Fatal("Dial with no spec reference succeeded")
	}
}

// TestServerDrain: Shutdown stops accepting but lets an active session
// finish its stream and get its final stats.
func TestServerDrain(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	cl, err := remote.Dial(l.Addr().String(), remote.Options{
		Prop: "HasNext", GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	it := h.Alloc("i")
	if err := monitor.EmitNamed(cl, "hasnexttrue", it); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan struct{})
	go func() {
		srv.Shutdown(10 * time.Second)
		close(shutdownDone)
	}()
	// New connections must be refused while the old session still works.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := remote.Dial(l.Addr().String(), remote.Options{Prop: "HasNext"}); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server kept accepting sessions after Shutdown began")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := monitor.EmitNamed(cl, "next", it); err != nil {
		t.Fatal(err)
	}
	cl.Flush()
	st := cl.Stats()
	if st.Events != 2 {
		t.Fatalf("draining session stats = %+v, want Events=2", st)
	}
	cl.Close()
	if err := cl.Err(); err != nil {
		t.Fatalf("session error during drain: %v", err)
	}
	<-shutdownDone
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := srv.Stats().Events; got != 2 {
		t.Fatalf("server aggregate events = %d, want 2", got)
	}
}
