package rvgo_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rvgo"
	"rvgo/internal/conformance"
	"rvgo/internal/monitor"
	"rvgo/spec"
)

// startFacadeServer runs an in-process monitoring server for the remote
// façade cells.
func startFacadeServer(t testing.TB) string {
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

// facadeBackend is rvgo.Monitor, under the options opts returns, as a
// harness backend.
func facadeBackend(name string, lanes int, opts func() []rvgo.Option) conformance.Backend {
	return conformance.Backend{Name: name, Lanes: lanes, Lazy: name == "seq", Open: func(t *testing.T, sp *monitor.Spec, m conformance.Mode, onVerdict func(monitor.Verdict)) monitor.Runtime {
		prop, err := spec.Builtin(sp.Name)
		if err != nil {
			t.Fatal(err)
		}
		mon, err := rvgo.New(prop, append(opts(), rvgo.WithGC(m.GC), rvgo.WithVerdictHandler(onVerdict))...)
		if err != nil {
			t.Fatal(err)
		}
		return runtimeOf{mon}
	}}
}

// runtimeOf adapts a Monitor to monitor.Runtime, whose Free takes one ref
// where the façade's takes any number.
type runtimeOf struct{ *rvgo.Monitor }

func (r runtimeOf) Free(ref rvgo.Ref) { r.Monitor.Free(ref) }

// facadeBackends are the façade's four backend selections: sequential,
// four shards, a session on the server at addr (one lane, the server's
// default) and a cluster of the servers at addr and addr2 (16 slots).
func facadeBackends(addr, addr2 string) []conformance.Backend {
	return []conformance.Backend{
		facadeBackend("seq", 1, func() []rvgo.Option { return nil }),
		facadeBackend("shard4", 4, func() []rvgo.Option { return []rvgo.Option{rvgo.WithShards(4)} }),
		facadeBackend("remote", 1, func() []rvgo.Option { return []rvgo.Option{rvgo.WithRemote(addr)} }),
		facadeBackend("cluster2", 16, func() []rvgo.Option { return []rvgo.Option{rvgo.WithCluster(addr, addr2)} }),
	}
}

// facadeSuites runs the EmitNamed suite and the death-positioning streams
// on b under gc.
func facadeSuites(t *testing.T, b conformance.Backend, gc monitor.GCPolicy) {
	m := conformance.Mode{GC: gc}
	t.Run("EmitNamed", func(t *testing.T) { conformance.RunEmitNamed(t, b, m) })
	t.Run("RunFree", func(t *testing.T) {
		for _, s := range conformance.FreeStreams(t) {
			t.Run(s.Name, func(t *testing.T) {
				conformance.Diff(t, s, []conformance.Backend{b}, []conformance.Mode{m})
			})
		}
	})
}

// TestFacadeConformance runs the backend-independent Runtime suites
// against rvgo.Monitor for all four backends × all three GC policies:
// the façade must preserve the oracle behavior of the backends it wraps —
// EmitNamed's error contract, death positioning, verdict equality with a
// sequential reference — no matter which options selected it.
func TestFacadeConformance(t *testing.T) {
	for _, b := range facadeBackends(startFacadeServer(t), startFacadeServer(t)) {
		for _, gc := range []rvgo.GCPolicy{rvgo.GCCoenable, rvgo.GCAllDead, rvgo.GCNone} {
			t.Run(fmt.Sprintf("%s/gc=%s", b.Name, gc), func(t *testing.T) { facadeSuites(t, b, gc) })
		}
	}
}

// TestShardVerdictHandlerContract exercises the documented concurrency
// contract of WithVerdictHandler on the sharded backend with the race
// detector watching: handler invocations are serialized across the four
// workers, so a handler may mutate unlocked state, and that state is
// readable by the driving goroutine after a Flush (and again after
// Close), which order every handler call for already-dispatched events
// before their return.
func TestShardVerdictHandlerContract(t *testing.T) {
	sp, err := spec.Builtin("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately unsynchronized handler state.
	byInst := map[string]int{}
	var order []string
	m, err := rvgo.New(sp,
		rvgo.WithShards(4),
		rvgo.WithVerdictHandler(func(v rvgo.Verdict) {
			k := v.Inst.Format(sp.Params())
			byInst[k]++
			order = append(order, k)
		}))
	if err != nil {
		t.Fatal(err)
	}
	h := rvgo.NewHeap()
	const producers, rounds = 4, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := h.Alloc(fmt.Sprintf("c%d", p))
			for r := 0; r < rounds; r++ {
				it := h.Alloc(fmt.Sprintf("i%d_%d", p, r))
				// create, update, next: one UNSAFEITER match per round.
				for _, step := range []struct {
					ev   string
					vals []rvgo.Ref
				}{{"create", []rvgo.Ref{c, it}}, {"update", []rvgo.Ref{c}}, {"next", []rvgo.Ref{it}}} {
					if err := m.EmitNamed(step.ev, step.vals...); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	m.Flush()
	if got, want := len(order), producers*rounds; got != want {
		t.Errorf("handler invocations after Flush = %d, want %d", got, want)
	}
	for k, n := range byInst {
		if n != 1 {
			t.Errorf("slice %s reported %d times, want 1", k, n)
		}
	}
	m.Close()
	if got, want := len(byInst), producers*rounds; got != want {
		t.Errorf("distinct verdict slices = %d, want %d", got, want)
	}
}

// TestVerdictStream covers WithVerdictStream: verdicts arrive on the
// channel (after the handler), and Close closes it so range terminates.
func TestVerdictStream(t *testing.T) {
	sp, err := spec.Builtin("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	handled := 0
	m, err := rvgo.New(sp,
		rvgo.WithVerdictStream(8),
		rvgo.WithVerdictHandler(func(rvgo.Verdict) { handled++ }))
	if err != nil {
		t.Fatal(err)
	}
	h := rvgo.NewHeap()
	it := h.Alloc("it")
	next := m.MustEvent("next")
	next.Emit(it) // next with no hasnext: error state
	m.Flush()
	m.Close()
	var got []string
	for v := range m.Verdicts() {
		got = append(got, string(v.Cat)+"@"+v.Inst.Format(sp.Params()))
	}
	if len(got) != 1 || got[0] != "error@<i=it>" || handled != 1 {
		t.Errorf("stream = %v (handler saw %d), want one error@<i=it>", got, handled)
	}
	if m.Verdicts() == nil {
		t.Error("Verdicts() = nil after WithVerdictStream")
	}
}

// TestProfileGuardsWorkflow runs README's profile → guards workflow through
// the façade on a HasNext stream with two creation sites: iterators born at
// hasnexttrue are used safely, iterators born at next fail at once. An
// unguarded run collects a creation profile, which guards the first site
// only; a run enforcing the guards must raise exactly the unguarded run's
// verdicts, with Created + Avoided equal to the unguarded Created.
func TestProfileGuardsWorkflow(t *testing.T) {
	sp, err := spec.Builtin("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...rvgo.Option) (rvgo.Stats, []string) {
		var verdicts []string
		m, err := rvgo.New(sp, append(opts, rvgo.WithVerdictHandler(func(v rvgo.Verdict) {
			verdicts = append(verdicts, string(v.Cat)+"@"+v.Inst.Format(sp.Params()))
		}))...)
		if err != nil {
			t.Fatal(err)
		}
		hnT, hnF, next := m.MustEvent("hasnexttrue"), m.MustEvent("hasnextfalse"), m.MustEvent("next")
		h := rvgo.NewHeap()
		for k := 0; k < 50; k++ {
			safe, bad := h.Alloc(fmt.Sprintf("safe%d", k)), h.Alloc(fmt.Sprintf("bad%d", k))
			hnT.Emit(safe)
			next.Emit(safe)
			hnF.Emit(safe)
			next.Emit(bad)
			m.Free(safe, bad)
			h.Free(safe)
			h.Free(bad)
		}
		m.Flush()
		m.Close()
		return m.Stats(), verdicts
	}
	prof := rvgo.NewCreationProfile(sp)
	plain, want := run(rvgo.WithCreationProfile(prof))
	if len(want) != 50 || prof.GuardedSites() != 1 {
		t.Fatalf("unguarded run: %d verdicts, %d guarded sites; want 50 and 1", len(want), prof.GuardedSites())
	}
	guarded, got := run(rvgo.WithAvoidance(rvgo.AvoidEnforce), rvgo.WithProfileGuards(prof.Guards()))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("guarded verdicts %v, want the unguarded %v", got, want)
	}
	if guarded.Avoided != 50 || guarded.Created+guarded.Avoided != plain.Created {
		t.Errorf("guarded Created %d + Avoided %d, want unguarded Created %d with the 50 safe iterators avoided",
			guarded.Created, guarded.Avoided, plain.Created)
	}
}

// TestOptionValidation pins the construction-time error contract: bad
// options fail at New with a message naming the option, never later.
func TestOptionValidation(t *testing.T) {
	builtin, err := spec.Builtin("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	built, err := spec.New("P").Params("x").Event("e", "x").ERE("e").Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		sp   *spec.Spec
		opts []rvgo.Option
		want string
	}{
		{"ZeroShards", builtin, []rvgo.Option{rvgo.WithShards(0)}, "WithShards"},
		{"EmptyRemote", builtin, []rvgo.Option{rvgo.WithRemote("")}, "WithRemote"},
		{"BadGC", builtin, []rvgo.Option{rvgo.WithGC(rvgo.GCPolicy(9))}, "GC policy"},
		{"RemoteNeedsProvenance", built, []rvgo.Option{rvgo.WithRemote("127.0.0.1:1")}, "provenance"},
		{"EmptyCluster", builtin, []rvgo.Option{rvgo.WithCluster()}, "WithCluster"},
		{"ClusterEmptyAddr", builtin, []rvgo.Option{rvgo.WithCluster("a:1", "")}, "WithCluster"},
		{"ClusterAndRemote", builtin, []rvgo.Option{rvgo.WithCluster("a:1"), rvgo.WithRemote("b:1")}, "mutually exclusive"},
		{"ClusterShards", builtin, []rvgo.Option{rvgo.WithCluster("a:1"), rvgo.WithShards(2)}, "WithShards"},
		{"ClusterNeedsProvenance", built, []rvgo.Option{rvgo.WithCluster("127.0.0.1:1")}, "provenance"},
		{"ProfileGuardsRemote", builtin, []rvgo.Option{rvgo.WithRemote("127.0.0.1:1"), rvgo.WithProfileGuards([]bool{true, false, false})}, "local backend"},
		{"ProfileSharded", builtin, []rvgo.Option{rvgo.WithShards(4), rvgo.WithCreationProfile(rvgo.NewCreationProfile(builtin))}, "creation profiling requires"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := rvgo.New(tc.sp, tc.opts...)
			if err == nil {
				m.Close()
				t.Fatalf("New succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
	if _, err := rvgo.New(nil); err == nil {
		t.Error("New(nil) succeeded")
	}
}

// TestBuilderMatchesBuiltin replays one trace against the fluent-built
// HASNEXT and the built-in library one: identical verdicts and counters —
// the builder is a front end to the same compiled property.
func TestBuilderMatchesBuiltin(t *testing.T) {
	fluent, err := spec.New("HasNext").
		Params("i").
		Event("hasnexttrue", "i").
		Event("hasnextfalse", "i").
		Event("next", "i").
		FSM(
			spec.State("unknown", "hasnexttrue", "more", "hasnextfalse", "none", "next", "error"),
			spec.State("more", "hasnexttrue", "more", "hasnextfalse", "none", "next", "unknown"),
			spec.State("none", "hasnexttrue", "more", "hasnextfalse", "none", "next", "error"),
			spec.State("error"),
		).
		Goal("error").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	builtin, err := spec.Builtin("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	run := func(sp *spec.Spec) (rvgo.Stats, []string) {
		var verdicts []string
		m, err := rvgo.New(sp, rvgo.WithVerdictHandler(func(v rvgo.Verdict) {
			verdicts = append(verdicts, string(v.Cat)+"@"+v.Inst.Format(sp.Params()))
		}))
		if err != nil {
			t.Fatal(err)
		}
		h := rvgo.NewHeap()
		hnT, hnF, next := m.MustEvent("hasnexttrue"), m.MustEvent("hasnextfalse"), m.MustEvent("next")
		a, b := h.Alloc("a"), h.Alloc("b")
		hnT.Emit(a)
		next.Emit(a)
		hnF.Emit(a)
		next.Emit(a) // violation on a
		hnT.Emit(b)
		next.Emit(b)
		h.Free(a)
		h.Free(b)
		m.Flush()
		st := m.Stats()
		m.Close()
		return st, verdicts
	}
	stF, vF := run(fluent)
	stB, vB := run(builtin)
	if stF != stB {
		t.Errorf("stats diverge:\n  fluent  %+v\n  builtin %+v", stF, stB)
	}
	if fmt.Sprint(vF) != fmt.Sprint(vB) || len(vF) != 1 {
		t.Errorf("verdicts diverge: fluent %v, builtin %v", vF, vB)
	}
}

// TestBuilderErrors pins the build-time diagnostics of the fluent API.
func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		b    *spec.Builder
		want string
	}{
		{"NoLogic", spec.New("P").Params("x").Event("e", "x"), "no logic block"},
		{"TwoLogics", spec.New("P").Params("x").Event("e", "x").ERE("e").LTL("[] e"), "both"},
		{"UndeclaredParam", spec.New("P").Params("x").Event("e", "y").ERE("e"), "undeclared parameter"},
		{"DupEvent", spec.New("P").Params("x").Event("e", "x").Event("e", "x").ERE("e"), "twice"},
		{"FSMNoGoal", spec.New("P").Params("x").Event("e", "x").FSM(spec.State("s", "e", "s")), "Goal"},
		{"OddStatePairs", spec.New("P").Params("x").Event("e", "x").FSM(spec.State("s", "e")).Goal("s"), "pairs"},
		{"BadERE", spec.New("P").Params("x").Event("e", "x").ERE("(("), "ere block"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.b.Build()
			if err == nil {
				t.Fatalf("Build succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestEmitterContract pins Event/Emitter behavior: resolution errors for
// unknown events, arity panics at the call site, and introspection.
func TestEmitterContract(t *testing.T) {
	sp, err := spec.Builtin("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	m, err := rvgo.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Event("nosuch"); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("Event(nosuch) error = %v, want one naming the event", err)
	}
	create := m.MustEvent("create")
	if create.Name() != "create" || create.Arity() != 2 {
		t.Errorf("create emitter = (%q, %d), want (create, 2)", create.Name(), create.Arity())
	}
	h := rvgo.NewHeap()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Emit with wrong arity did not panic")
			}
		}()
		create.Emit(h.Alloc("only-one"))
	}()
	if got := m.Stats().Events; got != 0 {
		t.Errorf("misfired emit dispatched: Events = %d, want 0", got)
	}
	// EventParams exposes the binding order Emit expects.
	ps, err := sp.EventParams("create")
	if err != nil || fmt.Sprint(ps) != "[c i]" {
		t.Errorf("EventParams(create) = %v, %v; want [c i]", ps, err)
	}
}

// TestEmitterZeroAlloc is the façade half of the PR-4 hot-path guarantee:
// a pre-resolved Emitter dispatching on the sequential backend allocates
// nothing per event. (The benchmark BenchmarkEmitterEmit reports the same
// number under -benchmem; this test makes it a hard gate in plain `go
// test`.)
func TestEmitterZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sp, err := spec.Builtin("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	m, err := rvgo.New(sp)
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
		t.Errorf("Emitter.Emit allocates %.2f allocs/op on the sequential backend, want 0", avg)
	}
	hnTSym, _ := m.Spec().Symbol("hasnexttrue")
	nextSym, _ := m.Spec().Symbol("next")
	if avg := testing.AllocsPerRun(2000, func() {
		m.Emit(hnTSym, it)
		m.Emit(nextSym, it)
	}); avg != 0 {
		t.Errorf("Monitor.Emit allocates %.2f allocs/op on the sequential backend, want 0", avg)
	}
	if avg := testing.AllocsPerRun(2000, func() {
		_ = m.EmitNamed("hasnexttrue", it)
		_ = m.EmitNamed("next", it)
	}); avg != 0 {
		t.Errorf("Monitor.EmitNamed allocates %.2f allocs/op on the sequential backend, want 0", avg)
	}
	// A death of an object still alive: the engine reads liveness off the
	// ref, so Free is a pure positioning call here.
	if avg := testing.AllocsPerRun(2000, func() { m.Free(it) }); avg != 0 {
		t.Errorf("Monitor.Free allocates %.2f allocs/op on the sequential backend, want 0", avg)
	}
}
