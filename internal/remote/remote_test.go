package remote_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rvgo/internal/conformance"
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

// remoteBackend is a session of shards lanes on the server at addr.
func remoteBackend(addr string, shards int) conformance.Backend {
	return conformance.Backend{Name: fmt.Sprintf("remote%d", shards), Lanes: shards, Open: func(t *testing.T, spec *monitor.Spec, m conformance.Mode, onVerdict func(monitor.Verdict)) monitor.Runtime {
		cl, err := remote.Dial(addr, remote.Options{
			Prop:      spec.Name,
			GC:        m.GC,
			Avoid:     m.Avoid,
			Shards:    shards,
			OnVerdict: onVerdict,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}}
}

// perSessionShape runs f once per server backend shape: a sequential and
// a 4-shard session.
func perSessionShape(t *testing.T, f func(t *testing.T, b conformance.Backend)) {
	addr := startServer(t, server.Options{})
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { f(t, remoteBackend(addr, shards)) })
	}
}

// TestClientConformance runs the backend-independent Runtime suite over
// the network, once against a sequential session and once against a
// sharded one.
func TestClientConformance(t *testing.T) {
	perSessionShape(t, func(t *testing.T, b conformance.Backend) {
		conformance.RunEmitNamed(t, b, conformance.Mode{GC: monitor.GCCoenable})
	})
}

// TestClientFreeConformance runs the death-positioning streams over the
// network: protocol-level frees must position deaths exactly as the
// in-process backends do.
func TestClientFreeConformance(t *testing.T) {
	perSessionShape(t, func(t *testing.T, b conformance.Backend) {
		for _, s := range conformance.FreeStreams(t) {
			t.Run(s.Name, func(t *testing.T) {
				conformance.Diff(t, s, []conformance.Backend{b}, []conformance.Mode{{GC: monitor.GCCoenable}})
			})
		}
	})
}

// TestClientArenaOracle replays the avrora run over the network under
// every GC policy, against sequential and 4-shard server sessions.
func TestClientArenaOracle(t *testing.T) {
	perSessionShape(t, func(t *testing.T, b conformance.Backend) {
		conformance.Diff(t, conformance.Live(t, "avrora", 0.05, "UnsafeIter"), []conformance.Backend{b}, conformance.GCModes())
	})
}

// TestClientAvoidanceOracle replays the avrora run over the network under
// every GC policy × avoidance mode (the mode travels in the Hello).
func TestClientAvoidanceOracle(t *testing.T) {
	perSessionShape(t, func(t *testing.T, b conformance.Backend) {
		conformance.Diff(t, conformance.Live(t, "avrora", 0.05, "UnsafeIter"), []conformance.Backend{b}, conformance.AvoidModes())
	})
}

// shard4 is the in-process 4-shard runtime, beside the sessions.
var shard4 = conformance.Backend{Name: "shard4", Lanes: 4, Open: func(t *testing.T, spec *monitor.Spec, m conformance.Mode, onVerdict func(monitor.Verdict)) monitor.Runtime {
	rt, err := shard.New(spec, shard.Options{Options: m.Options(onVerdict), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}}

// TestRemoteEquivalenceRandom is the network oracle: random streams
// through the sharded runtime and remote sessions (sequential and sharded
// server backends) settle like the sequential engine under all three GC
// policies.
func TestRemoteEquivalenceRandom(t *testing.T) {
	addr := startServer(t, server.Options{})
	propNames := []string{"HasNext", "UnsafeIter", "UnsafeMapIter"}
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
		propNames = propNames[:2]
	}
	bs := []conformance.Backend{shard4, remoteBackend(addr, 1), remoteBackend(addr, 4)}
	for _, prop := range propNames {
		for seed := int64(0); seed < seeds; seed++ {
			s := conformance.Random(conformance.Prop(t, prop), seed, 300)
			t.Run(s.Name, func(t *testing.T) { conformance.Diff(t, s, bs, conformance.GCModes()) })
		}
	}
}

// TestRemoteEquivalenceDaCapo replays recorded DaCapo workloads through
// the property adapters into remote sessions.
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
	bs := []conformance.Backend{remoteBackend(addr, 1), remoteBackend(addr, 4)}
	for _, b := range benches {
		for _, s := range conformance.Recorded(t, b.name, b.scale, propNames...) {
			t.Run(s.Name, func(t *testing.T) {
				conformance.Diff(t, s, bs, []conformance.Mode{{GC: monitor.GCCoenable}})
			})
		}
	}
}

// TestConcurrentSessions drives many concurrent sessions against one
// server (run under -race in CI): every session must independently match
// the sequential engine on its own stream.
func TestConcurrentSessions(t *testing.T) {
	addr := startServer(t, server.Options{})
	const sessions = 10
	propNames := []string{"HasNext", "UnsafeIter", "UnsafeMapIter", "UnsafeSyncColl", "UnsafeSyncMap"}
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		s := conformance.Random(conformance.Prop(t, propNames[g%len(propNames)]), int64(7000+g), 500)
		mode := []conformance.Mode{{GC: []monitor.GCPolicy{monitor.GCCoenable, monitor.GCAllDead}[g%2]}}
		b := remoteBackend(addr, []int{1, 4}[g%2])
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.Run(fmt.Sprintf("session%d", g), func(t *testing.T) {
				conformance.Diff(t, s, []conformance.Backend{b}, mode)
			})
		}()
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
		Prop: "HasNext", GC: monitor.GCCoenable,
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
		Prop: "HasNext", GC: monitor.GCCoenable,
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
