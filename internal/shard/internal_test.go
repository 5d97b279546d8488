package shard

import (
	"strings"
	"testing"

	"rvgo/internal/ere"
	"rvgo/internal/heap"
	"rvgo/internal/logic"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
)

// TestTryDispatchBackpressure stalls a worker and fills its mailbox:
// TryDispatch must refuse exactly when the mailbox is full and accept
// again once the worker drains.
func TestTryDispatchBackpressure(t *testing.T) {
	spec, err := props.Build("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	const depth = 4
	rt, err := New(spec, Options{
		Options:      monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable},
		Shards:       2,
		BatchSize:    1,
		MailboxDepth: depth,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Find an object routed to shard 0.
	h := heap.New()
	var it heap.Ref
	for {
		o := h.Alloc("i")
		if target, _ := rt.router.Route(0, param.Of(param.SetOf(0), o)); target == 0 {
			it = o
			break
		}
	}
	theta := param.Of(param.SetOf(0), it)

	// Stall worker 0 inside a control request; entered guarantees the
	// worker has taken the request off the mailbox.
	entered := make(chan struct{})
	gate := make(chan struct{})
	done := rt.workers[0].control(func(*monitor.Engine) {
		entered <- struct{}{}
		<-gate
	})
	<-entered

	// With BatchSize 1 every accepted event is one mailbox send: exactly
	// depth of them fit while the worker is stalled.
	for k := 0; k < depth; k++ {
		if !rt.TryDispatch(0, theta) {
			t.Fatalf("TryDispatch refused at %d/%d with mailbox space left", k, depth)
		}
	}
	if rt.TryDispatch(0, theta) {
		t.Fatal("TryDispatch accepted with a full mailbox and stalled worker")
	}
	// The other shard is idle and must still accept its own events.
	var other heap.Ref
	for {
		o := h.Alloc("j")
		if target, _ := rt.router.Route(0, param.Of(param.SetOf(0), o)); target == 1 {
			other = o
			break
		}
	}
	if !rt.TryDispatch(0, param.Of(param.SetOf(0), other)) {
		t.Fatal("a stalled shard must not block TryDispatch to other shards")
	}

	close(gate)
	<-done
	rt.Barrier()
	if !rt.TryDispatch(0, theta) {
		t.Fatal("TryDispatch must accept again after the worker drained")
	}
	rt.Barrier()
	if got := rt.Stats().Events; got != depth+2 {
		t.Fatalf("Events = %d, want %d", got, depth+2)
	}
}

// TestTryDispatchBroadcastAllOrNothing: a broadcast event (one binding no
// parameters) offered while any shard's mailbox is full must be refused
// everywhere — never half-delivered — and accepted once the stalled shard
// drains.
func TestTryDispatchBroadcastAllOrNothing(t *testing.T) {
	spec := propMixInternalSpec(t)
	const depth = 2
	rt, err := New(spec, Options{
		Options:      monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable},
		Shards:       3,
		BatchSize:    1,
		MailboxDepth: depth,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	tick, ok := spec.Symbol("tick")
	if !ok {
		t.Fatal("no tick symbol")
	}
	if _, broadcast := rt.router.Route(tick, param.Empty()); !broadcast {
		t.Fatal("tick must be a broadcast event")
	}

	// Stall worker 1 and fill its mailbox through broadcasts.
	entered := make(chan struct{})
	gate := make(chan struct{})
	done := rt.workers[1].control(func(*monitor.Engine) {
		entered <- struct{}{}
		<-gate
	})
	<-entered
	for k := 0; k < depth; k++ {
		if !rt.TryDispatch(tick, param.Empty()) {
			t.Fatalf("broadcast refused at %d/%d with space left everywhere", k, depth)
		}
	}
	if rt.TryDispatch(tick, param.Empty()) {
		t.Fatal("broadcast accepted with shard 1's mailbox full")
	}
	before := rt.events.Load()
	close(gate)
	<-done
	rt.Barrier()
	if !rt.TryDispatch(tick, param.Empty()) {
		t.Fatal("broadcast must be accepted after the stalled shard drained")
	}
	rt.Barrier()
	if got := rt.events.Load(); got != before+1 {
		t.Fatalf("events = %d, want %d (refused broadcast must not count or half-deliver)", got, before+1)
	}
	// Every shard's engine must have seen the same number of events: the
	// refused broadcast must not have reached a subset of shards.
	st := rt.ShardStats()
	for i, s := range st {
		if s.Events != st[0].Events {
			t.Fatalf("shard %d saw %d events, shard 0 saw %d: broadcast was half-delivered", i, s.Events, st[0].Events)
		}
	}
}

// propMixInternalSpec builds a spec with a propositional (broadcast) event
// for the internal tests: "tick" binds no parameters, so the router must
// broadcast it.
func propMixInternalSpec(t testing.TB) *monitor.Spec {
	t.Helper()
	alphabet := []string{"open", "tick", "close"}
	bp, err := ere.Compile("open (tick | close)* close", alphabet)
	if err != nil {
		t.Fatal(err)
	}
	s := &monitor.Spec{
		Name:   "PropMixInternal",
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

// TestDispatchAfterClosePanics: dispatching on a closed runtime is a
// programming error and must fail fast with an attributable panic, for
// both the blocking and the non-blocking entry points.
func TestDispatchAfterClosePanics(t *testing.T) {
	spec, err := props.Build("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	theta := param.Of(param.SetOf(0), h.Alloc("i"))
	for _, tc := range []struct {
		name string
		call func(rt *Runtime)
	}{
		{"Dispatch", func(rt *Runtime) { rt.Dispatch(0, theta) }},
		{"TryDispatch", func(rt *Runtime) { rt.TryDispatch(0, theta) }},
		{"Emit", func(rt *Runtime) { monitor.Emit(rt, 0, h.Alloc("j")) }},
	} {
		rt, err := New(spec, Options{
			Options: monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable},
			Shards:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.Close()
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s after Close did not panic", tc.name)
					return
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "Dispatch after Close") {
					t.Errorf("%s after Close panicked with %v, want a 'Dispatch after Close' message", tc.name, r)
				}
			}()
			tc.call(rt)
		}()
	}
}

// TestPartialBatchVisible: Stats and Barrier must flush a partially filled
// batch; events never linger in the open batch.
func TestPartialBatchVisible(t *testing.T) {
	spec, err := props.Build("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(spec, Options{
		Options:   monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable},
		Shards:    4,
		BatchSize: 1024, // far larger than the event count
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	h := heap.New()
	hnT, _ := spec.Symbol("hasnexttrue")
	for k := 0; k < 5; k++ {
		monitor.Emit(rt, hnT, h.Alloc("i"))
	}
	st := rt.Stats()
	if st.Events != 5 || st.Created != 5 {
		t.Fatalf("stats after partial batch = %+v, want Events=5 Created=5", st)
	}
}

// TestStatsAfterClose: `defer rt.Close()` must compose with reading the
// final counters in any order — Stats/ShardStats return the captured
// values, Barrier/Flush are no-ops, Close is idempotent.
func TestStatsAfterClose(t *testing.T) {
	spec, err := props.Build("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(spec, Options{
		Options: monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable},
		Shards:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	hnT, _ := spec.Symbol("hasnexttrue")
	for k := 0; k < 7; k++ {
		monitor.Emit(rt, hnT, h.Alloc("i"))
	}
	rt.Close()
	rt.Close() // idempotent
	rt.Barrier()
	rt.Flush()
	st := rt.Stats()
	if st.Events != 7 || st.Created != 7 {
		t.Fatalf("post-Close stats = %+v, want Events=7 Created=7", st)
	}
	if got := len(rt.ShardStats()); got != 4 {
		t.Fatalf("post-Close ShardStats has %d shards, want 4", got)
	}
}
