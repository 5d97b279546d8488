package shard_test

import (
	"testing"

	"rvgo/internal/ere"
	"rvgo/internal/heap"
	"rvgo/internal/logic"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
	"rvgo/internal/shard"
)

// TestPivotBindsCreationEvents: for every property in the library, the
// selected pivot parameter must be bound by every monitor-creating event —
// the invariant that guarantees every monitor instance binds the pivot and
// therefore has a stable home shard.
func TestPivotBindsCreationEvents(t *testing.T) {
	for _, name := range props.Names() {
		spec, err := props.Build(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		an, err := spec.Analysis()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r, err := shard.NewRouter(spec, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Pivot() < 0 {
			if r.Shards() != 1 {
				t.Errorf("%s: unshardable spec must fall back to 1 shard, got %d", name, r.Shards())
			}
			continue
		}
		if r.Shards() != 4 {
			t.Errorf("%s: shardable spec kept %d of 4 shards", name, r.Shards())
		}
		for sym := range spec.Events {
			if an.Creation[sym] && !spec.Events[sym].Params.Has(r.Pivot()) {
				t.Errorf("%s: creation event %s does not bind pivot %s",
					name, spec.Events[sym].Name, spec.Params[r.Pivot()])
			}
		}
	}
}

// TestRouterHasNext: the single-parameter property routes every event by
// its iterator — no broadcasts — and routing is stable per object.
func TestRouterHasNext(t *testing.T) {
	spec, err := props.Build("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	r, err := shard.NewRouter(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pivot() != 0 {
		t.Fatalf("pivot = %d, want 0", r.Pivot())
	}
	h := heap.New()
	for k := 0; k < 32; k++ {
		it := h.Alloc("i")
		theta := param.Of(param.SetOf(0), it)
		first := -1
		for sym := range spec.Events {
			target, broadcast := r.Route(sym, theta)
			if broadcast {
				t.Fatalf("event %d broadcast despite binding the pivot", sym)
			}
			if first < 0 {
				first = target
			} else if target != first {
				t.Fatalf("object routed to shard %d then %d", first, target)
			}
		}
	}
}

// TestRouterBroadcast: UnsafeIter events not binding the pivot broadcast;
// events binding it route.
func TestRouterBroadcast(t *testing.T) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	r, err := shard.NewRouter(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pivot() < 0 {
		t.Fatal("UnsafeIter must be shardable (create binds both parameters)")
	}
	h := heap.New()
	sawBroadcast := false
	for sym, ev := range spec.Events {
		vals := make([]heap.Ref, ev.Params.Count())
		for i := range vals {
			vals[i] = h.Alloc("o")
		}
		theta := param.Of(ev.Params, vals...)
		_, broadcast := r.Route(sym, theta)
		want := !ev.Params.Has(r.Pivot())
		if broadcast != want {
			t.Errorf("event %s: broadcast = %v, want %v", ev.Name, broadcast, want)
		}
		if broadcast {
			sawBroadcast = true
		}
	}
	if !sawBroadcast {
		t.Error("UnsafeIter has a one-parameter event off the pivot; expected a broadcast")
	}
}

// unshardableSpec has two creation events over disjoint parameters, so no
// pivot exists: either "a x" or "b y" can begin a goal trace.
func unshardableSpec(t *testing.T) *monitor.Spec {
	t.Helper()
	alphabet := []string{"a", "b"}
	bp, err := ere.Compile("a | b", alphabet)
	if err != nil {
		t.Fatal(err)
	}
	s := &monitor.Spec{
		Name:   "Disjoint",
		Params: []string{"x", "y"},
		Events: []monitor.EventDef{
			{Name: "a", Params: param.SetOf(0)},
			{Name: "b", Params: param.SetOf(1)},
		},
		BP:   bp,
		Goal: []logic.Category{logic.Match},
	}
	if err := s.Analyze(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestUnshardableFallsBack: a spec with no pivot degenerates to one shard
// but still monitors correctly through the sharded façade.
func TestUnshardableFallsBack(t *testing.T) {
	spec := unshardableSpec(t)
	rt, err := shard.New(spec, shard.Options{
		Options: monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable},
		Shards:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Shards() != 1 || rt.Pivot() != -1 {
		t.Fatalf("shards=%d pivot=%d, want 1/-1", rt.Shards(), rt.Pivot())
	}
	h := heap.New()
	monitor.Emit(rt, 0, h.Alloc("x1"))
	monitor.Emit(rt, 1, h.Alloc("y1"))
	rt.Flush()
	st := rt.Stats()
	if st.Events != 2 || st.GoalVerdicts != 2 {
		t.Fatalf("stats = %+v, want 2 events and 2 goal verdicts", st)
	}
}

// TestCreateFullRejected: the Figure 5 oracle strategy cannot be sharded,
// and shard.New says so with monitor.Options.Check's message.
func TestCreateFullRejected(t *testing.T) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	full := monitor.Options{Creation: monitor.CreateFull}
	want := full.Check(spec, 4)
	if _, err := shard.New(spec, shard.Options{Options: full, Shards: 4}); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("CreateFull with 4 shards: New = %v, want Check's %v", err, want)
	}
	rt, err := shard.New(spec, shard.Options{
		Options: monitor.Options{Creation: monitor.CreateFull},
		Shards:  1,
	})
	if err != nil {
		t.Fatalf("CreateFull with a single shard must work: %v", err)
	}
	rt.Close()
}
