package shard_test

import (
	"math/bits"
	"strings"
	"testing"

	"rvgo/internal/conformance"
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
		r, err := shard.NewRouter(spec, 4, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Pivot() < 0 {
			if r.Lanes() != 1 {
				t.Errorf("%s: unshardable spec must fall back to 1 shard, got %d", name, r.Lanes())
			}
			continue
		}
		if r.Lanes() != 4 {
			t.Errorf("%s: shardable spec kept %d of 4 shards", name, r.Lanes())
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
	r, err := shard.NewRouter(spec, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pivot() != 0 {
		t.Fatalf("pivot = %d, want 0", r.Pivot())
	}
	for id := uint64(1); id <= 32; id++ {
		first := -1
		for sym := range spec.Events {
			lanes := r.Route(sym, []uint64{id})
			target, broadcast := bits.TrailingZeros64(lanes), bits.OnesCount64(lanes) != 1
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
	r, err := shard.NewRouter(spec, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pivot() < 0 {
		t.Fatal("UnsafeIter must be shardable (create binds both parameters)")
	}
	sawBroadcast := false
	next := uint64(1)
	for sym, ev := range spec.Events {
		ids := make([]uint64, ev.Params.Count())
		for i := range ids {
			ids[i] = next
			next++
		}
		broadcast := r.Route(sym, ids) == r.All()
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

// joinAnySpec is a two-parameter property whose iterator event joins with
// monitors of any iterator: update(c) begins the goal trace, so next(i)'s
// enable set is {c}, a domain without i — an empty-overlap join plan.
func joinAnySpec(t *testing.T) *monitor.Spec {
	t.Helper()
	alphabet := []string{"update", "next"}
	bp, err := ere.Compile("update next", alphabet)
	if err != nil {
		t.Fatal(err)
	}
	s := &monitor.Spec{
		Name:   "JoinAny",
		Params: []string{"c", "i"},
		Events: []monitor.EventDef{
			{Name: "update", Params: param.SetOf(0)},
			{Name: "next", Params: param.SetOf(1)},
		},
		BP:   bp,
		Goal: []logic.Category{logic.Match},
	}
	if err := s.Analyze(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMaskable pins, per spec, how a fan-out places each event: by its
// pivot, only where its object went (maskable), or on every lane. An event
// is maskable when it binds one parameter, not the pivot, and none of its
// join plans (monitor.Spec.Joins) misses its parameter: PropMix's tick
// binds none, UnsafeMapIter's and UnsafeSyncMap's iterator creations bind
// two, and JoinAny's next joins with the monitors of every collection.
func TestMaskable(t *testing.T) {
	want := map[string]string{
		"PropMix":        "open:pivot tick:broadcast close:pivot",
		"HasNext":        "hasnexttrue:pivot hasnextfalse:pivot next:pivot",
		"HasNextLTL":     "hasnexttrue:pivot hasnextfalse:pivot next:pivot",
		"HashSet":        "add:pivot remove:pivot mutate:pivot",
		"SafeEnum":       "create:pivot modify:pivot nextElem:maskable",
		"SafeFile":       "open:pivot read:pivot close:pivot",
		"SafeFileWriter": "write:pivot close:pivot",
		"SafeLock":       "acquire:pivot release:pivot begin:pivot end:pivot",
		"SafeLockMatch":  "acquire:pivot release:pivot begin:pivot end:pivot",
		"UnsafeIter":     "create:pivot update:pivot next:maskable",
		"UnsafeMapIter":  "createColl:pivot createIter:broadcast useIter:maskable updateMap:pivot",
		"UnsafeSyncColl": "sync:pivot syncCreateIter:pivot asyncCreateIter:pivot syncAccess:maskable asyncAccess:maskable",
		"UnsafeSyncMap":  "sync:pivot createSet:pivot syncCreateIter:broadcast asyncCreateIter:broadcast syncAccess:maskable asyncAccess:maskable",
		"JoinAny":        "update:pivot next:broadcast",
		"Disjoint":       "a:broadcast b:broadcast",
	}
	specs := append(conformance.Specs(t), joinAnySpec(t), unshardableSpec(t))
	for _, spec := range specs {
		r, err := shard.NewRouter(spec, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		an, err := spec.Analysis()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for sym, ev := range spec.Events {
			kind := "broadcast"
			switch {
			case r.Pivot() >= 0 && ev.Params.Has(r.Pivot()):
				kind = "pivot"
			case r.Maskable(sym):
				kind = "maskable"
			}
			got = append(got, ev.Name+":"+kind)
			// The rule, restated over the engine's own join predicate.
			rule := r.Pivot() >= 0 && ev.Params.Count() == 1 && !ev.Params.Has(r.Pivot())
			for _, R := range an.Domains {
				if spec.Joins(sym, R, monitor.CreateEnable) && R.Inter(ev.Params).Empty() {
					rule = false
				}
			}
			if r.Maskable(sym) != rule {
				t.Errorf("%s: Maskable(%s) = %v, want %v from Spec.Joins", spec.Name, ev.Name, r.Maskable(sym), rule)
			}
		}
		if g := strings.Join(got, " "); g != want[spec.Name] {
			t.Errorf("%s: %s, want %s", spec.Name, g, want[spec.Name])
		}
		delete(want, spec.Name)
	}
	for name := range want {
		t.Errorf("%s: no such spec any more", name)
	}
}
