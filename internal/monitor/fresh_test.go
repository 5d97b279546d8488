package monitor_test

import (
	"runtime"
	"testing"

	"rvgo/internal/dacapo"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
)

// churnRecord is one record of a captured stream: an event's symbol and
// object IDs in ascending parameter order, or (sym < 0) the death of
// object ids[0].
type churnRecord struct {
	sym int
	n   int
	ids [2]uint64
}

// churnCapture is the Dispatcher a DaCapo run is adapted to: it keeps
// what the property's pointcuts emit and which objects they named.
type churnCapture struct {
	spec *monitor.Spec
	recs []churnRecord
	seen map[uint64]bool
}

func (c *churnCapture) Spec() *monitor.Spec { return c.spec }

func (c *churnCapture) Dispatch(sym int, theta param.Instance) {
	r := churnRecord{sym: sym}
	for m := theta.Mask(); m != 0; m = m.Rest() {
		id := theta.Value(m.First()).ID()
		c.seen[id] = true
		r.ids[r.n] = id
		r.n++
	}
	c.recs = append(c.recs, r)
}

// churnStream is one pass of the repository benchmark's churn shape
// (internal/bench, the churn profile) over UnsafeIter at seed 1: the
// events the property sees and the deaths of the objects it named.
func churnStream(t *testing.T) (*monitor.Spec, []churnRecord, uint64) {
	t.Helper()
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	p := dacapo.Profile{Name: "churn", Collections: 30000, LiveWindow: 120, ItersPerColl: 2, OpsPerIter: 3, UpdatesPerColl: 3, MapShare: .35, SyncShare: .35, UnsafeShare: .1}
	p.Seed = 1
	c := &churnCapture{spec: spec, seen: map[uint64]bool{}}
	sink, err := dacapo.Adapt("UnsafeIter", c)
	if err != nil {
		t.Fatal(err)
	}
	rt := dacapo.NewRuntime()
	rt.AddSink(sink)
	rt.Heap.SetFreeHook(func(o *heap.Object) {
		if c.seen[o.ID()] {
			c.recs = append(c.recs, churnRecord{sym: -1, n: 1, ids: [2]uint64{o.ID()}})
		}
	})
	if err := p.Run(rt, 1); err != nil {
		t.Fatal(err)
	}
	maxID := uint64(0)
	for _, r := range c.recs {
		maxID = max(maxID, r.ids[0], r.ids[1])
	}
	return spec, c.recs, maxID
}

// TestFreshEngineAllocs: a fresh engine driven through one pass of the
// benchmark's churn stream — lazily by refs, and by ID with every death
// positioned — allocates at most freshAllocs times, engine construction
// and Flush included. The leaf member vectors, the registries and the θ
// lists are blocks of one heap that grows only past its high-water mark,
// so the count is the engine's tables reaching their working size, not
// one allocation per leaf: 114 and 89 when measured, against 1 364 and 754
// while each leaf vector was a Go slice of its own.
func TestFreshEngineAllocs(t *testing.T) {
	if monitor.RaceBuild {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const freshAllocs = 150
	spec, recs, maxID := churnStream(t)
	h := heap.New()
	objs := make([]*heap.Object, maxID+1)
	for i := range objs {
		objs[i] = h.Alloc("")
	}
	ids := make([]uint64, 2)
	for _, byID := range []bool{false, true} {
		name := map[bool]string{false: "by refs", true: "by ID"}[byID]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable})
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			r := &recs[i]
			switch {
			case r.sym < 0 && byID:
				ids[0] = r.ids[0]
				eng.FreeIDs(ids[:1])
			case r.sym < 0:
				h.Free(objs[r.ids[0]])
			case byID:
				copy(ids, r.ids[:r.n])
				eng.DispatchIDs(r.sym, ids[:r.n])
			default:
				var theta param.Instance
				k := 0
				for m := spec.Events[r.sym].Params; m != 0; m = m.Rest() {
					theta = theta.Bind(m.First(), objs[r.ids[k]])
					k++
				}
				eng.Dispatch(r.sym, theta)
			}
		}
		eng.Flush()
		runtime.ReadMemStats(&after)
		st := eng.Stats()
		allocs := after.Mallocs - before.Mallocs
		t.Logf("%s: %d records, %d allocations, %+v", name, len(recs), allocs, st)
		if st.Created == 0 || st.Collected == 0 {
			t.Fatalf("%s: the stream created or collected nothing: %+v", name, st)
		}
		if allocs > freshAllocs {
			t.Errorf("%s: a fresh engine allocates %d times over one churn pass, want at most %d", name, allocs, freshAllocs)
		}
	}
}
