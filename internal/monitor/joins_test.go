package monitor_test

import (
	"slices"
	"testing"

	"rvgo/internal/conformance"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/shard"
)

// TestJoinPlansFollowSpecJoins: an engine's join plans are the instance
// domains Spec.Joins accepts, under either creation strategy, and the
// sharded router's maskability rule is read off the same predicate: an
// event is maskable exactly when it binds one parameter, not the pivot,
// and each of the enable-set engine's join plans for it overlaps it.
func TestJoinPlansFollowSpecJoins(t *testing.T) {
	for _, spec := range conformance.Specs(t) {
		an, err := spec.Analysis()
		if err != nil {
			t.Fatal(err)
		}
		r, err := shard.NewRouter(spec, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []monitor.CreationStrategy{monitor.CreateEnable, monitor.CreateFull} {
			e, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: c})
			if err != nil {
				t.Fatal(err)
			}
			for sym, ev := range spec.Events {
				var want []param.Set
				for _, R := range an.Domains {
					if spec.Joins(sym, R, c) {
						want = append(want, R)
					}
				}
				got := monitor.JoinDomains(e, sym)
				if !slices.Equal(got, want) {
					t.Errorf("%s/%v: %s joins %v, want %v", spec.Name, c, ev.Name, got, want)
				}
				if c != monitor.CreateEnable {
					continue
				}
				rule := r.Pivot() >= 0 && ev.Params.Count() == 1 && !ev.Params.Has(r.Pivot())
				for _, R := range got {
					if R.Inter(ev.Params).Empty() {
						rule = false
					}
				}
				if r.Maskable(sym) != rule {
					t.Errorf("%s: Router.Maskable(%s) = %v, but the engine's join plans %v say %v", spec.Name, ev.Name, r.Maskable(sym), got, rule)
				}
			}
			e.Close()
		}
	}
}
