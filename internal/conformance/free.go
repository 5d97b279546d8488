package conformance

import (
	"fmt"
	"sync"
	"testing"

	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
)

// asyncFreer is the façade's FreeAsync (rvgo.Monitor), which this package
// cannot import: Free, then the kill handed in as die.
type asyncFreer interface {
	FreeAsync(die func(), refs ...heap.Ref)
}

// freeDriver replays the shared death-positioning trace on one backend:
// two iterators over one collection, the first freed before it is ever
// advanced (its slice must stay verdict-free and its monitor must be
// reclaimable), the second advanced after an update (the UNSAFEITER
// match). Either way the object is killed the instant Free returns, with
// the events before it possibly still queued: sync kills it here, async
// hands the kill to the façade's FreeAsync (a bare backend has none and
// gets the façade's two lines spelled out).
func freeDriver(t *testing.T, rt monitor.Runtime, async bool) (stats monitor.Stats) {
	t.Helper()
	h := heap.New()
	c, i1, i2 := h.Alloc("c"), h.Alloc("i1"), h.Alloc("i2")
	emit := func(ev string, vals ...heap.Ref) {
		t.Helper()
		if err := monitor.EmitNamed(rt, ev, vals...); err != nil {
			t.Fatalf("EmitNamed(%s): %v", ev, err)
		}
	}
	emit("create", c, i1)
	emit("update", c)
	// i1 dies here: every event so far observed it alive, nothing later
	// mentions it. Its slice never saw a post-update next, so this death
	// must not suppress or invent any verdict.
	die := func() { h.Free(i1) }
	if f, ok := rt.(asyncFreer); async && ok {
		f.FreeAsync(die, i1)
	} else {
		rt.Free(i1)
		die()
	}
	emit("create", c, i2)
	emit("update", c)
	emit("next", i2)
	rt.Flush()
	stats = rt.Stats()
	rt.Close()
	return stats
}

// RunFree exercises the death-positioning contract (Free and FreeAsync)
// on a backend built with coenable GC; see RunFreePolicy.
func RunFree(t *testing.T, build Factory) {
	RunFreePolicy(t, build, monitor.GCCoenable)
}

// RunFreePolicy exercises the death-positioning contract (Free and
// FreeAsync) on a backend and requires its observable outcome — per-slice
// verdicts and settled counters — to equal a sequential-engine reference
// run of the same trace under the same GC policy. The factory must build
// its backend with gc; PeakLive is compared only against an upper bound
// (a sharded backend sums per-shard peaks), and the reclamation check —
// the freed iterator's monitor must actually be collected — applies only
// under GCCoenable, the one policy whose analysis can prove the monitor
// unnecessary while the collection object lives.
func RunFreePolicy(t *testing.T, build Factory, gc monitor.GCPolicy) {
	reference := func(t *testing.T, async bool) ([]string, monitor.Stats) {
		t.Helper()
		var verdicts []string
		spec, err := props.Build("UnsafeIter")
		if err != nil {
			t.Fatal(err)
		}
		eng, err := monitor.New(spec, monitor.Options{
			GC: gc, Creation: monitor.CreateEnable,
			OnVerdict: func(v monitor.Verdict) {
				verdicts = append(verdicts, string(v.Cat)+"@"+v.Inst.Format(v.Spec.Params))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		stats := freeDriver(t, eng, async)
		return verdicts, stats
	}

	for _, mode := range []struct {
		name  string
		async bool
	}{{"Free", false}, {"FreeAsync", true}} {
		t.Run(mode.name, func(t *testing.T) {
			wantV, want := reference(t, mode.async)

			var mu sync.Mutex
			var gotV []string
			rt := build(t, "UnsafeIter", func(v monitor.Verdict) {
				mu.Lock()
				gotV = append(gotV, string(v.Cat)+"@"+v.Inst.Format(v.Spec.Params))
				mu.Unlock()
			})
			got := freeDriver(t, rt, mode.async)

			if fmt.Sprint(gotV) != fmt.Sprint(wantV) {
				t.Errorf("verdicts = %v, want %v", gotV, wantV)
			}
			if got.PeakLive < want.PeakLive {
				t.Errorf("PeakLive = %d, below the sequential peak %d", got.PeakLive, want.PeakLive)
			}
			want.PeakLive, got.PeakLive = 0, 0
			if got != want {
				t.Errorf("settled counters diverge:\n  got  %+v\n  want %+v", got, want)
			}
			// The freed iterator's monitor must actually be reclaimed
			// under coenable GC — that is what the death signal is for.
			if gc == monitor.GCCoenable && got.Collected == 0 {
				t.Error("no monitor collected after the iterator's death")
			}
		})
	}
}
