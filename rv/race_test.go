package rv_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"rvgo"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
	"rvgo/rv"
	rvspec "rvgo/spec"
)

// coll/iter are real parameter objects for the racy workload.
type coll struct {
	p   int
	pad [4]int64
}
type iter struct {
	p, r int
	pad  [2]int64
}

//go:noinline
func newIter(p, r int) *iter { return &iter{p: p, r: r} }

// TestFreeDuringDispatchRace is the free-during-dispatch satellite: on the
// sharded backend, cleanup-driven frees (delivered by auto-poll from
// whatever goroutine happens to Attach next, racing in-flight Dispatch
// batches on every other producer) must leave per-slice verdict sequences
// exactly equal to a sequential-engine replay with explicit frees. The
// workload completes each iterator's slice before dropping it, so verdict
// content is death-timing-independent; what the race detector and the
// comparison check is that delivery racing dispatch corrupts nothing.
func TestFreeDuringDispatchRace(t *testing.T) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	const producers = 8
	const rounds = 120

	label := func(v any) string {
		switch o := v.(type) {
		case *coll:
			return fmt.Sprintf("c%d", o.p)
		case *iter:
			return fmt.Sprintf("i%d_%d", o.p, o.r)
		}
		return "?"
	}

	// Racy run: sharded backend, concurrent producers, real GC.
	var vmu sync.Mutex
	got := map[string][]string{}
	sp, err := rvspec.Builtin("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	srt, err := rvgo.New(sp,
		rvgo.WithShards(4),
		rvgo.WithVerdictHandler(func(v rvgo.Verdict) {
			vmu.Lock()
			got[v.Inst.Format(spec.Params)] = append(got[v.Inst.Format(spec.Params)], string(v.Cat))
			vmu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	s := rv.New(srt, rv.Options{Label: label})

	stop := make(chan struct{})
	var gcPump sync.WaitGroup
	gcPump.Add(1)
	go func() {
		// Keep the collector churning so cleanups fire while producers
		// are mid-batch; deliveries then ride the producers' auto-polls
		// and this goroutine's explicit polls.
		defer gcPump.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
				s.Poll()
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := &coll{p: p}
			for r := 0; r < rounds; r++ {
				it := newIter(p, r)
				if err := s.Attach("create", c, it); err != nil {
					t.Error(err)
					return
				}
				if err := s.Attach("update", c); err != nil {
					t.Error(err)
					return
				}
				if err := s.Attach("next", it); err != nil {
					t.Error(err)
					return
				}
				// The slice (c, it) has reached its verdict; drop the
				// iterator and let the real GC reclaim the monitor.
			}
			runtime.KeepAlive(c)
		}(p)
	}
	wg.Wait()
	close(stop)
	gcPump.Wait()
	// Deliver whatever the GC has found by now; stragglers are a
	// liveness matter, not a verdict one.
	s.Collect(0, time.Second)
	s.Flush()
	gotStats := s.Stats()
	s.Close()

	// Reference: the same per-producer event sequences, single-threaded,
	// on the sequential engine with explicit frees at the same points.
	want := map[string][]string{}
	eng, err := monitor.New(spec, monitor.Options{
		GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
		OnVerdict: func(v monitor.Verdict) {
			want[v.Inst.Format(spec.Params)] = append(want[v.Inst.Format(spec.Params)], string(v.Cat))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	for p := 0; p < producers; p++ {
		c := h.Alloc(fmt.Sprintf("c%d", p))
		for r := 0; r < rounds; r++ {
			it := h.Alloc(fmt.Sprintf("i%d_%d", p, r))
			for _, e := range []struct {
				name string
				vals []heap.Ref
			}{{"create", []heap.Ref{c, it}}, {"update", []heap.Ref{c}}, {"next", []heap.Ref{it}}} {
				if err := monitor.EmitNamed(eng, e.name, e.vals...); err != nil {
					t.Fatal(err)
				}
			}
			eng.Free(it)
			h.Free(it)
		}
	}
	eng.Flush()
	wantStats := eng.Stats()
	eng.Close()

	if !reflect.DeepEqual(want, got) {
		t.Fatalf("per-slice verdicts diverge:\n  sequential: %d slices\n  racy:       %d slices", len(want), len(got))
	}
	if want := wantStats.GoalVerdicts; gotStats.GoalVerdicts != want {
		t.Errorf("GoalVerdicts = %d, want %d", gotStats.GoalVerdicts, want)
	}
	if want := wantStats.Events; gotStats.Events != want {
		t.Errorf("Events = %d, want %d", gotStats.Events, want)
	}
}
