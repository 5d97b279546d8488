package dacapo_test

import (
	"testing"

	"rvgo/internal/dacapo"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
)

// TestRecordReplayMatchesLiveRun: replaying a recorded workload trace into
// an engine must produce exactly the counters of monitoring the live
// workload — events and object deaths land at the same trace positions.
func TestRecordReplayMatchesLiveRun(t *testing.T) {
	p, ok := dacapo.Get("avrora")
	if !ok {
		t.Fatal("no avrora profile")
	}
	const scale = 0.02
	for _, prop := range []string{"HasNext", "UnsafeIter", "UnsafeMapIter"} {
		spec, err := props.Build(prop)
		if err != nil {
			t.Fatal(err)
		}
		mk := func() *monitor.Engine {
			eng, err := monitor.New(spec, monitor.Options{
				GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
			})
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}

		// Live: the engine monitors the running workload.
		live := mk()
		rt := dacapo.NewRuntime()
		sink, err := dacapo.Adapt(prop, live)
		if err != nil {
			t.Fatal(err)
		}
		rt.AddSink(sink)
		if err := p.Run(rt, scale); err != nil {
			t.Fatal(err)
		}
		live.Flush()

		// Replayed: the same workload, recorded once and fed back.
		tr, err := p.Record(scale)
		if err != nil {
			t.Fatal(err)
		}
		replayed := mk()
		sink2, err := dacapo.Adapt(prop, replayed)
		if err != nil {
			t.Fatal(err)
		}
		tr.Replay(heap.New(), sink2)
		replayed.Flush()

		a, b := live.Stats(), replayed.Stats()
		a.PeakLive, b.PeakLive = 0, 0
		if a != b {
			t.Errorf("%s: live %+v != replayed %+v", prop, a, b)
		}
		if a.Events == 0 {
			t.Errorf("%s: trace drove no events", prop)
		}
	}
}
