package dacapo_test

import (
	"testing"

	"rvgo/internal/conformance"
	"rvgo/internal/monitor"
)

// TestRecordReplayMatchesLiveRun: replaying a recorded workload into an
// engine must settle like monitoring the live workload — events and
// object deaths land at the same stream positions. Each death reaches the
// engine once through Free and once unannounced, found by asking the ref
// (lazy liveness).
func TestRecordReplayMatchesLiveRun(t *testing.T) {
	const scale = 0.02
	for _, s := range conformance.Recorded(t, "avrora", scale, "HasNext", "UnsafeIter", "UnsafeMapIter") {
		live := conformance.Live(t, "avrora", scale, s.Spec.Name)
		for _, s := range []conformance.Stream{s.Against(live), s.Lazy().Against(live.Lazy())} {
			t.Run(s.Name, func(t *testing.T) {
				conformance.Diff(t, s, []conformance.Backend{conformance.Engine},
					[]conformance.Mode{{GC: monitor.GCCoenable}})
			})
		}
	}
}
