package monitor_test

import (
	"fmt"
	"strings"
	"testing"

	"rvgo/internal/monitor"
	"rvgo/internal/props"
)

// TestOptionsCheck enumerates every GC policy, creation strategy and
// avoidance mode byte one past the defined ones, over one and two lanes,
// with and without a creation profile, and holds Options.Check to the exact
// legal set: defined modes; enforce under full creation only with GCNone;
// over more than one lane, enable-set creation and no profile.
func TestOptionsCheck(t *testing.T) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	legal := 0
	for gc := monitor.GCPolicy(0); gc <= 3; gc++ {
		for cr := monitor.CreationStrategy(0); cr <= 2; cr++ {
			for av := monitor.AvoidMode(0); av <= 3; av++ {
				for _, lanes := range []int{1, 2} {
					for _, prof := range []*monitor.CreationProfile{nil, monitor.NewCreationProfile(spec)} {
						o := monitor.Options{GC: gc, Creation: cr, Avoid: av, Profile: prof}
						want := gc <= monitor.GCCoenable && cr <= monitor.CreateFull && av <= monitor.AvoidEnforce &&
							!(av == monitor.AvoidEnforce && cr == monitor.CreateFull && gc != monitor.GCNone) &&
							(lanes == 1 || cr == monitor.CreateEnable && prof == nil)
						err := o.Check(spec, lanes)
						if (err == nil) != want {
							t.Errorf("gc=%d creation=%d avoid=%d lanes=%d profile=%v: Check = %v, want legal=%v",
								gc, cr, av, lanes, prof != nil, err, want)
						}
						if want {
							legal++
						}
					}
				}
			}
		}
	}
	// One lane: 3·2·3 defined triples less full+enforce under the two
	// collecting policies, with or without a profile (2·16); two lanes:
	// enable-set creation under 3 policies × 3 modes, profile-free (9).
	if legal != 41 {
		t.Errorf("%d legal configurations, want 41", legal)
	}

	guards := func(n int) monitor.Options { return monitor.Options{ProfileGuards: make([]bool, n)} }
	if err := guards(len(spec.Events)).Check(spec, 2); err != nil {
		t.Errorf("guards covering every event refused: %v", err)
	}
	if err := guards(len(spec.Events)+1).Check(spec, 1); err == nil || !strings.Contains(err.Error(), "profile guards cover") {
		t.Errorf("guards of the wrong length: Check = %v", err)
	}
}

// TestNewRefusesWithCheck: monitor.New is a Check boundary — an undefined
// GC policy is refused with Check's message instead of running as GCNone.
func TestNewRefusesWithCheck(t *testing.T) {
	spec, err := props.Build("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	o := monitor.Options{GC: 9}
	want := o.Check(spec, 1)
	if want == nil {
		t.Fatal("Check accepts GC policy 9")
	}
	if _, err := monitor.New(spec, o); fmt.Sprint(err) != want.Error() {
		t.Errorf("New = %v, want %v", err, want)
	}
}
