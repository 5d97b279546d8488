package conformance

import (
	"testing"

	"rvgo/internal/monitor"
)

// RunAvoidanceEnforcement proves the guard-firing enforcement paths on the
// sequential engine, where the configurations that make guards fire are
// available; each enforced run is settled against the same engine under
// audit, which counts the same guards without acting on them:
//
//   - full/static: the Figure 5 strategy materializes instances the enable
//     analysis would skip, so the static doomed guard fires on them
//     (enforce runs under GCNone only — the engine rejects the rest).
//   - profile: a recorded-profile replay guards a creation site whose
//     monitors never reach a goal; replaying the same stream under enforce
//     with the synthesized guards must suppress exactly that site's
//     creations while every verdict survives.
func RunAvoidanceEnforcement(t *testing.T) {
	enforce := Mode{GC: monitor.GCNone, Avoid: monitor.AvoidEnforce}
	// engine is the sequential engine with its options edited by set.
	engine := func(set func(*monitor.Options)) Backend {
		return Backend{Name: "engine", Lanes: 1, Open: func(t *testing.T, spec *monitor.Spec, m Mode, onVerdict func(monitor.Verdict)) monitor.Runtime {
			opts := m.Options(onVerdict)
			set(&opts)
			eng, err := monitor.New(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}}
	}

	t.Run("full_static", func(t *testing.T) {
		s := Live(t, "avrora", 0.05, "UnsafeIter")
		full := engine(func(o *monitor.Options) { o.Creation = monitor.CreateFull })
		want := full.run(t, s, Mode{GC: monitor.GCNone, Avoid: monitor.AvoidAudit}, 0)
		got := full.run(t, s, enforce, 0)
		settle(t, want, got, full, enforce)
		if got.stats.Avoided == 0 {
			t.Error("static guard never fired under the full strategy — the enforcement leg is vacuous")
		}
	})

	t.Run("profile", func(t *testing.T) {
		// P(x) matches on a·g or b·g; only the a-born slice sees g.
		s := Stream{Name: "ProfiledPair", Spec: profiledPairSpec(t), Steps: []Step{
			{0, []int{0}}, {1, []int{1}}, {1, []int{2}}, {2, []int{0}},
		}}
		profile := monitor.NewCreationProfile(s.Spec)
		profiled := engine(func(o *monitor.Options) { o.Profile = profile }).run(t, s, Mode{}, 0)
		if profiled.stats.GoalVerdicts != 1 {
			t.Fatalf("profiled run delivered %d goal verdicts, want 1", profiled.stats.GoalVerdicts)
		}
		guards := profile.Guards()
		if !guards[1] || guards[0] || guards[2] {
			t.Fatalf("profile guards = %v, want only b (symbol 1) guarded", guards)
		}
		guarded := engine(func(o *monitor.Options) { o.ProfileGuards = guards })
		want := guarded.run(t, s, Mode{GC: monitor.GCNone, Avoid: monitor.AvoidAudit}, 0)
		got := guarded.run(t, s, enforce, 0)
		settle(t, want, got, guarded, enforce)
		if got.stats.Avoided != 2 {
			t.Errorf("Avoided = %d, want 2 (both b-born creations suppressed)", got.stats.Avoided)
		}
	})
}

// profiledPairSpec is a two-creation-site property for the profile-guided
// enforcement leg: P(x) matches on a·g or b·g. Both a and b are creation
// events with the maximal (only) domain {x}, so a stream whose b-objects
// never see g drives the profile to guard b while a stays live — the
// shape the profile-guided mode exists for, and one the DaCapo properties
// cannot produce (their only maximal-domain creation site also carries
// every goal).
func profiledPairSpec(t *testing.T) *monitor.Spec {
	return compile(t, `ProfiledPair(x) {
    event a(x)
    event b(x)
    event g(x)
    fsm:
    start [ a -> s1  b -> s2 ]
    s1 [ g -> hit ]
    s2 [ g -> hit ]
    hit [ ]
    @hit {}
}`)
}
