package conformance

import (
	"testing"

	"rvgo/internal/fsm"
	"rvgo/internal/heap"
	"rvgo/internal/logic"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
)

// AvoidFactory builds one backend instance for the given property under a
// specific GC policy and creation-avoidance mode, wired to the verdict
// handler. The avoidance oracle closes every runtime it builds.
type AvoidFactory func(t *testing.T, prop string, gc monitor.GCPolicy, avoid monitor.AvoidMode, onVerdict func(monitor.Verdict)) monitor.Runtime

// RunAvoidanceOracle is the creation-avoidance-vs-unguarded oracle matrix:
// it replays the seeded avrora trace through the backend under every GC
// policy in audit and enforce modes and holds both against a sequential
// unguarded reference run of the same trace.
//
//   - Audit mode must be bit-identical in everything: per-slice verdict
//     sequences and every settled counter (the guards are evaluated but
//     only counted, in Stats.Avoided).
//   - Enforce mode must preserve per-slice verdict sequences, Events and
//     GoalVerdicts exactly, and satisfy the suppression invariant
//     Created + Avoided == unguarded Created; its Avoided count must match
//     audit mode's (the guards fire identically, whichever way their hits
//     are consumed).
//
// The static guards rarely fire under enable-set creation (the enable
// analysis already prunes what they would catch — see DESIGN.md), so the
// enforce legs here mostly prove "guards that do not fire change nothing";
// RunAvoidanceEnforcement covers the firing cases on the sequential
// engine, where the full strategy and profile guards are available.
func RunAvoidanceOracle(t *testing.T, build AvoidFactory) {
	for _, gc := range []monitor.GCPolicy{monitor.GCNone, monitor.GCAllDead, monitor.GCCoenable} {
		t.Run(gc.String(), func(t *testing.T) {
			spec, err := props.Build(oracleProp)
			if err != nil {
				t.Fatal(err)
			}
			var wantV sliceVerdicts
			ref, err := monitor.New(spec, monitor.Options{
				GC:        gc,
				Creation:  monitor.CreateEnable,
				OnVerdict: wantV.handler(),
			})
			if err != nil {
				t.Fatal(err)
			}
			want := avroraReplay(t, ref)

			var auditV sliceVerdicts
			audit := avroraReplay(t, build(t, oracleProp, gc, monitor.AvoidAudit, auditV.handler()))
			if d := auditV.diff(&wantV); d != "" {
				t.Errorf("audit: %s", d)
			}
			if audit.PeakLive < want.PeakLive {
				t.Errorf("audit: PeakLive = %d, below the sequential peak %d", audit.PeakLive, want.PeakLive)
			}
			auditAvoided := audit.Avoided
			norm := audit
			norm.Avoided, norm.PeakLive = 0, 0
			wantNorm := want
			wantNorm.PeakLive = 0
			if norm != wantNorm {
				t.Errorf("audit: settled counters diverge:\n  got  %+v\n  want %+v", audit, want)
			}

			var enfV sliceVerdicts
			enf := avroraReplay(t, build(t, oracleProp, gc, monitor.AvoidEnforce, enfV.handler()))
			if d := enfV.diff(&wantV); d != "" {
				t.Errorf("enforce: %s", d)
			}
			if enf.Events != want.Events || enf.GoalVerdicts != want.GoalVerdicts {
				t.Errorf("enforce: Events/GoalVerdicts = %d/%d, want %d/%d",
					enf.Events, enf.GoalVerdicts, want.Events, want.GoalVerdicts)
			}
			if enf.Created+enf.Avoided != want.Created {
				t.Errorf("enforce: Created %d + Avoided %d != unguarded Created %d",
					enf.Created, enf.Avoided, want.Created)
			}
			if enf.Avoided != auditAvoided {
				t.Errorf("enforce: Avoided = %d, audit counted %d", enf.Avoided, auditAvoided)
			}
			if enf.Avoided == 0 {
				// Nothing suppressed: enforce must then be bit-identical to
				// the unguarded run, like audit.
				enfNorm := enf
				enfNorm.PeakLive = 0
				if enfNorm != wantNorm {
					t.Errorf("enforce (nothing avoided): settled counters diverge:\n  got  %+v\n  want %+v", enf, want)
				}
			}
		})
	}
}

// profiledPairSpec is a two-creation-site property for the profile-guided
// enforcement leg: P(x) matches on a·g or b·g. Both a and b are creation
// events with the maximal (only) domain {x}, so a trace whose b-objects
// never see g drives the profile to guard b while a stays live — the
// shape the profile-guided mode exists for, and one the DaCapo properties
// cannot produce (their only maximal-domain creation site also carries
// every goal).
func profiledPairSpec(t *testing.T) *monitor.Spec {
	t.Helper()
	alphabet := []string{"a", "b", "g"}
	m := fsm.New(alphabet)
	for _, st := range []string{"start", "s1", "s2", "hit"} {
		if err := m.AddState(st); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range [][3]string{
		{"start", "a", "s1"},
		{"start", "b", "s2"},
		{"s1", "g", "hit"},
		{"s2", "g", "hit"},
	} {
		if err := m.AddTransition(tr[0], tr[1], tr[2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Freeze(); err != nil {
		t.Fatal(err)
	}
	spec := &monitor.Spec{
		Name:   "ProfiledPair",
		Params: []string{"x"},
		Events: []monitor.EventDef{
			{Name: "a", Params: param.SetOf(0)},
			{Name: "b", Params: param.SetOf(0)},
			{Name: "g", Params: param.SetOf(0)},
		},
		BP:   m,
		Goal: []logic.Category{"hit"},
	}
	if err := spec.Analyze(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// RunAvoidanceEnforcement proves the guard-firing enforcement paths on the
// sequential engine, where the configurations that make guards fire are
// available:
//
//   - full/static: the Figure 5 strategy materializes instances the enable
//     analysis would skip, so the static doomed guard fires on them.
//     Enforce (GCNone — the engine rejects the rest) must preserve
//     verdicts, Events and GoalVerdicts against an unguarded CreateFull
//     run and satisfy Created + Avoided == unguarded Created with
//     Avoided > 0.
//   - profile: a recorded-profile replay guards a creation site whose
//     monitors never reach a goal; replaying the same trace under enforce
//     with the synthesized guards must suppress exactly that site's
//     creations while every verdict survives.
func RunAvoidanceEnforcement(t *testing.T) {
	t.Run("full_static", func(t *testing.T) {
		spec, err := props.Build(oracleProp)
		if err != nil {
			t.Fatal(err)
		}
		var wantV sliceVerdicts
		ref, err := monitor.New(spec, monitor.Options{
			GC:        monitor.GCNone,
			Creation:  monitor.CreateFull,
			OnVerdict: wantV.handler(),
		})
		if err != nil {
			t.Fatal(err)
		}
		want := avroraReplay(t, ref)

		var gotV sliceVerdicts
		eng, err := monitor.New(spec, monitor.Options{
			GC:        monitor.GCNone,
			Creation:  monitor.CreateFull,
			Avoid:     monitor.AvoidEnforce,
			OnVerdict: gotV.handler(),
		})
		if err != nil {
			t.Fatal(err)
		}
		got := avroraReplay(t, eng)

		if d := gotV.diff(&wantV); d != "" {
			t.Error(d)
		}
		if got.Events != want.Events || got.GoalVerdicts != want.GoalVerdicts {
			t.Errorf("Events/GoalVerdicts = %d/%d, want %d/%d",
				got.Events, got.GoalVerdicts, want.Events, want.GoalVerdicts)
		}
		if got.Created+got.Avoided != want.Created {
			t.Errorf("Created %d + Avoided %d != unguarded Created %d",
				got.Created, got.Avoided, want.Created)
		}
		if got.Avoided == 0 {
			t.Error("static guard never fired under the full strategy — the enforcement leg is vacuous")
		}
	})

	t.Run("profile", func(t *testing.T) {
		// One trace, replayed three times over the same seeded object set:
		// unguarded with a profile attached, then enforced with the
		// profile's guards, then compared.
		replay := func(opts monitor.Options) (monitor.Stats, *sliceVerdicts) {
			spec := profiledPairSpec(t)
			var sv sliceVerdicts
			opts.OnVerdict = sv.handler()
			eng, err := monitor.New(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			h := heap.New()
			a1 := h.Alloc("a1")
			b1 := h.Alloc("b1")
			b2 := h.Alloc("b2")
			symA, _ := spec.Symbol("a")
			symB, _ := spec.Symbol("b")
			symG, _ := spec.Symbol("g")
			monitor.Emit(eng, symA, a1)
			monitor.Emit(eng, symB, b1)
			monitor.Emit(eng, symB, b2)
			monitor.Emit(eng, symG, a1) // only the a-born slice reaches the goal
			eng.Flush()
			stats := eng.Stats()
			eng.Close()
			return stats, &sv
		}

		profile := monitor.NewCreationProfile(profiledPairSpec(t))
		want, wantV := replay(monitor.Options{Profile: profile})
		if want.GoalVerdicts != 1 {
			t.Fatalf("profiled run delivered %d goal verdicts, want 1", want.GoalVerdicts)
		}
		guards := profile.Guards()
		if !guards[1] || guards[0] || guards[2] {
			t.Fatalf("profile guards = %v, want only b (symbol 1) guarded", guards)
		}

		got, gotV := replay(monitor.Options{
			Avoid:         monitor.AvoidEnforce,
			ProfileGuards: guards,
		})
		if d := gotV.diff(wantV); d != "" {
			t.Error(d)
		}
		if got.Events != want.Events || got.GoalVerdicts != want.GoalVerdicts {
			t.Errorf("Events/GoalVerdicts = %d/%d, want %d/%d",
				got.Events, got.GoalVerdicts, want.Events, want.GoalVerdicts)
		}
		if got.Created+got.Avoided != want.Created {
			t.Errorf("Created %d + Avoided %d != unguarded Created %d",
				got.Created, got.Avoided, want.Created)
		}
		if got.Avoided != 2 {
			t.Errorf("Avoided = %d, want 2 (both b-born creations suppressed)", got.Avoided)
		}
	})
}
