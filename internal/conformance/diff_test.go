package conformance

import (
	"fmt"
	"testing"

	"rvgo/internal/monitor"
	"rvgo/internal/param"
)

// failures is a testing.TB that keeps settle's complaints instead of
// failing the test.
type failures struct {
	testing.TB
	got []string
}

func (f *failures) Helper()                   {}
func (f *failures) Error(args ...any)         { f.got = append(f.got, fmt.Sprint(args...)) }
func (f *failures) Errorf(s string, a ...any) { f.got = append(f.got, fmt.Sprintf(s, a...)) }

// dropFree is the ID-fed engine losing its k-th death.
type dropFree struct {
	*monitor.Engine
	n, k int
}

func (d *dropFree) FreeIDs(ids []uint64) {
	if d.n++; d.n != d.k {
		d.Engine.FreeIDs(ids)
	}
}

// twice is the engine handed its k-th event a second time.
type twice struct {
	*monitor.Engine
	n, k int
}

func (d *twice) Dispatch(sym int, theta param.Instance) {
	d.Engine.Dispatch(sym, theta)
	if d.n++; d.n == d.k {
		d.Engine.Dispatch(sym, theta)
	}
}

// TestDiffCatchesDivergence holds the harness to its purpose: a backend
// that loses a death, loses a verdict or delivers an event twice must fail
// settle, and the faithful engine must not.
func TestDiffCatchesDivergence(t *testing.T) {
	s := Random(Prop(t, "UnsafeIter"), 0, 300)
	m := Mode{GC: monitor.GCCoenable}
	engine := func(t *testing.T, spec *monitor.Spec, onVerdict func(monitor.Verdict)) *monitor.Engine {
		return openEngine(t, spec, m, onVerdict).(*monitor.Engine)
	}
	for _, c := range []struct {
		b    Backend
		fail bool
	}{
		{Engine, false},
		{EngineIDs, false},
		{Backend{Name: "drop-free", Lanes: 1, ByID: true, Open: func(t *testing.T, spec *monitor.Spec, _ Mode, onVerdict func(monitor.Verdict)) monitor.Runtime {
			return &dropFree{Engine: engine(t, spec, onVerdict), k: 1}
		}}, true},
		{Backend{Name: "drop-verdict", Lanes: 1, Lazy: true, Open: func(t *testing.T, spec *monitor.Spec, _ Mode, onVerdict func(monitor.Verdict)) monitor.Runtime {
			n := 0
			return engine(t, spec, func(v monitor.Verdict) {
				if n++; n != 2 {
					onVerdict(v)
				}
			})
		}}, true},
		{Backend{Name: "event-twice", Lanes: 1, Lazy: true, Open: func(t *testing.T, spec *monitor.Spec, _ Mode, onVerdict func(monitor.Verdict)) monitor.Runtime {
			return &twice{Engine: engine(t, spec, onVerdict), k: 100}
		}}, true},
	} {
		t.Run(c.b.Name, func(t *testing.T) {
			f := &failures{TB: t}
			settle(f, reference(t, s, m.GC, c.b.Lazy), c.b.run(t, s, m, 0), c.b, m)
			if failed := len(f.got) > 0; failed != c.fail {
				t.Errorf("settle failed = %v, want %v: %q", failed, c.fail, f.got)
			}
		})
	}
}

// TestSettleExclusions holds each exclusion of settle to its table: a
// counter moved where the table leaves it out passes, and the same move
// anywhere else fails.
func TestSettleExclusions(t *testing.T) {
	ref := monitor.Stats{Events: 100, Created: 40, Flagged: 30, Collected: 30, GoalVerdicts: 5, Steps: 90, Avoided: 6, Live: 10, PeakLive: 20}
	one := Backend{Name: "one", Lanes: 1}
	lazy := Backend{Name: "lazy", Lanes: 1, Lazy: true}
	four := Backend{Name: "four", Lanes: 4}
	handoff := Backend{Name: "handoff", Lanes: 16, Kill: func() error { return nil }}
	off := Mode{GC: monitor.GCCoenable}
	audit := Mode{GC: monitor.GCCoenable, Avoid: monitor.AvoidAudit}
	enforce := Mode{GC: monitor.GCCoenable, Avoid: monitor.AvoidEnforce}
	sweep := Mode{GC: monitor.GCCoenable, SweepInterval: 16}
	for _, c := range []struct {
		name string
		b    Backend
		m    Mode
		edit func(*monitor.Stats)
		fail bool
	}{
		{"identical", one, audit, func(*monitor.Stats) {}, false},
		{"peak exact with one lane", one, audit, func(s *monitor.Stats) { s.PeakLive++ }, true},
		{"peak above with lanes", four, audit, func(s *monitor.Stats) { s.PeakLive += 7 }, false},
		{"peak below with lanes", four, audit, func(s *monitor.Stats) { s.PeakLive-- }, true},
		{"peak any positive across handoffs", handoff, audit, func(s *monitor.Stats) { s.PeakLive = 1 }, false},
		{"peak zero across handoffs", handoff, audit, func(s *monitor.Stats) { s.PeakLive = 0 }, true},
		{"peak moved by the sweep schedule", lazy, sweep, func(s *monitor.Stats) { s.PeakLive = 3; s.Avoided = 0 }, false},
		{"peak moved under a sweep interval, positioned", one, sweep, func(s *monitor.Stats) { s.PeakLive = 3; s.Avoided = 0 }, true},
		{"unguarded counts nothing", one, off, func(s *monitor.Stats) { s.Avoided = 0 }, false},
		{"unguarded counting guards", one, off, func(*monitor.Stats) {}, true},
		{"audit counts differently", one, audit, func(s *monitor.Stats) { s.Avoided-- }, true},
		{"audit creates differently", one, audit, func(s *monitor.Stats) { s.Created-- }, true},
		{"enforce suppresses what audit counted", one, enforce, func(s *monitor.Stats) {
			s.Created -= 6
			s.Flagged, s.Collected, s.Steps, s.Live, s.PeakLive = 24, 24, 80, 10, 15
		}, false},
		{"enforce breaks the creation identity", one, enforce, func(s *monitor.Stats) { s.Created -= 5 }, true},
		{"enforce avoids otherwise than audit", one, enforce, func(s *monitor.Stats) { s.Created -= 5; s.Avoided = 5 }, true},
		{"enforce suppressing, events differ", one, enforce, func(s *monitor.Stats) { s.Created -= 6; s.Events++ }, true},
		{"flags moved by the sweep schedule", lazy, sweep, func(s *monitor.Stats) { s.Flagged--; s.Steps++; s.Avoided = 0 }, false},
		{"flags moved under a sweep interval, positioned", one, sweep, func(s *monitor.Stats) { s.Flagged--; s.Avoided = 0 }, true},
		{"steps moved under a sweep interval, positioned", four, sweep, func(s *monitor.Stats) { s.Steps++; s.Avoided = 0 }, true},
		{"flags moved on the default schedule", one, audit, func(s *monitor.Stats) { s.Flagged-- }, true},
		{"steps moved on the default schedule", four, audit, func(s *monitor.Stats) { s.Steps++ }, true},
		{"collections moved by the sweep schedule", lazy, sweep, func(s *monitor.Stats) { s.Collected--; s.Avoided = 0 }, true},
	} {
		got := ref
		c.edit(&got)
		f := &failures{TB: t}
		settle(f, outcome{stats: ref}, outcome{stats: got}, c.b, c.m)
		if failed := len(f.got) > 0; failed != c.fail {
			t.Errorf("%s: settle failed = %v, want %v: %q", c.name, failed, c.fail, f.got)
		}
	}
}

// TestVacuousStreams holds reference's vacuity rule to what each stream
// asks: events always, a verdict and a coenable collection only of a
// stream made Exercising.
func TestVacuousStreams(t *testing.T) {
	plain := Random(Prop(t, "UnsafeIter"), 0, 10)
	busy := monitor.Stats{Events: 10, Collected: 3}
	some := map[string][]string{"c=o0 i=o1 ": {"2/match"}}
	for _, c := range []struct {
		name  string
		s     Stream
		gc    monitor.GCPolicy
		ref   outcome
		fails bool
	}{
		{"no events", plain, monitor.GCNone, outcome{}, true},
		{"plain, nothing else", plain, monitor.GCCoenable, outcome{stats: monitor.Stats{Events: 10}}, false},
		{"exercising, no verdict", plain.Exercising(), monitor.GCNone, outcome{stats: busy}, true},
		{"exercising, nothing collected under coenable", plain.Exercising(), monitor.GCCoenable, outcome{verdicts: some, stats: monitor.Stats{Events: 10}}, true},
		{"exercising, nothing collected under alldead", plain.Exercising(), monitor.GCAllDead, outcome{verdicts: some, stats: monitor.Stats{Events: 10}}, false},
		{"exercising, both", plain.Exercising(), monitor.GCCoenable, outcome{verdicts: some, stats: busy}, false},
	} {
		if why := vacuous(c.s, c.gc, c.ref); (why != "") != c.fails {
			t.Errorf("%s: vacuous = %q, want a reason %v", c.name, why, c.fails)
		}
	}
}
