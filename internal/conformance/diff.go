package conformance

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"rvgo/internal/monitor"
	"rvgo/internal/param"
)

// Diff replays s through every backend under every mode and holds each
// run to the sequential engine's run of the same stream: per-slice verdict
// sequences and the settled counters, under settle's exclusions. A lazy
// backend is held to the sequential engine fed refs (Engine), and every
// other, which positions its deaths, to the sequential engine positioning
// them too (fed by ID, or holding a workload's refs). The cells are
// subtests named policy[/variant]/backend; each reference runs once per GC
// policy, under audit (see settle).
func Diff(t *testing.T, s Stream, backends []Backend, modes []Mode) {
	t.Helper()
	for _, gc := range gcPolicies {
		var under []Mode
		for _, m := range modes {
			if m.GC == gc {
				under = append(under, m)
			}
		}
		if len(under) == 0 {
			continue
		}
		t.Run(gc.String(), func(t *testing.T) {
			var refs [2]outcome // positioned, lazy
			ref := func(b Backend) *outcome {
				if b.Lazy {
					return &refs[1]
				}
				return &refs[0]
			}
			for _, b := range backends {
				if r := ref(b); r.verdicts == nil {
					*r = reference(t, s, gc, b.Lazy)
				}
			}
			for _, m := range under {
				cells := func(t *testing.T) {
					for _, b := range backends {
						want := *ref(b)
						t.Run(b.Name, func(t *testing.T) {
							settle(t, want, b.run(t, s, m, want.stats.Events), b, m)
						})
					}
				}
				if v := m.variant(); v != "" {
					t.Run(v, cells)
				} else {
					cells(t)
				}
			}
		})
	}
}

// reference runs s (or the stream it is held against) on the sequential
// engine under gc, enable-set creation, the default sweep schedule and
// audit-mode avoidance — fed refs when lazy, else with every death
// positioned — and fails a stream that tests nothing.
func reference(t *testing.T, s Stream, gc monitor.GCPolicy, lazy bool) outcome {
	t.Helper()
	rs := s
	if s.ref != nil {
		rs = *s.ref
	}
	b := Engine
	switch {
	case lazy:
	case rs.lazy:
		t.Fatalf("%s: a stream with unannounced deaths has no positioned reference", rs.Name)
	case rs.workload != nil:
		b = engineHeld
	default:
		b = EngineIDs
	}
	ref := b.run(t, rs, Mode{GC: gc, Avoid: monitor.AvoidAudit}, 0)
	if why := vacuous(s, gc, ref); why != "" {
		t.Fatalf("%s: %s", rs.Name, why)
	}
	return ref
}

// vacuous says why the reference run ref of s under gc checks nothing s
// asks of it, or "".
func vacuous(s Stream, gc monitor.GCPolicy, ref outcome) string {
	switch {
	case ref.stats.Events == 0:
		return "the stream drove no events"
	case s.verdicts && len(ref.verdicts) == 0:
		return fmt.Sprintf("the reference delivered no verdict under %s", gc)
	case s.collects != monitor.GCNone && gc >= s.collects && ref.stats.Collected == 0:
		return fmt.Sprintf("the reference collected no monitor under %s", gc)
	}
	return ""
}

// outcome is one run's observable result.
type outcome struct {
	// verdicts maps a slice — its objects' ordinals — to its verdicts in
	// delivery order, each "sym/category". Backends may interleave slices
	// but must deliver each slice's verdicts in order.
	verdicts map[string][]string
	stats    monitor.Stats
}

// run opens b under m, feeds it s, and returns its outcome. A backend with
// membership levers pulls Join, Kill and Leave at a third, a half and two
// thirds of events (the reference's event count); a backend that reports
// an error state must end without one.
func (b Backend) run(t *testing.T, s Stream, m Mode, events uint64) outcome {
	t.Helper()
	got := outcome{verdicts: map[string][]string{}}
	var mu sync.Mutex
	rt := b.Open(t, s.Spec, m, func(v monitor.Verdict) {
		if why := keyMismatch(v, b.ByID); why != "" {
			t.Errorf("%s: verdict %d/%s: %s", b.Name, v.Sym, v.Cat, why)
		}
		k := sliceKey(s.Spec, v.Key)
		mu.Lock()
		got.verdicts[k] = append(got.verdicts[k], fmt.Sprintf("%d/%s", v.Sym, v.Cat))
		mu.Unlock()
	})
	fed := rt
	if b.Join != nil || b.Kill != nil || b.Leave != nil {
		fed = &membership{Runtime: rt, t: t, at: [3]uint64{events / 3, events / 2, 2 * events / 3}, levers: [3]func() error{b.Join, b.Kill, b.Leave}}
	}
	s.feed(t, fed, b.ByID)
	rt.Flush()
	got.stats = rt.Stats()
	rt.Close()
	if e, ok := rt.(interface{ Err() error }); ok && e.Err() != nil {
		t.Errorf("%s ended in error: %v", b.Name, e.Err())
	}
	return got
}

// sliceKey renders a verdict's instance by object ordinal (ID − 1), which
// is the same whether the objects were refs or IDs.
func sliceKey(spec *monitor.Spec, k param.Key) string {
	var b strings.Builder
	for m := k.Mask; !m.Empty(); m = m.Rest() {
		i := m.First()
		fmt.Fprintf(&b, "%s=o%d ", spec.Params[i], k.IDs[i]-1)
	}
	return b.String()
}

// keyMismatch says how a verdict's two names for its instance disagree, or
// "": a runtime fed refs names the objects of its Key in Inst too, one fed
// by ID leaves Inst ⊥. Slices are keyed by Key, so Diff holds an ID-fed
// backend's Key to the reference's, and a reference fed refs has Key =
// Inst.Key().
func keyMismatch(v monitor.Verdict, byID bool) string {
	switch {
	case byID && v.Inst.Mask() != 0:
		return fmt.Sprintf("fed by ID, it set Inst %v", v.Inst)
	case !byID && v.Key != v.Inst.Key():
		return fmt.Sprintf("Key %v is not Inst.Key() %v", v.Key, v.Inst.Key())
	}
	return ""
}

// settle holds a backend's outcome to the reference's under mode m. It is
// the harness's only comparison: every exclusion is stated here, once.
func settle(t testing.TB, want, got outcome, b Backend, m Mode) {
	t.Helper()
	if d := diffVerdicts(want.verdicts, got.verdicts); d != "" {
		t.Error(d)
	}
	w, g := want.stats, got.stats
	// Only a lazy engine sweeps on a schedule; a positioned one collects
	// at its frees and events whatever the interval.
	sweepVariant := m.SweepInterval != 0 && b.Lazy
	suppressed := m.Avoid == monitor.AvoidEnforce && g.Avoided != 0
	switch {
	case sweepVariant || suppressed:
		// PeakLive follows when a sweep discovers each death and how many
		// monitors exist at all: another sweep schedule, or creations an
		// enforced guard suppressed, move it either way.
	case b.Join != nil || b.Kill != nil || b.Leave != nil:
		// A handoff rebuilds a slot's engine from its journal on another
		// node and flushes it; the sum of peaks across the engines a slot
		// lived in bounds nothing, so it need only be positive.
		if g.PeakLive <= 0 {
			t.Errorf("PeakLive = %d, want positive", g.PeakLive)
		}
	case b.Lanes == 1:
		// One engine collecting where the reference does peaks exactly
		// where the reference does.
		if g.PeakLive != w.PeakLive {
			t.Errorf("PeakLive = %d, want the sequential peak %d", g.PeakLive, w.PeakLive)
		}
	default:
		// Several engines each sample their own peak; their sum is at
		// least the sequential peak.
		if g.PeakLive < w.PeakLive {
			t.Errorf("PeakLive = %d, below the sequential peak %d", g.PeakLive, w.PeakLive)
		}
	}
	w.PeakLive, g.PeakLive = 0, 0
	switch m.Avoid {
	case monitor.AvoidOff:
		// The reference audits its creations (audit only counts), so its
		// Avoided is the guards' hit count; an unguarded backend counts
		// nothing and must say 0.
		w.Avoided = 0
	case monitor.AvoidEnforce:
		// Every suppressed creation is one the reference made, and the
		// guards hit where audit counted them.
		if g.Created+g.Avoided != w.Created {
			t.Errorf("Created %d + Avoided %d != the unguarded Created %d", g.Created, g.Avoided, w.Created)
		}
		w.Created = g.Created
		if suppressed {
			// A suppressed monitor takes its flags, steps, collection and
			// live count with it.
			w.Flagged, w.Steps, w.Collected, w.Live = g.Flagged, g.Steps, g.Collected, g.Live
		}
	}
	if sweepVariant {
		// Flagged and Steps still depend on when a sweep discovers a
		// death: a monitor found dead later may first be flagged by its
		// own termination, or step once more.
		w.Flagged, w.Steps = g.Flagged, g.Steps
	}
	if w != g {
		t.Errorf("settled counters diverge:\n  got  %+v\n  want %+v", got.stats, want.stats)
	}
}

// diffVerdicts names the first slice whose verdicts differ, or "".
func diffVerdicts(want, got map[string][]string) string {
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if fmt.Sprint(got[k]) != fmt.Sprint(want[k]) {
			return fmt.Sprintf("slice <%s>: verdicts %v, want %v", strings.TrimSpace(k), got[k], want[k])
		}
	}
	return ""
}

// membership pulls a backend's levers (Join, Kill, Leave) when the count
// of dispatched events reaches each one's point. The drivers are
// single-threaded, so the count needs no synchronization.
type membership struct {
	monitor.Runtime
	t      *testing.T
	n      uint64
	at     [3]uint64
	levers [3]func() error
}

func (m *membership) Dispatch(sym int, theta param.Instance) {
	m.Runtime.Dispatch(sym, theta)
	m.n++
	for i, at := range m.at {
		if m.n == at && m.levers[i] != nil {
			if err := m.levers[i](); err != nil {
				m.t.Errorf("%s at event %d: %v", [3]string{"join", "kill", "leave"}[i], m.n, err)
			}
		}
	}
}
