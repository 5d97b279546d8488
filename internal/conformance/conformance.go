// Package conformance is the backend-independent monitor.Runtime test
// suite. Its differential harness, Diff, replays one Stream through a
// table of Backends under a table of Modes and holds every run to the
// sequential engine's run of the same stream (the slicing semantics every
// backend must keep); settle is its one comparison and states every
// exclusion once. RunEmitNamed holds a backend to EmitNamed's error
// contract.
package conformance

import (
	"fmt"
	"strings"
	"testing"

	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
)

// Backend is one runtime under test.
type Backend struct {
	Name string
	// Lanes is how many engines the backend runs: 1 for the sequential
	// engine or a one-shard session, the shard count, a cluster's slots.
	Lanes int
	// ByID feeds the backend through DispatchIDs and FreeIDs.
	ByID bool
	// Lazy marks a backend that finds its own deaths — the sequential
	// engine fed refs, whose Free positions nothing, sweeps for them and
	// collects what it finds as it collects a positioned death: Diff
	// holds it to the lazy reference, whose sweeps find the same deaths at
	// the same events, and every other backend to the positioned one.
	Lazy bool
	// Open builds the backend for spec under m, delivering verdicts to
	// onVerdict. The harness closes what it returns.
	Open func(t *testing.T, spec *monitor.Spec, m Mode, onVerdict func(monitor.Verdict)) monitor.Runtime
	// Join, Kill and Leave, when set, change a cluster's membership
	// mid-stream (see Backend.run): admit a node, destroy one without a
	// goodbye, drain one out.
	Join, Kill, Leave func() error
}

// Engine is the sequential engine fed refs: the lazy reference, and a
// backend like any other.
var Engine = Backend{Name: "engine", Lanes: 1, Lazy: true, Open: openEngine}

// EngineIDs is the sequential engine fed by ID, as a server session or a
// trace replay feeds it: the positioned reference.
var EngineIDs = Backend{Name: "engine-ids", Lanes: 1, ByID: true, Open: openEngine}

// engineHeld is the sequential engine holding the refs of a workload
// stream and positioning each death, as a shard worker does: the
// positioned reference of a stream that is fed by ref only.
var engineHeld = Backend{Name: "engine-held", Lanes: 1, Open: func(t *testing.T, spec *monitor.Spec, m Mode, onVerdict func(monitor.Verdict)) monitor.Runtime {
	return held{openEngine(t, spec, m, onVerdict).(*monitor.Engine)}
}}

// held feeds an engine refs through DispatchHeld and each Free as FreeIDs.
type held struct{ *monitor.Engine }

func (h held) Dispatch(sym int, theta param.Instance) { h.DispatchHeld(sym, theta) }

func (h held) Free(ref heap.Ref) {
	id := [1]uint64{ref.ID()}
	h.FreeIDs(id[:])
}

func openEngine(t *testing.T, spec *monitor.Spec, m Mode, onVerdict func(monitor.Verdict)) monitor.Runtime {
	eng, err := monitor.New(spec, m.Options(onVerdict))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// Mode is one engine configuration a backend runs under: its GC policy,
// creation-avoidance mode and sweep interval (0, the default schedule).
// Creation is always enable-set, the only strategy every backend runs.
type Mode struct {
	GC            monitor.GCPolicy
	Avoid         monitor.AvoidMode
	SweepInterval int
}

// Options is m as engine options.
func (m Mode) Options(onVerdict func(monitor.Verdict)) monitor.Options {
	return monitor.Options{
		GC:            m.GC,
		Creation:      monitor.CreateEnable,
		Avoid:         m.Avoid,
		SweepInterval: m.SweepInterval,
		OnVerdict:     onVerdict,
	}
}

// variant names what m changes beyond its GC policy, or "".
func (m Mode) variant() string {
	var parts []string
	if m.Avoid != monitor.AvoidOff {
		parts = append(parts, m.Avoid.String())
	}
	if m.SweepInterval != 0 {
		parts = append(parts, fmt.Sprintf("sweep%d", m.SweepInterval))
	}
	return strings.Join(parts, "-")
}

var gcPolicies = []monitor.GCPolicy{monitor.GCNone, monitor.GCAllDead, monitor.GCCoenable}

// GCModes is one mode per GC policy.
func GCModes() []Mode {
	var out []Mode
	for _, gc := range gcPolicies {
		out = append(out, Mode{GC: gc})
	}
	return out
}

// AvoidModes is every GC policy in audit and in enforce mode.
func AvoidModes() []Mode {
	var out []Mode
	for _, gc := range gcPolicies {
		out = append(out, Mode{GC: gc, Avoid: monitor.AvoidAudit}, Mode{GC: gc, Avoid: monitor.AvoidEnforce})
	}
	return out
}

// SweepModes is every GC policy swept after every event and every 16.
func SweepModes() []Mode {
	var out []Mode
	for _, gc := range gcPolicies {
		out = append(out, Mode{GC: gc, SweepInterval: 1}, Mode{GC: gc, SweepInterval: 16})
	}
	return out
}

// RunEmitNamed exercises the EmitNamed error contract on a backend:
// unknown event names and arity mismatches must come back as errors (not
// panics, not silent drops), must not dispatch anything, and must leave
// the runtime usable; correct calls must dispatch and reach verdicts.
func RunEmitNamed(t *testing.T, b Backend, m Mode) {
	spec := Prop(t, "UnsafeIter")
	t.Run("UnknownEvent", func(t *testing.T) {
		rt := b.Open(t, spec, m, nil)
		defer rt.Close()
		h := heap.New()
		err := monitor.EmitNamed(rt, "nosuchevent", h.Alloc("x"))
		if err == nil {
			t.Fatal("EmitNamed with an unknown event name returned nil error")
		}
		if !strings.Contains(err.Error(), "nosuchevent") {
			t.Errorf("error %q does not name the offending event", err)
		}
		rt.Barrier()
		if got := rt.Stats().Events; got != 0 {
			t.Errorf("unknown event dispatched anyway: Events = %d, want 0", got)
		}
	})

	t.Run("WrongArity", func(t *testing.T) {
		rt := b.Open(t, spec, m, nil)
		defer rt.Close()
		h := heap.New()
		c, i := h.Alloc("c"), h.Alloc("i")
		// create binds (c, i): two values.
		for _, vals := range [][]heap.Ref{{}, {c}, {c, i, h.Alloc("z")}} {
			err := monitor.EmitNamed(rt, "create", vals...)
			if err == nil {
				t.Fatalf("EmitNamed(create, %d values) returned nil error, want arity error", len(vals))
			}
			if !strings.Contains(err.Error(), "2") {
				t.Errorf("arity error %q does not state the expected arity", err)
			}
		}
		rt.Barrier()
		if got := rt.Stats().Events; got != 0 {
			t.Errorf("misfired events dispatched: Events = %d, want 0", got)
		}
		// The runtime must still be usable after rejected calls.
		if err := monitor.EmitNamed(rt, "create", c, i); err != nil {
			t.Fatalf("valid EmitNamed after rejected calls: %v", err)
		}
		rt.Barrier()
		if got := rt.Stats().Events; got != 1 {
			t.Errorf("after valid EmitNamed: Events = %d, want 1", got)
		}
	})

	t.Run("VerdictDelivery", func(t *testing.T) {
		var verdicts []string
		done := make(chan struct{})
		rt := b.Open(t, spec, m, func(v monitor.Verdict) {
			if why := keyMismatch(v, false); why != "" {
				t.Error(why)
			}
			verdicts = append(verdicts, string(v.Cat)+"@"+v.Inst.Format(v.Spec.Params))
			close(done)
		})
		defer rt.Close()
		h := heap.New()
		c, i := h.Alloc("c"), h.Alloc("i")
		// The UNSAFEITER violation: create, update, then use the iterator.
		for _, step := range []struct {
			ev   string
			vals []heap.Ref
		}{
			{"create", []heap.Ref{c, i}},
			{"update", []heap.Ref{c}},
			{"next", []heap.Ref{i}},
		} {
			if err := monitor.EmitNamed(rt, step.ev, step.vals...); err != nil {
				t.Fatalf("EmitNamed(%s): %v", step.ev, err)
			}
		}
		rt.Barrier()
		select {
		case <-done:
		default:
			t.Fatal("no verdict delivered before Barrier returned")
		}
		want := "match@<c=c, i=i>"
		if len(verdicts) != 1 || verdicts[0] != want {
			t.Errorf("verdicts = %v, want [%s]", verdicts, want)
		}
		st := rt.Stats()
		if st.Events != 3 || st.GoalVerdicts != 1 {
			t.Errorf("stats = %+v, want Events=3 GoalVerdicts=1", st)
		}
	})
}
