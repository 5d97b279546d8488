// Package conformance is the backend-independent monitor.Runtime test
// suite. Every backend — the sequential engine, the sharded runtime, and
// the remote client — must pass it; each backend's test package invokes
// the suite with a factory building that backend.
package conformance

import (
	"strings"
	"testing"

	"rvgo/internal/heap"
	"rvgo/internal/monitor"
)

// Factory builds one backend instance for the given property, wired to
// the verdict handler. The suite closes every runtime it builds.
type Factory func(t *testing.T, prop string, onVerdict func(monitor.Verdict)) monitor.Runtime

// RunEmitNamed exercises the EmitNamed error contract on a backend:
// unknown event names and arity mismatches must come back as errors (not
// panics, not silent drops), must not dispatch anything, and must leave
// the runtime usable; correct calls must dispatch and reach verdicts.
func RunEmitNamed(t *testing.T, build Factory) {
	t.Run("UnknownEvent", func(t *testing.T) {
		rt := build(t, "UnsafeIter", nil)
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
		rt := build(t, "UnsafeIter", nil)
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
		rt := build(t, "UnsafeIter", func(v monitor.Verdict) {
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
