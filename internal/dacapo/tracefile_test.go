package dacapo

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
	"rvgo/internal/trace"
)

// stepShape reduces a step to its persisted identity: operand IDs, op and
// flags (labels are not persisted).
type stepShape struct {
	death            uint64
	op               Op
	flags            int
	coll, iter, mref uint64
}

func shapes(t *Trace) []stepShape {
	out := make([]stepShape, len(t.Steps))
	for i, st := range t.Steps {
		if st.Death != nil {
			out[i] = stepShape{death: st.Death.ID()}
			continue
		}
		out[i] = stepShape{
			op: st.Ev.Op, flags: eventFlags(st.Ev),
			coll: refID(st.Ev.Coll), iter: refID(st.Ev.Iter), mref: refID(st.Ev.Map),
		}
	}
	return out
}

func recordSmall(t *testing.T) *Trace {
	t.Helper()
	p, ok := Get("avrora")
	if !ok {
		t.Fatal("no avrora profile")
	}
	tr, err := p.Record(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) == 0 {
		t.Fatal("empty recording")
	}
	return tr
}

// monitorTrace replays a trace through a fresh sequential engine and
// returns its settled stats — the behavioural fingerprint a persisted
// trace must preserve.
func monitorTrace(t *testing.T, tr *Trace, prop string) monitor.Stats {
	t.Helper()
	spec, err := props.Build(prop)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sink, err := Adapt(prop, eng)
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	h.SetFreeHook(func(o *heap.Object) { eng.Free(o) })
	tr.Replay(h, sink, nil)
	eng.Flush()
	return eng.Stats()
}

func TestTraceFileRoundTrip(t *testing.T) {
	tr := recordSmall(t)
	path := filepath.Join(t.TempDir(), "avrora.rvt")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := shapes(tr)
	have := shapes(got)
	if len(want) != len(have) {
		t.Fatalf("reread %d steps, recorded %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("step %d: reread %+v, recorded %+v", i, have[i], want[i])
		}
	}
	// The persisted trace must monitor identically to the live recording.
	if w, g := monitorTrace(t, tr, "UnsafeIter"), monitorTrace(t, got, "UnsafeIter"); w != g {
		t.Fatalf("reread trace monitors differently: %+v vs %+v", g, w)
	}
}

// TestTraceFileNotTrace: a file that is not a segment trace — text
// included — is refused with trace.ErrNotTrace.
func TestTraceFileNotTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "text.txt")
	if err := os.WriteFile(path, []byte("# rvgo dacapo trace\ne 0 0 1 2 0\nf 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTraceFile(path); !errors.Is(err, trace.ErrNotTrace) {
		t.Fatalf("ReadTraceFile(text) = %v, want trace.ErrNotTrace", err)
	}
}

func TestTraceFileMissing(t *testing.T) {
	if _, err := ReadTraceFile(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing file accepted")
	}
}
