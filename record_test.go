package rvgo_test

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rvgo"
	"rvgo/internal/monitor"
	"rvgo/internal/trace"
	"rvgo/spec"
)

// driveUnsafeIter runs a small UNSAFEITER workload with explicit deaths
// through m: half the iterators observe an update between create and next
// (a violation), half do not.
func driveUnsafeIter(t *testing.T, m *rvgo.Monitor, h *rvgo.Heap) {
	t.Helper()
	create, update, next := m.MustEvent("create"), m.MustEvent("update"), m.MustEvent("next")
	c := h.Alloc("c")
	for r := 0; r < 20; r++ {
		it := h.Alloc(fmt.Sprintf("i%d", r))
		create.Emit(c, it)
		if r%2 == 1 {
			update.Emit(c)
		}
		next.Emit(it)
		m.Free(it)
		h.Free(it)
	}
	m.Free(c)
	h.Free(c)
}

func verdictKey(v rvgo.Verdict) string {
	k := v.Inst.Key()
	return fmt.Sprintf("%d/%s/%v/%v", v.Sym, v.Cat, k.Mask, k.IDs)
}

// TestRecordReplayMatchesOnline is the façade half of the retro oracle:
// a run recorded with WithRecord and replayed from disk through a fresh
// sequential engine yields bit-identical verdicts and settled counters,
// whether the online backend was sequential or sharded.
func TestRecordReplayMatchesOnline(t *testing.T) {
	sp, err := spec.Builtin("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	for _, bk := range []struct {
		name string
		opts []rvgo.Option
	}{
		{"seq", nil},
		{"shard4", []rvgo.Option{rvgo.WithShards(4)}},
	} {
		t.Run(bk.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.rvt")
			var online []string
			opts := append([]rvgo.Option{
				rvgo.WithRecord(path),
				rvgo.WithVerdictHandler(func(v rvgo.Verdict) { online = append(online, verdictKey(v)) }),
			}, bk.opts...)
			m, err := rvgo.New(sp, opts...)
			if err != nil {
				t.Fatal(err)
			}
			driveUnsafeIter(t, m, rvgo.NewHeap())
			m.Flush()
			onlineStats := m.Stats()
			m.Close()
			if err := m.Err(); err != nil {
				t.Fatalf("recording error: %v", err)
			}

			r, err := trace.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if r.Truncated() {
				t.Fatal("clean close left a truncated trace")
			}
			var retro []string
			eng, err := monitor.New(sp.Compiled(), monitor.Options{
				GC:       monitor.GCCoenable,
				Creation: monitor.CreateEnable,
				OnVerdict: func(v monitor.Verdict) {
					retro = append(retro, verdictKey(v))
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Replay(eng, trace.ReplayOptions{}); err != nil {
				t.Fatal(err)
			}
			eng.Flush()
			retroStats := eng.Stats()
			eng.Close()

			sort.Strings(online)
			sort.Strings(retro)
			if fmt.Sprint(online) != fmt.Sprint(retro) {
				t.Errorf("verdicts diverge:\n  online %v\n  retro  %v", online, retro)
			}
			if bk.name == "seq" && onlineStats != retroStats {
				t.Errorf("settled stats diverge:\n  online %+v\n  retro  %+v", onlineStats, retroStats)
			}
			// Across backends the slice-level counters must still agree.
			if onlineStats.Events != retroStats.Events ||
				onlineStats.Created != retroStats.Created ||
				onlineStats.GoalVerdicts != retroStats.GoalVerdicts {
				t.Errorf("counters diverge: online %+v retro %+v", onlineStats, retroStats)
			}
		})
	}
}

// TestRecordFlushSealsSegment pins the durability contract: after Flush
// the on-disk trace already contains every record so far.
func TestRecordFlushSealsSegment(t *testing.T) {
	sp, err := spec.Builtin("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flush.rvt")
	m, err := rvgo.New(sp, rvgo.WithRecord(path))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h := rvgo.NewHeap()
	it := h.Alloc("it")
	m.MustEvent("hasnexttrue").Emit(it)
	m.MustEvent("next").Emit(it)
	m.Flush()
	r, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Records(); got != 2 {
		t.Errorf("records visible after Flush = %d, want 2", got)
	}
}

// TestFlightRecorderWindow covers WithFlightRecorder and LastWindow: the
// window behind a failure verdict holds the recent events and deaths that
// led to it, oldest first, and unknown refs return nil.
func TestFlightRecorderWindow(t *testing.T) {
	sp, err := spec.Builtin("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	m, err := rvgo.New(sp, rvgo.WithFlightRecorder(8))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h := rvgo.NewHeap()
	hnT, next := m.MustEvent("hasnexttrue"), m.MustEvent("next")
	// Noise that must scroll out of the 8-slot ring.
	for i := 0; i < 10; i++ {
		noise := h.Alloc(fmt.Sprintf("n%d", i))
		hnT.Emit(noise)
		m.Free(noise)
		h.Free(noise)
	}
	bad := h.Alloc("bad")
	hnT.Emit(bad)
	next.Emit(bad)
	next.Emit(bad) // next without hasNext: error verdict on bad
	win := m.LastWindow(bad)
	if win == nil {
		t.Fatal("LastWindow(bad) = nil after a verdict on bad")
	}
	var evs []string
	for _, e := range win {
		if e.Free {
			evs = append(evs, "free")
		} else {
			evs = append(evs, e.Event)
		}
	}
	s := strings.Join(evs, " ")
	if !strings.HasSuffix(s, "hasnexttrue next next") {
		t.Errorf("window = %q, want suffix %q", s, "hasnexttrue next next")
	}
	last := win[len(win)-1]
	if len(last.IDs) != 1 || last.IDs[0] != bad.ID() {
		t.Errorf("last window entry binds %v, want [%d]", last.IDs, bad.ID())
	}
	for i := 1; i < len(win); i++ {
		if win[i].Seq != win[i-1].Seq+1 {
			t.Errorf("window seqs not contiguous: %d then %d", win[i-1].Seq, win[i].Seq)
		}
	}
	if m.LastWindow(h.Alloc("never")) != nil {
		t.Error("LastWindow of an unmentioned ref is not nil")
	}
	if m.LastWindow(nil) != nil {
		t.Error("LastWindow(nil) is not nil")
	}
}

// TestRecordOptionValidation pins the construction-time errors of the new
// options.
func TestRecordOptionValidation(t *testing.T) {
	sp, err := spec.Builtin("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rvgo.New(sp, rvgo.WithRecord("")); err == nil || !strings.Contains(err.Error(), "WithRecord") {
		t.Errorf("WithRecord(\"\") error = %v", err)
	}
	if _, err := rvgo.New(sp, rvgo.WithFlightRecorder(0)); err == nil || !strings.Contains(err.Error(), "WithFlightRecorder") {
		t.Errorf("WithFlightRecorder(0) error = %v", err)
	}
	if _, err := rvgo.New(sp, rvgo.WithRecord(filepath.Join(t.TempDir(), "no", "such", "dir", "t.rvt"))); err == nil {
		t.Error("WithRecord into a missing directory did not fail at New")
	}
}

// TestEmitArityMismatch: Monitor.Emit with fewer values than the event
// binds panics with param.Of's message on every runtime, tapped or not —
// the recorders see the event only through Dispatch, after the binding.
func TestEmitArityMismatch(t *testing.T) {
	sp, err := spec.Builtin("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string][]rvgo.Option{
		"plain":  nil,
		"flight": {rvgo.WithFlightRecorder(8)},
		"record": {rvgo.WithRecord(filepath.Join(t.TempDir(), "arity.rvt"))},
	} {
		t.Run(name, func(t *testing.T) {
			m, err := rvgo.New(sp, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			create, ok := m.Spec().Symbol("create")
			if !ok {
				t.Fatal("UnsafeIter has no create event")
			}
			c := rvgo.NewHeap().Alloc("c")
			defer func() {
				if r := recover(); fmt.Sprint(r) != "param: Of arity mismatch" {
					t.Errorf("Emit(create, c) panicked with %v, want param: Of arity mismatch", r)
				}
			}()
			m.Emit(create, c)
		})
	}
}
