package eval_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rvgo/internal/eval"
	"rvgo/internal/heap"
	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden from the current counters")

// Golden workload sizes. The grid scale keeps the whole default grid in a
// few seconds; the avoid tier runs at the scale where every guard leg has
// creations to suppress.
const (
	goldenScale      = 0.02
	goldenAvoidScale = 0.05
	churnEvents      = 200_000
)

// TestPaperGolden pins the paper's evaluation counters in one text file:
// the Figure 10 and Retained tables, one line per cell of the default grid
// (every Stats field of every system, plus each benchmark's ALL row), the
// creation-avoidance legs and sites, and the telemetry churn row. All of
// them are deterministic, so any change is a semantic change and shows up
// as a line diff naming its cell. Regenerate with
// `go test ./internal/eval -run TestPaperGolden -update` after a
// deliberate change, and review the diff.
func TestPaperGolden(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# The paper's evaluation counters (grid scale %g, avoid scale %g).\n", goldenScale, goldenAvoidScale)
	fmt.Fprintf(&buf, "# Regenerate: go test ./internal/eval -run TestPaperGolden -update\n\n")
	// The avoid tier and the churn row run beside the grid: they share no
	// state with it, and the grid is most of the test's time.
	var rest bytes.Buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		writeAvoid(t, &rest)
		writeChurn(t, &rest)
	}()
	defer func() { <-done }() // a Fatal in writeGrid still waits for it
	writeGrid(t, &buf)
	<-done
	if t.Failed() {
		t.FailNow()
	}
	buf.Write(rest.Bytes())

	path := filepath.Join("testdata", "paper.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v — run `go test ./internal/eval -run TestPaperGolden -update` to create it", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("counters differ from %s (- golden, + current):\n%s\nIf the change is deliberate, regenerate with -update and review the diff.",
			path, lineDiff(string(want), got))
	}
}

// writeGrid runs the default grid and writes its tables and cell lines.
// A timed-out cell fails the test: its counters would be partial.
func writeGrid(t *testing.T, w io.Writer) {
	cfg := eval.DefaultConfig()
	cfg.Scale = goldenScale
	res, err := eval.Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Fig10(w)
	res.Retained(w)
	fmt.Fprintln(w, "# bench/prop/system: settled counters (TM counts binding disjuncts)")
	for _, bench := range cfg.Benchmarks {
		for _, prop := range cfg.Properties {
			for _, sys := range cfg.Systems {
				c := res.Cells[bench][prop][sys]
				if c.TimedOut {
					t.Fatalf("%s/%s/%s timed out", bench, prop, sys)
				}
				if sys == eval.SysTM {
					fmt.Fprintf(w, "%s/%s/%s %+v\n", bench, prop, sys, c.TMStats)
				} else {
					fmt.Fprintf(w, "%s/%s/%s %+v\n", bench, prop, sys, c.Stats)
				}
			}
		}
		all := res.All[bench]
		if all.TimedOut {
			t.Fatalf("%s/ALL/RV timed out", bench)
		}
		fmt.Fprintf(w, "%s/ALL/RV %+v\n", bench, all.Stats)
	}
	fmt.Fprintln(w)
}

// writeAvoid runs the creation-avoidance tier and writes each leg's
// settled counters and identity verdict, then the per-site rows. It runs
// off the test goroutine, so it reports with Error, never Fatal; so does
// writeChurn.
func writeAvoid(t *testing.T, w io.Writer) {
	ar, err := eval.RunAvoid(eval.AvoidConfig{Scale: goldenAvoidScale})
	if err != nil {
		t.Error(err)
		return
	}
	if bad := ar.Verify(); len(bad) != 0 {
		t.Errorf("creation-avoidance tier fails its contract: %v", bad)
	}
	fmt.Fprintf(w, "# avoid %s/%s: %d/%d automaton states doomed\n", ar.Bench, ar.Prop, ar.DoomedStates, ar.TotalStates)
	for _, run := range ar.Runs {
		fmt.Fprintf(w, "avoid/%s identical=%v %+v\n", run.Label, run.Identical, run.Stats)
	}
	for _, s := range ar.Sites {
		fmt.Fprintf(w, "site/%s creation=%v static=%v created=%d restepped=%d goaled=%d profile=%v\n",
			s.Event, s.Creation, s.StaticGuard, s.Created, s.Restepped, s.ReachedGoal, s.ProfileGuard)
	}
	fmt.Fprintln(w)
}

// writeChurn drives generations of short-lived UnsafeIter iterators —
// create, next, death, update, update — through a sequential engine with a
// metrics registry attached, exactly as WithMetrics wires it, and writes
// the registry's settled counters and the arena occupancy at settle. The
// registry must agree with the engine's own counters.
func writeChurn(t *testing.T, w io.Writer) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Error(err)
		return
	}
	series := metrics.NewEngineSeries(metrics.NewRegistry(), "UnsafeIter", monitor.GCCoenable.String())
	eng, err := monitor.New(spec, monitor.Options{
		GC:            monitor.GCCoenable,
		Creation:      monitor.CreateEnable,
		SweepInterval: 256,
		Metrics:       series,
	})
	if err != nil {
		t.Error(err)
		return
	}
	h := heap.New()
	c := h.Alloc("c")
	create, _ := spec.Symbol("create")
	update, _ := spec.Symbol("update")
	next, _ := spec.Symbol("next")
	for i := 0; i < churnEvents; i += 4 {
		it := h.Alloc("")
		monitor.Emit(eng, create, c, it)
		monitor.Emit(eng, next, it)
		h.Free(it)
		monitor.Emit(eng, update, c)
		monitor.Emit(eng, update, c)
	}
	eng.Flush()
	// The arena gauges are read at settle: Close zeroes them.
	slabs, capacity, free := series.ArenaSlabs.Value(), series.ArenaCap.Value(), series.ArenaFree.Value()
	st, arena := eng.Stats(), eng.ArenaStats()
	recycled, reused := eng.PoolStats()
	eng.Close() // settles the final publication deltas into the registry

	reg := [...]uint64{series.Events.Value(), series.Created.Value(), series.Collected.Value(), series.Recycled.Value(), series.Reused.Value()}
	if want := [...]uint64{st.Events, st.Created, st.Collected, recycled, reused}; reg != want {
		t.Errorf("registry events/created/collected/recycled/reused %v, engine %v", reg, want)
	}
	if got, want := [...]int64{slabs, capacity, free}, [...]int64{int64(arena.Slabs), int64(arena.Cap), int64(arena.Free)}; got != want {
		t.Errorf("registry arena slabs/cap/free %v, engine %v", got, want)
	}
	fmt.Fprintf(w, "# churn: UnsafeIter, %d events, SweepInterval 256, registry counters and arena at settle\n", churnEvents)
	fmt.Fprintf(w, "churn events=%d created=%d collected=%d recycled=%d reused=%d sweeps=%d slabs=%d cap=%d free=%d\n",
		reg[0], reg[1], reg[2], reg[3], reg[4], series.Sweeps.Value(), slabs, capacity, free)
}

// lineDiff lists the lines of want missing from got (-) and the lines of
// got missing from want (+), each in its file's order. Every counter line
// names its cell, so that is the whole story of a counter change.
func lineDiff(want, got string) string {
	count := func(s string) map[string]int {
		m := map[string]int{}
		for _, l := range strings.Split(s, "\n") {
			m[l]++
		}
		return m
	}
	var b strings.Builder
	emit := func(s string, other map[string]int, mark string) {
		for _, l := range strings.Split(s, "\n") {
			if other[l] > 0 {
				other[l]--
			} else {
				fmt.Fprintf(&b, "%s %s\n", mark, l)
			}
		}
	}
	emit(want, count(got), "-")
	emit(got, count(want), "+")
	return b.String()
}
