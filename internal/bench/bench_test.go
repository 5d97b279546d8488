package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// declared mirrors the BENCHMARK.json fields this package must agree with.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func testConfig(t *testing.T) *config {
	return &config{seed: 1, scale: 0.02, seconds: 1, reps: 1, dir: t.TempDir(), out: io.Discard}
}

// TestDeclarations keeps BENCHMARK.json and the tool from drifting: the
// same workloads, and the same metrics with the same units, directions
// and bounds, in the same order.
func TestDeclarations(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads: BENCHMARK.json declares %v, the tool runs %v", names, have)
	}
	var e2e, layers []metricDef
	for _, m := range d.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range d.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better, 0})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json declares\n%v\nthe tool reports\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json declares\n%v\nthe tool reports\n%v", layers, perLayer)
	}
}

// TestWorkloads runs all six workloads, untraced and traced, at a scale
// that takes a few seconds in total, and asserts that the oracle passes
// and that each run emits exactly the declared metrics.
func TestWorkloads(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			cfg := testConfig(t)
			for _, run := range []struct {
				name string
				defs []metricDef
				f    func() (*result, error)
			}{
				{"untraced", endToEnd, func() (*result, error) { return measure(wl, cfg) }},
				{"traced", perLayer, func() (*result, error) { return measureTraced(wl, cfg, io.Discard) }},
			} {
				res, err := run.f()
				if err != nil {
					t.Fatalf("%s: %v", run.name, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s: oracle failed: %d of %d operations", run.name, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(run.defs) {
					t.Errorf("%s: %d metrics emitted, %d declared", run.name, len(res.Metrics), len(run.defs))
				}
				for _, d := range run.defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("%s: metric %s: emitted %+v (present=%v), declared unit %q", run.name, d.name, m, ok, d.unit)
					}
				}
			}
		})
	}
}

// TestOracleCatchesDivergence feeds the oracle a rep that lost a verdict
// and an event: both must count as failures.
func TestOracleCatchesDivergence(t *testing.T) {
	cfg := testConfig(t)
	e, err := setup(&workloads[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if len(e.ref.sorted) == 0 {
		t.Fatal("reference run delivered no verdicts; the stream is too small to test the oracle")
	}
	got := append([]vkey(nil), e.ref.sorted...)
	if failed, _ := e.ref.checkRep(len(e.st.recs), true, e.ref.stats, got, nil); failed != 0 {
		t.Fatalf("the reference fails its own check: %d", failed)
	}
	st := e.ref.stats
	st.Events--
	if failed, why := e.ref.checkRep(len(e.st.recs), true, st, got[1:], nil); failed != 2 {
		t.Errorf("one lost event and one lost verdict counted as %d failures: %v", failed, why)
	}
}

// TestSeedDeterminism: the same seed gives a byte-identical recorded
// trace, another seed a different one.
func TestSeedDeterminism(t *testing.T) {
	cfg := testConfig(t)
	sha := func(seed int64) string {
		cfg.seed = seed
		e, err := setup(&workloads[0], cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.close()
		return e.st.sha
	}
	a, b, c := sha(7), sha(7), sha(8)
	if a != b {
		t.Errorf("seed 7 recorded %s, then %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 recorded the same trace %s", a)
	}
}
