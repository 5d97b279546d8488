package eval

import (
	"encoding/json"
	"os"
	"testing"
)

func loadBaseline(t *testing.T, path string) *Results {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var res Results
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	return &res
}

// TestBaselinePR10Avoid pins the shape of the one committed golden run CI
// replays: the telemetry section carries the arena occupancy columns, every
// leg of the avoid section settled identical to its unguarded reference,
// and the full-strategy enforce leg actually avoided creations.
func TestBaselinePR10Avoid(t *testing.T) {
	res := loadBaseline(t, "../../BENCH_PR10.json")
	if res.Metrics == nil || res.Metrics.ArenaCap == 0 || res.Metrics.ArenaSlabs == 0 {
		t.Errorf("telemetry section lacks arena occupancy: %+v", res.Metrics)
	}
	ar := res.Avoid
	if ar == nil {
		t.Fatal("BENCH_PR10.json has no Avoid section")
	}
	if bad := ar.Verify(); len(bad) != 0 {
		t.Fatalf("committed avoid section fails its own contract: %v", bad)
	}
	if len(ar.Runs) != 7 {
		t.Errorf("avoid section has %d runs, want the 7-leg grid", len(ar.Runs))
	}
	if fe, ok := findAvoidRun(ar.Runs, "full/enforce"); !ok || fe.Stats.Avoided == 0 {
		t.Errorf("full/enforce leg missing or avoided nothing: %+v", fe)
	}
	if ar.Scale <= 0 {
		t.Errorf("avoid section does not record its scale (compare reruns need it): %v", ar.Scale)
	}
}
