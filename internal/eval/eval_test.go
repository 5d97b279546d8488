package eval_test

import (
	"strings"
	"testing"
	"time"

	"rvgo/internal/eval"
	"rvgo/internal/monitor"
)

// smallConfig keeps the grid tiny for CI.
func smallConfig() eval.Config {
	cfg := eval.DefaultConfig()
	cfg.Scale = 0.02
	cfg.Timeout = 30 * time.Second
	cfg.Benchmarks = []string{"avrora", "luindex"}
	cfg.Properties = []string{"HasNext", "UnsafeIter"}
	return cfg
}

func TestRunGrid(t *testing.T) {
	res, err := eval.Run(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range res.Config.Benchmarks {
		base, ok := res.Base[bench]
		if !ok || base.RunSec <= 0 {
			t.Fatalf("%s: missing baseline", bench)
		}
		for _, prop := range res.Config.Properties {
			for _, sys := range res.Config.Systems {
				cell, ok := res.Cells[bench][prop][sys]
				if !ok {
					t.Fatalf("missing cell %s/%s/%s", bench, prop, sys)
				}
				if cell.TimedOut {
					t.Fatalf("%s/%s/%s timed out at tiny scale", bench, prop, sys)
				}
				if cell.RunSec <= 0 {
					t.Fatalf("%s/%s/%s: no runtime measured", bench, prop, sys)
				}
			}
			rv := res.Cells[bench][prop][eval.SysRV]
			if bench == "avrora" && rv.Stats.Events == 0 {
				t.Fatalf("%s/%s: RV saw no events", bench, prop)
			}
		}
		all, ok := res.All[bench]
		if !ok {
			t.Fatalf("%s: missing ALL cell", bench)
		}
		// The ALL cell runs one engine per property over the same workload
		// the per-property RV cells run, so every counter is their sum.
		var sum monitor.Stats
		for _, prop := range res.Config.Properties {
			st := res.Cells[bench][prop][eval.SysRV].Stats
			sum.Merge(st)
			sum.Events += st.Events
		}
		if all.Stats != sum {
			t.Errorf("%s: ALL cell is not the sum of its RV cells:\n  ALL %+v\n  sum %+v", bench, all.Stats, sum)
		}
	}
	// avrora produces monitors; RV must flag/collect some of them.
	rv := res.Cells["avrora"]["UnsafeIter"][eval.SysRV]
	if rv.Stats.Created == 0 || rv.Stats.Collected == 0 {
		t.Fatalf("avrora UnsafeIter RV stats: %+v", rv.Stats)
	}
	// JavaMOP mode must retain at least as many monitors as RV.
	mop := res.Cells["avrora"]["UnsafeIter"][eval.SysMOP]
	if mop.Stats.Live < rv.Stats.Live {
		t.Fatalf("MOP retained %d < RV %d", mop.Stats.Live, rv.Stats.Live)
	}
}

func TestTables(t *testing.T) {
	res, err := eval.Run(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b, c strings.Builder
	res.Fig9A(&a)
	res.Fig9B(&b)
	res.Fig10(&c)
	for name, s := range map[string]string{"fig9a": a.String(), "fig9b": b.String(), "fig10": c.String()} {
		for _, bench := range res.Config.Benchmarks {
			if !strings.Contains(s, bench) {
				t.Errorf("%s table missing row %q", name, bench)
			}
		}
	}
	if !strings.Contains(a.String(), "ORIG") || !strings.Contains(c.String(), "FM") {
		t.Error("table headers malformed")
	}
}

func TestRunCellUnknownBenchmark(t *testing.T) {
	cfg := smallConfig()
	if _, err := eval.RunBaseline("nosuch", cfg.Scale); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}
