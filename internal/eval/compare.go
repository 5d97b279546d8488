package eval

import (
	"fmt"
)

// Compare checks a current result grid against a baseline run of the same
// configuration and returns a list of regressions (empty = pass).
//
// The checks:
//
//   - Monitoring counters (the Figure 10 statistics) are deterministic for
//     the seeded synthetic workloads, so any divergence is a semantic
//     change in the engine and is reported regardless of tolerance,
//     PeakLive included (every cell runs the sequential engine).
//   - Cell runtimes may regress by at most tol (relative: 1.0 allows 2×
//     the baseline). An absolute floor of 50ms per cell filters out
//     scheduling noise on the sub-millisecond cells. Timing checks are
//     advisory by nature (different hosts differ); counters are the
//     ground truth.
//   - Micro allocations (Results.Micro, when the baseline carries the
//     section) may regress by at most 25% plus half an allocation of
//     absolute slack: allocs/event is deterministic — warmed pools,
//     paused collector — so unlike CI timing it gates tightly. Micro
//     timing is never gated.
//
// Cells that timed out in either run are compared for timeout status
// only: their counters reflect whatever was processed before the
// deadline.
func Compare(base, cur *Results, tol float64) []string {
	var bad []string

	cell := func(where string, b, c Cell) {
		if b.TimedOut != c.TimedOut {
			bad = append(bad, fmt.Sprintf("%s: timeout status changed %v -> %v", where, b.TimedOut, c.TimedOut))
			return
		}
		if b.TimedOut {
			return
		}
		if b.Stats != c.Stats {
			bad = append(bad, fmt.Sprintf("%s: counters diverge:\n    baseline %+v\n    current  %+v", where, b.Stats, c.Stats))
		}
		if b.TMStats != c.TMStats {
			bad = append(bad, fmt.Sprintf("%s: tracematch counters diverge:\n    baseline %+v\n    current  %+v", where, b.TMStats, c.TMStats))
		}
		if c.RunSec > b.RunSec*(1+tol) && c.RunSec-b.RunSec > 0.05 {
			bad = append(bad, fmt.Sprintf("%s: runtime regressed %.3fs -> %.3fs (tolerance %.0f%%)", where, b.RunSec, c.RunSec, tol*100))
		}
	}

	for _, bench := range base.Config.Benchmarks {
		for _, prop := range base.Config.Properties {
			for _, sys := range base.Config.Systems {
				b, okB := lookup(base, bench, prop, sys)
				c, okC := lookup(cur, bench, prop, sys)
				if !okB || !okC {
					if okB != okC {
						bad = append(bad, fmt.Sprintf("%s/%s/%s: cell missing (baseline %v, current %v)", bench, prop, sys, okB, okC))
					}
					continue
				}
				cell(fmt.Sprintf("%s/%s/%s", bench, prop, sys), b, c)
			}
		}
		b, okB := base.All[bench]
		c, okC := cur.All[bench]
		if okB && okC {
			cell(fmt.Sprintf("%s/ALL/RV", bench), b, c)
		}
	}

	// The allocation gate: >25% allocs/event regression on any micro
	// scenario fails, with +0.5 absolute slack so a zero-allocation
	// baseline tolerates measurement jitter but not a real new
	// allocation per event.
	const allocTol, allocSlack = 0.25, 0.5
	for _, bm := range base.Micro {
		cm, ok := findMicro(cur.Micro, bm.Name)
		if !ok {
			bad = append(bad, fmt.Sprintf("micro/%s: scenario missing from current run", bm.Name))
			continue
		}
		if cm.AllocsPerEvent > bm.AllocsPerEvent*(1+allocTol)+allocSlack {
			bad = append(bad, fmt.Sprintf("micro/%s: allocs/event regressed %.3f -> %.3f (tolerance %.0f%% + %.1f)",
				bm.Name, bm.AllocsPerEvent, cm.AllocsPerEvent, allocTol*100, allocSlack))
		}
	}

	// The avoidance gate, when the baseline carries the section: the
	// recorded workload is seeded and every replay is deterministic, so the
	// settled counters of each guard configuration — including Avoided, the
	// suppression count — must match the baseline exactly, and no leg may
	// lose its identity verdict. Run times are never gated here (the cell
	// timing check above covers the grid). Baselines archived before the
	// section existed are not gated.
	if ba, ca := base.Avoid, cur.Avoid; ba != nil {
		if ca == nil {
			bad = append(bad, "avoid: section missing from current run")
		} else {
			for _, br := range ba.Runs {
				cr, ok := findAvoidRun(ca.Runs, br.Label)
				if !ok {
					bad = append(bad, fmt.Sprintf("avoid/%s: run missing from current run", br.Label))
					continue
				}
				if br.Stats != cr.Stats {
					bad = append(bad, fmt.Sprintf("avoid/%s: counters diverge:\n    baseline %+v\n    current  %+v", br.Label, br.Stats, cr.Stats))
				}
				if br.Identical && !cr.Identical {
					bad = append(bad, fmt.Sprintf("avoid/%s: replay no longer identical to its unguarded reference", br.Label))
				}
			}
		}
	}

	// The telemetry gate, when the baseline carries the section: the churn
	// workload is fixed and the registry counters settle exactly, so any
	// divergence is a semantic change in the engine's reclamation or in the
	// metrics plumbing. Latency quantiles are machine-dependent, never gated.
	if bm, cm := base.Metrics, cur.Metrics; bm != nil {
		if cm == nil {
			bad = append(bad, "metrics: section missing from current run")
		} else {
			b, c := *bm, *cm
			b.SweepP50Us, b.SweepP99Us = 0, 0
			c.SweepP50Us, c.SweepP99Us = 0, 0
			if b.ArenaSlabs == 0 && b.ArenaCap == 0 && b.ArenaFree == 0 {
				// Baseline predates the arena-occupancy columns; don't
				// fail it on fields it never recorded.
				c.ArenaSlabs, c.ArenaCap, c.ArenaFree = 0, 0, 0
			}
			if b != c {
				bad = append(bad, fmt.Sprintf("metrics: telemetry counters diverge:\n    baseline %+v\n    current  %+v", b, c))
			}
		}
	}
	return bad
}

func findAvoidRun(runs []AvoidRun, label string) (AvoidRun, bool) {
	for _, r := range runs {
		if r.Label == label {
			return r, true
		}
	}
	return AvoidRun{}, false
}

func findMicro(ms []MicroResult, name string) (MicroResult, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return MicroResult{}, false
}

func lookup(r *Results, bench, prop string, sys System) (Cell, bool) {
	props, ok := r.Cells[bench]
	if !ok {
		return Cell{}, false
	}
	systems, ok := props[prop]
	if !ok {
		return Cell{}, false
	}
	c, ok := systems[sys]
	return c, ok
}
