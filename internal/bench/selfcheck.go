package main

import "fmt"

// runSelfcheck measures every selected workload twice in one invocation
// and prints, per workload and end-to-end metric, both medians, their
// relative difference and whether it is inside the metric's bound: the
// repeatability criterion the benchmark has to meet before any
// parent-versus-change comparison means anything.
func runSelfcheck(cfg *config, todo []*workload) (bool, error) {
	ok := true
	var sets [2]map[string]map[string]metric
	for i := range sets {
		sets[i] = map[string]map[string]metric{}
		for _, wl := range todo {
			res, err := measure(wl, cfg)
			if err != nil {
				return false, fmt.Errorf("%s: %w", wl.name, err)
			}
			ok = ok && res.Correct
			sets[i][wl.name] = res.Metrics
		}
	}
	fmt.Fprintf(cfg.out, "\n== selfcheck: two sets of the same commit\n")
	fmt.Fprintf(cfg.out, "  %-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, wl := range todo {
		for _, d := range endToEnd {
			a, b := sets[0][wl.name][d.name].Value, sets[1][wl.name][d.name].Value
			diff := 0.0
			if a != 0 {
				diff = (b - a) / a
			}
			verdict := "inside"
			if diff > d.bound || diff < -d.bound {
				verdict, ok = "OUTSIDE", false
			}
			fmt.Fprintf(cfg.out, "  %-14s %-20s %14.4f %14.4f %+8.2f%% %6.0f%% %s\n",
				wl.name, d.name, a, b, 100*diff, 100*d.bound, verdict)
		}
	}
	return ok, nil
}
