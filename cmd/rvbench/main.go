// Command rvbench regenerates the paper's evaluation artifacts: Figure
// 9(A) percent runtime overhead, Figure 9(B) peak memory, and Figure 10
// monitoring statistics, over the synthetic DaCapo substrate.
//
// Usage:
//
//	rvbench [-table fig9a|fig9b|fig10|retained|micro|metrics|all] [-scale 0.1]
//	        [-timeout 60s] [-bench bloat,pmd,...] [-prop HasNext,...]
//	        [-live] [-avoid] [-json] [-out run.json]
//	        [-compare BENCH_X.json -tolerance T] [-v]
//
// The RV and MOP cells run the sequential engine (coenable vs all-dead
// GC); the sharded, remote and cluster backends are measured end to end
// by internal/bench and held to the sequential engine by their oracle
// tests. -json emits the full result grid as machine-readable JSON
// instead of the tables, so runs can be archived (BENCH_*.json) and
// compared across revisions; -out writes the same JSON to a file as well
// (CI uploads it as an artifact). Every grid includes the hot-path micro
// section (ns/event and allocs/event over fixed warmed loops); -compare
// gates on exact counter equality, bounded runtime drift, and a tight
// allocs/event limit — the allocation numbers are deterministic, so the
// allocation gate catches a hot-path regression that CI timing noise
// would hide.
// -live runs the live-object ingestion experiment instead of the DaCapo
// grid: real Go objects monitored through the rv frontend, with monitor
// reclamation driven by real, pinned garbage-collection cycles.
// -avoid runs the creation-avoidance tier instead: one monitored workload
// recorded to the trace store and replayed under every creation-guard
// configuration — static guards in audit and enforce modes under both
// creation strategies, plus the profile-guided mode fed by the recorded
// trace's per-creation-site statistics — with the suppression contract
// (verdicts preserved, Created + Avoided == unguarded Created) verified
// on every leg.
//
// Scale 1.0 corresponds to roughly 1/50 of the paper's event volumes; the
// default keeps the full grid under a few minutes. Absolute numbers are
// not comparable to the paper's Pentium-4 JVM measurements — the shapes
// (which system wins, by what factor, where Tracematches times out) are
// what the harness reproduces. See DESIGN.md's experiment index.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rvgo/internal/cliutil"
	"rvgo/internal/eval"
)

func main() {
	var (
		table   = flag.String("table", "all", "which table to print: fig9a, fig9b, fig10, retained, micro, metrics, all")
		scale   = flag.Float64("scale", 0.1, "workload scale (1.0 ≈ paper/50)")
		timeout = flag.Duration("timeout", 60*time.Second, "per-cell time budget (exceeded = ∞)")
		benchs  = flag.String("bench", "", "comma-separated benchmark subset (default: all 15)")
		prs     = flag.String("prop", "", "comma-separated property subset (default: the paper's five)")
		live    = flag.Bool("live", false, "run the live-object ingestion experiment (rv frontend, real Go GC)")
		avoid   = flag.Bool("avoid", false, "run the creation-avoidance tier (record, replay under every guard configuration, verify the suppression contract)")
		jsonOut = flag.Bool("json", false, "emit the result grid as JSON instead of tables")
		outPath = flag.String("out", "", "also write the current run's JSON to this file (works with -compare; CI uploads it as an artifact)")
		compare = flag.String("compare", "", "baseline JSON (from -json): rerun its config and fail on regressions")
		tol     = flag.Float64("tolerance", 1.0, "with -compare: allowed relative runtime regression (1.0 = 2x)")
		verbose = flag.Bool("v", false, "print per-cell progress")
	)
	flag.Parse()

	cfg := eval.DefaultConfig()
	cfg.Scale = *scale
	cfg.Timeout = *timeout
	if *benchs != "" {
		cfg.Benchmarks = splitList(*benchs)
		for _, b := range cfg.Benchmarks {
			if err := cliutil.ValidateBench(b); err != nil {
				fatalf("%v", err)
			}
		}
	}
	if *prs != "" {
		cfg.Properties = splitList(*prs)
		for _, p := range cfg.Properties {
			if err := cliutil.ValidateProp(p); err != nil {
				fatalf("%v", err)
			}
		}
	}

	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}

	if *compare != "" {
		compareBaseline(*compare, *tol, cfg, *outPath, progress)
		return
	}
	if *live {
		runLive(eval.LiveConfig{Scale: *scale}, *jsonOut, *outPath)
		return
	}
	if *avoid {
		acfg := eval.AvoidConfig{Scale: *scale}
		if len(cfg.Benchmarks) > 0 && *benchs != "" {
			acfg.Bench = cfg.Benchmarks[0]
		}
		if len(cfg.Properties) > 0 && *prs != "" {
			acfg.Prop = cfg.Properties[0]
		}
		runAvoid(acfg, cfg, *jsonOut, *outPath)
		return
	}

	res, err := eval.Run(cfg, progress)
	if err != nil {
		fatalf("%v", err)
	}
	writeOut(*outPath, res)
	if *jsonOut {
		writeJSON(os.Stdout, res)
		return
	}
	switch *table {
	case "fig9a":
		res.Fig9A(os.Stdout)
	case "fig9b":
		res.Fig9B(os.Stdout)
	case "fig10":
		res.Fig10(os.Stdout)
	case "retained":
		res.Retained(os.Stdout)
	case "micro":
		res.MicroTable(os.Stdout)
	case "metrics":
		res.MetricsTable(os.Stdout)
	case "all":
		res.Fig9A(os.Stdout)
		res.Fig9B(os.Stdout)
		res.Fig10(os.Stdout)
		res.Retained(os.Stdout)
		res.MicroTable(os.Stdout)
		res.MetricsTable(os.Stdout)
	default:
		fatalf("unknown table %q", *table)
	}
}

// writeOut archives a run's JSON for CI artifacts / new baselines.
func writeOut(path string, v any) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	writeJSON(f, v)
	if err := f.Close(); err != nil {
		fatalf("%v", err)
	}
}

func writeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatalf("%v", err)
	}
}

// runLive runs the live-object ingestion experiment and prints its table:
// the Figure 10 counters per GC policy with deaths delivered by the real
// garbage collector at pinned collection points. With -out (or -json) the
// per-policy results are archived as the -live artifact.
func runLive(cfg eval.LiveConfig, jsonOut bool, outPath string) {
	results, err := eval.RunLive(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	writeOut(outPath, results)
	if jsonOut {
		writeJSON(os.Stdout, results)
		return
	}
	fmt.Println("live-object ingestion (rv frontend, real Go GC; see DESIGN.md)")
	fmt.Printf("%-10s %10s %10s %10s %10s %8s %8s %9s %8s %10s\n",
		"policy", "events", "created", "flagged", "collected", "live", "deaths", "gc-pinned", "sec", "gc-pause")
	for _, r := range results {
		mark := ""
		if !r.Settled {
			mark = "  (unsettled: some cleanups never fired)"
		}
		fmt.Printf("%-10s %10d %10d %10d %10d %8d %8d %9d %8.2f %8.1fms%s\n",
			r.Policy, r.Stats.Events, r.Stats.Created, r.Stats.Flagged, r.Stats.Collected,
			r.Stats.Live, r.Delivered, r.GCPinned, r.RunSec, r.GCPauseSec*1e3, mark)
	}
}

// runAvoid runs the creation-avoidance tier, prints its tables, and
// archives the result as a grid whose Avoid section carries the
// measurements. A guarded replay that breaks the suppression contract —
// or a full-strategy enforce leg whose guard never fires — is a hard
// failure: the tier exists to show a measurable Created reduction with
// every verdict preserved.
func runAvoid(acfg eval.AvoidConfig, cfg eval.Config, jsonOut bool, outPath string) {
	ar, err := eval.RunAvoid(acfg)
	if err != nil {
		fatalf("%v", err)
	}
	res := &eval.Results{Config: cfg, Avoid: ar}
	writeOut(outPath, res)
	if jsonOut {
		writeJSON(os.Stdout, res)
	} else {
		fmt.Printf("creation avoidance: %s/%s (%d/%d automaton states doomed; trace %.2f MB, %d segments; see DESIGN.md)\n",
			ar.Bench, ar.Prop, ar.DoomedStates, ar.TotalStates, ar.TraceMB, ar.Segments)
		fmt.Printf("%-24s %10s %10s %10s %10s %9s %8s %10s\n",
			"configuration", "created", "avoided", "peak-live", "verdicts", "cut", "sec", "identical")
		for _, run := range ar.Runs {
			cut := "-"
			if run.Avoid == "enforce" {
				cut = fmt.Sprintf("%.1f%%", run.CreatedCut*100)
			}
			fmt.Printf("%-24s %10d %10d %10d %10d %9s %8.3f %10v\n",
				run.Label, run.Stats.Created, run.Stats.Avoided, run.Stats.PeakLive,
				run.Stats.GoalVerdicts, cut, run.Sec, run.Identical)
		}
		fmt.Printf("  creation sites (profiled over the recorded trace):\n")
		fmt.Printf("  %-12s %9s %9s %12s %12s %8s %8s\n",
			"event", "creation", "static", "created", "restepped", "goaled", "profile")
		for _, s := range ar.Sites {
			fmt.Printf("  %-12s %9v %9v %12d %12d %8d %8v\n",
				s.Event, s.Creation, s.StaticGuard, s.Created, s.Restepped, s.ReachedGoal, s.ProfileGuard)
		}
	}
	if bad := ar.Verify(); len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintf(os.Stderr, "rvbench: %s\n", b)
		}
		fatalf("creation-avoidance tier failed verification")
	}
}

// compareBaseline reruns a baseline's configuration and fails (exit 1) on
// counter divergence, micro allocs/event regression, or runtime regression
// beyond the tolerance. The baseline's grid shape (scale, benchmarks,
// properties, systems) is authoritative; the current -timeout still
// applies. With outPath the current run is archived either way.
func compareBaseline(path string, tol float64, cur eval.Config, outPath string, progress io.Writer) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	var base eval.Results
	if err := json.Unmarshal(raw, &base); err != nil {
		fatalf("parsing %s: %v", path, err)
	}
	cfg := base.Config
	cfg.Timeout = cur.Timeout
	res, err := eval.Run(cfg, progress)
	if err != nil {
		fatalf("%v", err)
	}
	// A baseline carrying the creation-avoidance section reruns that tier
	// too, at the recorded scale, so Compare can gate the avoided-creation
	// counters of every guard configuration.
	if ba := base.Avoid; ba != nil {
		res.Avoid, err = eval.RunAvoid(eval.AvoidConfig{Scale: ba.Scale, Bench: ba.Bench, Prop: ba.Prop})
		if err != nil {
			fatalf("%v", err)
		}
	}
	writeOut(outPath, res)
	bad := eval.Compare(&base, res, tol)
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "rvbench: %d regression(s) against %s:\n", len(bad), path)
		for _, b := range bad {
			fmt.Fprintf(os.Stderr, "  %s\n", b)
		}
		os.Exit(1)
	}
	fmt.Printf("rvbench: no regressions against %s (%d benchmarks × %d properties, tolerance %.0f%%)\n",
		path, len(cfg.Benchmarks), len(cfg.Properties), tol*100)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rvbench: "+format+"\n", args...)
	os.Exit(1)
}
