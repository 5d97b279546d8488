// Command rvbench regenerates the paper's evaluation artifacts: Figure
// 9(A) percent runtime overhead, Figure 9(B) peak memory, and Figure 10
// monitoring statistics, over the synthetic DaCapo substrate.
//
// Usage:
//
//	rvbench [-table fig9a|fig9b|fig10|retained|all] [-scale 0.1]
//	        [-timeout 60s] [-bench bloat,pmd,...] [-prop HasNext,...]
//	        [-live] [-avoid] [-v]
//
// The RV and MOP cells run the sequential engine (coenable vs all-dead
// GC); the sharded, remote and cluster backends are measured end to end
// by internal/bench and held to the sequential engine by their oracle
// tests. The counters behind the tables are deterministic, and tier-1
// pins them: internal/eval's TestPaperGolden holds every cell of the
// default grid, the avoid legs and a telemetry churn row to
// internal/eval/testdata/paper.golden.
// -live runs the live-object ingestion experiment instead of the DaCapo
// grid: real Go objects monitored through the rv frontend, with monitor
// reclamation driven by real, pinned garbage-collection cycles.
// -avoid runs the creation-avoidance tier instead: one monitored workload
// recorded to the trace store and replayed under every creation-guard
// configuration — static guards in audit and enforce modes under both
// creation strategies, plus the profile-guided mode fed by the recorded
// trace's per-creation-site statistics — with the suppression contract
// (verdicts preserved, Created + Avoided == unguarded Created) verified
// on every leg. It takes at most one -bench and one -prop.
//
// Scale 1.0 corresponds to roughly 1/50 of the paper's event volumes; the
// default keeps the full grid under a few minutes. Absolute numbers are
// not comparable to the paper's Pentium-4 JVM measurements — the shapes
// (which system wins, by what factor, where Tracematches times out) are
// what the harness reproduces. See DESIGN.md's experiment index.
package main

import (
	"errors"
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
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "rvbench: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, runs the selected experiment and prints its tables to
// stdout; progress and verification failures go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table   = fs.String("table", "all", "which table to print: fig9a, fig9b, fig10, retained, all")
		scale   = fs.Float64("scale", 0.1, "workload scale (1.0 ≈ paper/50)")
		timeout = fs.Duration("timeout", 60*time.Second, "per-cell time budget (exceeded = ∞)")
		benchs  = fs.String("bench", "", "comma-separated benchmark subset (default: all 15; -avoid takes one)")
		prs     = fs.String("prop", "", "comma-separated property subset (default: the paper's five; -avoid takes one)")
		live    = fs.Bool("live", false, "run the live-object ingestion experiment (rv frontend, real Go GC)")
		avoid   = fs.Bool("avoid", false, "run the creation-avoidance tier (record, replay under every guard configuration, verify the suppression contract)")
		verbose = fs.Bool("v", false, "print per-cell progress")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := eval.DefaultConfig()
	cfg.Scale = *scale
	cfg.Timeout = *timeout
	if *benchs != "" {
		cfg.Benchmarks = splitList(*benchs)
		for _, b := range cfg.Benchmarks {
			if err := cliutil.ValidateBench(b); err != nil {
				return err
			}
		}
	}
	if *prs != "" {
		cfg.Properties = splitList(*prs)
		for _, p := range cfg.Properties {
			if err := cliutil.ValidateProp(p); err != nil {
				return err
			}
		}
	}

	if *live {
		return runLive(stdout, eval.LiveConfig{Scale: *scale})
	}
	if *avoid {
		acfg := eval.AvoidConfig{Scale: *scale}
		if *benchs != "" {
			if len(cfg.Benchmarks) != 1 {
				return fmt.Errorf("-avoid runs one benchmark, got -bench %s", *benchs)
			}
			acfg.Bench = cfg.Benchmarks[0]
		}
		if *prs != "" {
			if len(cfg.Properties) != 1 {
				return fmt.Errorf("-avoid runs one property, got -prop %s", *prs)
			}
			acfg.Prop = cfg.Properties[0]
		}
		return runAvoid(stdout, stderr, acfg)
	}

	tables := map[string][]func(*eval.Results, io.Writer){
		"fig9a":    {(*eval.Results).Fig9A},
		"fig9b":    {(*eval.Results).Fig9B},
		"fig10":    {(*eval.Results).Fig10},
		"retained": {(*eval.Results).Retained},
		"all":      {(*eval.Results).Fig9A, (*eval.Results).Fig9B, (*eval.Results).Fig10, (*eval.Results).Retained},
	}
	writers, ok := tables[*table]
	if !ok {
		return fmt.Errorf("unknown table %q", *table)
	}
	var progress io.Writer
	if *verbose {
		progress = stderr
	}
	res, err := eval.Run(cfg, progress)
	if err != nil {
		return err
	}
	for _, write := range writers {
		write(res, stdout)
	}
	return nil
}

// runLive runs the live-object ingestion experiment and prints its table:
// the Figure 10 counters per GC policy with deaths delivered by the real
// garbage collector at pinned collection points.
func runLive(w io.Writer, cfg eval.LiveConfig) error {
	results, err := eval.RunLive(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "live-object ingestion (rv frontend, real Go GC; see DESIGN.md)")
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %8s %8s %9s %8s %10s\n",
		"policy", "events", "created", "flagged", "collected", "live", "deaths", "gc-pinned", "sec", "gc-pause")
	for _, r := range results {
		mark := ""
		if !r.Settled {
			mark = "  (unsettled: some cleanups never fired)"
		}
		fmt.Fprintf(w, "%-10s %10d %10d %10d %10d %8d %8d %9d %8.2f %8.1fms%s\n",
			r.Policy, r.Stats.Events, r.Stats.Created, r.Stats.Flagged, r.Stats.Collected,
			r.Stats.Live, r.Delivered, r.GCPinned, r.RunSec, r.GCPauseSec*1e3, mark)
	}
	return nil
}

// runAvoid runs the creation-avoidance tier and prints its tables. A
// guarded replay that breaks the suppression contract — or a full-strategy
// enforce leg whose guard never fires — is a hard failure: the tier exists
// to show a measurable Created reduction with every verdict preserved.
func runAvoid(w, stderr io.Writer, acfg eval.AvoidConfig) error {
	ar, err := eval.RunAvoid(acfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "creation avoidance: %s/%s (%d/%d automaton states doomed; trace %.2f MB, %d segments; see DESIGN.md)\n",
		ar.Bench, ar.Prop, ar.DoomedStates, ar.TotalStates, ar.TraceMB, ar.Segments)
	fmt.Fprintf(w, "%-24s %10s %10s %10s %10s %9s %8s %10s\n",
		"configuration", "created", "avoided", "peak-live", "verdicts", "cut", "sec", "identical")
	for _, run := range ar.Runs {
		cut := "-"
		if run.Avoid == "enforce" {
			cut = fmt.Sprintf("%.1f%%", run.CreatedCut*100)
		}
		fmt.Fprintf(w, "%-24s %10d %10d %10d %10d %9s %8.3f %10v\n",
			run.Label, run.Stats.Created, run.Stats.Avoided, run.Stats.PeakLive,
			run.Stats.GoalVerdicts, cut, run.Sec, run.Identical)
	}
	fmt.Fprintf(w, "  creation sites (profiled over the recorded trace):\n")
	fmt.Fprintf(w, "  %-12s %9s %9s %12s %12s %8s %8s\n",
		"event", "creation", "static", "created", "restepped", "goaled", "profile")
	for _, s := range ar.Sites {
		fmt.Fprintf(w, "  %-12s %9v %9v %12d %12d %8d %8v\n",
			s.Event, s.Creation, s.StaticGuard, s.Created, s.Restepped, s.ReachedGoal, s.ProfileGuard)
	}
	if bad := ar.Verify(); len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintf(stderr, "rvbench: %s\n", b)
		}
		return errors.New("creation-avoidance tier failed verification")
	}
	return nil
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
