// Creation-avoidance experiment: record one monitored DaCapo workload
// into the persistent trace store, then replay the identical stream under
// every guard configuration — static guards in audit and enforce modes
// under both creation strategies, and the profile-guided mode fed by a
// per-creation-site profile of the recorded trace. The section reports
// the Created-count and peak-occupancy reductions the guards buy and
// verifies the suppression contract against the unguarded replay: same
// per-slice verdicts, Created + Avoided == unguarded Created, and audit
// mode bit-identical (see DESIGN.md "Static creation avoidance").
//
// The shape of the results is itself a finding: under enable-set creation
// the static guard almost never fires (the enable analysis already prunes
// the creations it would catch), so the measurable reductions come from
// the full strategy — where the Figure 5 Δ-scan materializes doomed
// instances wholesale — and from the profile-guided mode, which guards
// creation sites the recorded trace proves never reach a goal.

package eval

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rvgo"
	"rvgo/internal/cliutil"
	"rvgo/internal/dacapo"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
	rvspec "rvgo/spec"
)

// AvoidConfig controls the creation-avoidance tier.
type AvoidConfig struct {
	Scale float64 // workload scale (1.0 ≈ paper/50)
	Bench string  // DaCapo profile (default avrora)
	Prop  string  // property (default UnsafeIter)
}

// AvoidSite is one creation site (event symbol) of the property: its
// static analysis verdicts and the per-site counters the profiled replay
// observed. ProfileGuard reports that the profile-guided mode would guard
// the site (monitors were born there and none ever reached a goal).
type AvoidSite struct {
	Event        string
	Creation     bool // ∅ ∈ ENABLE(e): e can begin a goal trace
	StaticGuard  bool // doomed start or no viable prefix
	Created      uint64
	Restepped    uint64
	ReachedGoal  uint64
	ProfileGuard bool
}

// AvoidRun is one replay measurement: a guard configuration over the
// recorded trace. Reductions are fractions of the unguarded reference
// under the same creation strategy (0 = no reduction).
type AvoidRun struct {
	Label         string // e.g. "enable/enforce", "full/off"
	Creation      string // creation strategy: enable, full
	GC            string
	Avoid         string // guard mode: off, audit, enforce
	ProfileGuided bool
	Sec           float64
	Stats         monitor.Stats
	CreatedCut    float64 // 1 - Created/reference Created
	Identical     bool    // verdicts (and invariants) hold vs the reference
	segments      int     // intact segments the replay's reader indexed
}

// AvoidReport is the creation-avoidance tier's outcome.
type AvoidReport struct {
	Bench, Prop  string
	DoomedStates int // automaton states that cannot reach the goal
	TotalStates  int
	TraceMB      float64
	Segments     int
	Sites        []AvoidSite
	Runs         []AvoidRun
}

func verdictKey(v monitor.Verdict) string {
	return fmt.Sprintf("%d/%s/%v/%v", v.Sym, v.Cat, v.Key.Mask, v.Key.IDs)
}

// onlinePass drives the workload through a sequential Monitor that records
// the monitored stream to path with WithRecord, the tap rvmon -record and
// rvload -record use. Deaths go through the explicit Free path (hook on
// the simulated heap) so the recorded stream carries them at their
// positions.
func onlinePass(cfg AvoidConfig, path string) error {
	sp, err := rvspec.Builtin(cfg.Prop)
	if err != nil {
		return err
	}
	m, err := rvgo.New(sp, rvgo.WithRecord(path))
	if err != nil {
		return err
	}
	defer m.Close()
	_, _, _, err = runWorkload(cfg.Bench, cfg.Scale, 0, func(rt *dacapo.Runtime) error {
		sink, err := dacapo.Adapt(cfg.Prop, m)
		if err != nil {
			return err
		}
		rt.AddSink(sink)
		rt.Heap.SetFreeHook(func(o *heap.Object) { m.Free(o) })
		return nil
	}, m.Flush)
	if err != nil {
		return err
	}
	m.Close()
	return m.Err()
}

// avoidLeg replays the recorded trace once under a guard configuration
// and returns the run row plus its sorted verdict keys.
func avoidLeg(path string, spec *monitor.Spec, label string, creation monitor.CreationStrategy, gc monitor.GCPolicy, avoid monitor.AvoidMode, guards []bool, prof *monitor.CreationProfile) (AvoidRun, []string, error) {
	var keys []string
	q := cliutil.RetroQuery{
		GC:            gc,
		Creation:      creation,
		Avoid:         avoid,
		ProfileGuards: guards,
		Profile:       prof,
		Workers:       1,
		OnVerdict:     func(v monitor.Verdict) { keys = append(keys, verdictKey(v)) },
	}
	start := time.Now()
	qr, err := cliutil.RunRetroQuery(path, spec, q)
	if err != nil {
		return AvoidRun{}, nil, fmt.Errorf("eval: avoid replay %s: %w", label, err)
	}
	sort.Strings(keys)
	cname := "enable"
	if creation == monitor.CreateFull {
		cname = "full"
	}
	run := AvoidRun{
		Label:         label,
		Creation:      cname,
		GC:            gc.String(),
		Avoid:         avoid.String(),
		ProfileGuided: guards != nil,
		Sec:           time.Since(start).Seconds(),
		Stats:         qr.Stats,
		segments:      qr.Segments,
	}
	return run, keys, nil
}

// checkAgainst fills a guarded run's Identical flag and reductions from
// its unguarded reference: per-slice verdicts must match; in audit mode
// every settled counter except Avoided must too; in enforce mode Events
// and GoalVerdicts must match and Created + Avoided must equal the
// reference's Created (every suppressed creation accounted for).
func (run *AvoidRun) checkAgainst(ref AvoidRun, refKeys, keys []string) {
	run.Identical = fmt.Sprint(keys) == fmt.Sprint(refKeys)
	switch run.Avoid {
	case "audit":
		norm := run.Stats
		norm.Avoided = 0
		run.Identical = run.Identical && norm == ref.Stats
	case "enforce":
		run.Identical = run.Identical &&
			run.Stats.Events == ref.Stats.Events &&
			run.Stats.GoalVerdicts == ref.Stats.GoalVerdicts &&
			run.Stats.Created+run.Stats.Avoided == ref.Stats.Created
	}
	if ref.Stats.Created > 0 {
		run.CreatedCut = 1 - float64(run.Stats.Created)/float64(ref.Stats.Created)
	}
}

// RunAvoid records one monitored workload and replays it under the full
// guard grid: enable-set creation with guards off/audit/enforce, the full
// (Figure 5) strategy unguarded and statically enforced, and a
// profile-guided enforce leg using the per-site profile the recorded
// trace produced.
func RunAvoid(cfg AvoidConfig) (*AvoidReport, error) {
	if cfg.Bench == "" {
		cfg.Bench = "avrora"
	}
	if cfg.Prop == "" {
		cfg.Prop = "UnsafeIter"
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 0.1
	}
	dir, err := os.MkdirTemp("", "rvavoid")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	spec, err := props.Build(cfg.Prop)
	if err != nil {
		return nil, err
	}
	an, err := spec.Analysis()
	if err != nil {
		return nil, err
	}
	res := &AvoidReport{Bench: cfg.Bench, Prop: cfg.Prop, TotalStates: len(an.Doomed)}
	for _, d := range an.Doomed {
		if d {
			res.DoomedStates++
		}
	}

	// Record the workload once; the replays below all read this trace, so
	// every leg sees the byte-identical stream (TestRetroOracleDaCapo
	// proves replay == online).
	path := filepath.Join(dir, fmt.Sprintf("%s_%s.rvt", cfg.Bench, cfg.Prop))
	if err := onlinePass(cfg, path); err != nil {
		return nil, fmt.Errorf("eval: avoid recording pass: %w", err)
	}
	if fi, err := os.Stat(path); err == nil {
		res.TraceMB = float64(fi.Size()) / (1 << 20)
	}

	// Enable-strategy legs: unguarded reference, audit, enforce.
	refE, refEKeys, err := avoidLeg(path, spec, "enable/off", monitor.CreateEnable, monitor.GCCoenable, monitor.AvoidOff, nil, nil)
	if err != nil {
		return nil, err
	}
	refE.Identical = true
	res.Runs = append(res.Runs, refE)
	for _, mode := range []monitor.AvoidMode{monitor.AvoidAudit, monitor.AvoidEnforce} {
		run, keys, err := avoidLeg(path, spec, "enable/"+mode.String(), monitor.CreateEnable, monitor.GCCoenable, mode, nil, nil)
		if err != nil {
			return nil, err
		}
		run.checkAgainst(refE, refEKeys, keys)
		res.Runs = append(res.Runs, run)
	}

	// Full-strategy legs (GCNone: enforce under the full strategy requires
	// it, and the unguarded reference must share the policy): the Figure 5
	// Δ-scan materializes instances the enable analysis never builds, so
	// this is where the static guard has something to suppress.
	refF, refFKeys, err := avoidLeg(path, spec, "full/off", monitor.CreateFull, monitor.GCNone, monitor.AvoidOff, nil, nil)
	if err != nil {
		return nil, err
	}
	refF.Identical = true
	res.Runs = append(res.Runs, refF)
	fullEnf, fullKeys, err := avoidLeg(path, spec, "full/enforce", monitor.CreateFull, monitor.GCNone, monitor.AvoidEnforce, nil, nil)
	if err != nil {
		return nil, err
	}
	fullEnf.checkAgainst(refF, refFKeys, fullKeys)
	res.Runs = append(res.Runs, fullEnf)

	// Profile pass: replay unguarded with a per-creation-site profile
	// attached, synthesize guards from it, then enforce them over the same
	// trace. A site is guarded when monitors were born there and none
	// reached a goal; the enforce leg proves the suppression keeps every
	// verdict and accounts for every creation.
	prof := monitor.NewCreationProfile(spec)
	profRun, profKeys, err := avoidLeg(path, spec, "enable/profiled", monitor.CreateEnable, monitor.GCCoenable, monitor.AvoidOff, nil, prof)
	if err != nil {
		return nil, err
	}
	profRun.checkAgainst(refE, refEKeys, profKeys)
	profRun.Identical = profRun.Identical && profRun.Stats == refE.Stats
	res.Runs = append(res.Runs, profRun)
	guards := prof.Guards()
	pEnf, pKeys, err := avoidLeg(path, spec, "enable/profile-enforce", monitor.CreateEnable, monitor.GCCoenable, monitor.AvoidEnforce, guards, nil)
	if err != nil {
		return nil, err
	}
	pEnf.checkAgainst(refE, refEKeys, pKeys)
	res.Runs = append(res.Runs, pEnf)

	// Per-site summary: static analysis verdicts plus profiled counters.
	for sym, ev := range spec.Events {
		site := AvoidSite{
			Event:        ev.Name,
			Created:      prof.Created[sym],
			Restepped:    prof.Restepped[sym],
			ReachedGoal:  prof.ReachedGoal[sym],
			ProfileGuard: guards[sym],
		}
		if sym < len(an.Creation) {
			site.Creation = an.Creation[sym]
		}
		if an.Guards != nil {
			gi := an.Guards[sym]
			site.StaticGuard = gi.DoomedStart || gi.NoViablePrefix
		}
		res.Sites = append(res.Sites, site)
	}

	res.Segments = refE.segments
	return res, nil
}

// Verify returns the tier's hard failures: a guarded replay that broke
// the suppression contract, or a full-strategy enforce leg whose guard
// never fired (the acceptance criterion is a measurable reduction).
func (r *AvoidReport) Verify() []string {
	var bad []string
	for _, run := range r.Runs {
		if !run.Identical {
			bad = append(bad, fmt.Sprintf("%s: diverged from its unguarded reference", run.Label))
		}
		if run.Label == "full/enforce" && run.Stats.Avoided == 0 {
			bad = append(bad, "full/enforce: static guard never fired — no creation avoided")
		}
	}
	return bad
}
