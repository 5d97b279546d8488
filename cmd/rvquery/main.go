// Command rvquery is the retroactive monitor: it replays a recorded trace
// (rvgo.WithRecord, rvmon -record, rvload -record, or rvbench's recorder)
// through fresh monitors of any property and reports the verdicts and
// settled counters the online run would have produced — bit-identically,
// for the recorded property, under every GC policy and worker count.
//
// Usage:
//
//	rvquery -trace run.rvt [-prop UnsafeIter | -spec prop.rv]
//	        [-gc coenable|alldead|none] [-parallel 0] [-pivots 1,2,3]
//	        [-avoid off|audit|enforce]
//	        [-profile] [-verdicts] [-json]
//
// The query property need not be the recorded one: events are matched by
// name (unknown ones skip), so a trace recorded while monitoring one
// property answers later questions about any property over the same
// alphabet. -parallel replays segments across N workers partitioned by
// the recorded pivot index — the offline image of the sharded runtime —
// and -pivots restricts the replay to the given slices, skipping segments
// the pivot index proves irrelevant. A trace with a torn tail (crashed
// recorder) is truncated to its last intact segment and reported.
//
// -avoid replays with the creation-avoidance guards on (audit counts
// would-be-suppressed creations, enforce suppresses them; see DESIGN.md
// "Static creation avoidance"). -profile collects per-creation-site
// statistics — monitors created, re-stepped, ever reaching a goal — over
// a sequential replay and prints the property's avoidance report: the
// static creation guards side by side with what the recorded trace shows
// each site actually did. The profile is the input to profile-guided
// creation avoidance (rvgo.WithProfileGuards, rvbench -avoid).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rvgo"
	"rvgo/internal/cliutil"
	"rvgo/spec"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "recorded trace to query (required)")
		prop      = flag.String("prop", "", "built-in property to check")
		specFile  = flag.String("spec", "", "path to a .rv specification to check")
		gcMode    = flag.String("gc", "coenable", "monitor GC policy: coenable, alldead, none")
		parallel  = flag.Int("parallel", 0, "parallel replay workers (0 or 1 = sequential replay)")
		pivots    = flag.String("pivots", "", "comma-separated pivot object IDs to restrict the query to")
		avoidFl   = flag.String("avoid", "off", "creation-guard mode for the replay: off, audit, enforce")
		profileFl = flag.Bool("profile", false, "collect per-creation-site statistics and print the avoidance report (sequential replay only)")
		verdicts  = flag.Bool("verdicts", false, "print each goal verdict")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON")
	)
	flag.Parse()
	if *tracePath == "" {
		fatalf("missing -trace")
	}
	gc, err := cliutil.ParseGC(*gcMode)
	if err != nil {
		fatalf("%v", err)
	}
	avoid, err := cliutil.ParseAvoid(*avoidFl)
	if err != nil {
		fatalf("-avoid: %v", err)
	}
	workers := max(*parallel, 1)
	// With -profile the property is resolved through the public spec
	// package, whose compiled form drives the replay: the per-site profile
	// and the avoidance report must describe the same specification.
	var fs *spec.Spec
	var profile *rvgo.CreationProfile
	sp, err := cliutil.LoadQuerySpec(*prop, *specFile)
	if err != nil {
		fatalf("%v", err)
	}
	if *profileFl {
		if fs, err = loadFacadeSpec(*prop, *specFile); err != nil {
			fatalf("%v", err)
		}
		sp = fs.Compiled()
		profile = rvgo.NewCreationProfile(fs)
	}
	ids, err := parsePivots(*pivots)
	if err != nil {
		fatalf("-pivots: %v", err)
	}

	q := cliutil.RetroQuery{
		GC:      gc,
		Avoid:   avoid,
		Profile: profile,
		Workers: workers,
		Pivots:  ids,
		OnVerdict: cliutil.VerdictLines(sp, func(line string) {
			if *verdicts {
				fmt.Println("verdict " + line)
			}
		}),
	}
	start := time.Now()
	res, err := cliutil.RunRetroQuery(*tracePath, sp, q)
	if err != nil {
		fatalf("%v", err)
	}
	wall := time.Since(start)
	rate := float64(res.Stats.Events) / wall.Seconds()

	if *jsonOut {
		report := map[string]any{
			"trace": *tracePath, "prop": sp.Name, "gc": *gcMode, "workers": workers,
			"segments": res.Segments, "truncated": res.Truncated,
			"events": res.Stats.Events, "wall_sec": wall.Seconds(), "events_per_sec": rate,
			"created": res.Stats.Created, "flagged": res.Stats.Flagged,
			"collected": res.Stats.Collected, "goal_verdicts": res.Stats.GoalVerdicts,
			"steps": res.Stats.Steps, "live": res.Stats.Live,
			"avoid": avoid.String(), "avoided": res.Stats.Avoided,
			"frees": res.Replay.Frees, "broadcast": res.Replay.Broadcast,
			"events_skipped": res.Replay.EventsSkipped, "segments_skimmed": res.Replay.SegmentsSkimmed,
			"unknown_skipped": res.Replay.UnknownSkipped,
		}
		if profile != nil {
			rep, err := fs.Avoidance(profile)
			if err != nil {
				fatalf("%v", err)
			}
			report["avoidance"] = rep
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatalf("%v", err)
		}
		return
	}
	fmt.Printf("rvquery: %s over %s (gc=%s workers=%d avoid=%s)\n", sp.Name, *tracePath, *gcMode, workers, avoid)
	fmt.Printf("  %d segments%s, %d events replayed in %.3fs = %.0f events/s\n",
		res.Segments, truncNote(res.Truncated), res.Stats.Events, wall.Seconds(), rate)
	fmt.Printf("  monitors: created=%d flagged=%d collected=%d live=%d verdicts=%d steps=%d avoided=%d\n",
		res.Stats.Created, res.Stats.Flagged, res.Stats.Collected, res.Stats.Live,
		res.Stats.GoalVerdicts, res.Stats.Steps, res.Stats.Avoided)
	if res.Replay.EventsSkipped > 0 || res.Replay.SegmentsSkimmed > 0 || res.Replay.UnknownSkipped > 0 {
		fmt.Printf("  skipped: %d events (pivot filter), %d segments skimmed by index, %d unknown events\n",
			res.Replay.EventsSkipped, res.Replay.SegmentsSkimmed, res.Replay.UnknownSkipped)
	}
	if profile != nil {
		rep, err := fs.Avoidance(profile)
		if err != nil {
			fatalf("%v", err)
		}
		rep.Write(os.Stdout)
	}
}

// loadFacadeSpec resolves the -profile property through the public spec
// package (mirroring cliutil.LoadQuerySpec's flag semantics), so the
// avoidance report and the replayed engine share one compiled spec.
func loadFacadeSpec(prop, specFile string) (*spec.Spec, error) {
	switch {
	case prop != "" && specFile != "":
		return nil, fmt.Errorf("-prop and -spec are mutually exclusive")
	case prop != "":
		return spec.Builtin(prop)
	case specFile != "":
		src, err := os.ReadFile(specFile)
		if err != nil {
			return nil, err
		}
		specs, err := spec.Parse(string(src))
		if err != nil {
			return nil, err
		}
		if len(specs) != 1 {
			return nil, fmt.Errorf("%s defines %d properties; -profile analyzes exactly one", specFile, len(specs))
		}
		return specs[0], nil
	}
	return nil, fmt.Errorf("need -prop or -spec")
}

func parsePivots(s string) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	var ids []uint64
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad pivot ID %q", part)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

func truncNote(t bool) string {
	if t {
		return " (torn tail truncated)"
	}
	return ""
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rvquery: "+format+"\n", args...)
	os.Exit(1)
}
