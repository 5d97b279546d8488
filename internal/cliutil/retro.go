package cliutil

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rvgo/internal/monitor"
	"rvgo/internal/props"
	"rvgo/internal/shard"
	ispec "rvgo/internal/spec"
	"rvgo/internal/trace"
)

// ValidateRecordPath validates a tool's -record/-trace output path flag
// the same way across rvmon, rvload and rvquery: the path must be
// non-empty, must not collide with a path another trace flag already
// claims (a -record path equal to the -trace input would overwrite the
// trace being read), and its parent directory is created if missing. It
// returns the cleaned path.
func ValidateRecordPath(flagName, path string, taken ...string) (string, error) {
	if strings.TrimSpace(path) == "" {
		return "", fmt.Errorf("%s: empty path", flagName)
	}
	clean := filepath.Clean(path)
	for _, o := range taken {
		if o != "" && filepath.Clean(o) == clean {
			return "", fmt.Errorf("%s: path %q duplicates another trace path flag", flagName, path)
		}
	}
	if err := trace.EnsureDir(clean); err != nil {
		return "", fmt.Errorf("%s: %v", flagName, err)
	}
	return clean, nil
}

// LoadQuerySpec resolves a retro query's property: a built-in library
// name (-prop) or a .rv specification file (-spec), exactly one of them.
func LoadQuerySpec(prop, specFile string) (*monitor.Spec, error) {
	switch {
	case prop != "" && specFile != "":
		return nil, fmt.Errorf("-prop and -spec are mutually exclusive")
	case prop != "":
		if err := ValidateProp(prop); err != nil {
			return nil, err
		}
		return props.Build(prop)
	case specFile != "":
		src, err := os.ReadFile(specFile)
		if err != nil {
			return nil, err
		}
		return ispec.CompileOne(string(src))
	}
	return nil, fmt.Errorf("need -prop or -spec")
}

// RetroQuery configures one retroactive run of a property over a recorded
// trace (cmd/rvquery's core, shared with the evaluation harness's
// creation-avoidance tier and the internal/bench retro-select workload).
type RetroQuery struct {
	// GC is the monitor GC policy of the replay engines.
	GC monitor.GCPolicy
	// Creation selects the creation strategy (zero value CreateEnable).
	// CreateFull, like Profile, needs Workers <= 1 (monitor.Options.Check).
	Creation monitor.CreationStrategy
	// Avoid is the creation-avoidance guard mode of the replay engines
	// (off, audit, enforce). Enforce with the full strategy requires
	// GCNone, as everywhere.
	Avoid monitor.AvoidMode
	// ProfileGuards, when non-nil, supplies per-symbol profile-guided
	// creation guards (from CreationProfile.Guards) to the replay
	// engines. The vector is read-only, so parallel replay is fine.
	ProfileGuards []bool
	// Profile, when non-nil, collects per-creation-site statistics
	// during the replay. Profiles are engine-local and unsynchronized.
	Profile *monitor.CreationProfile
	// Workers is the shard count of a parallel replay's sharded runtime;
	// <= 1 replays through one sequential engine.
	Workers int
	// Pivots, when non-empty, restricts the replay to these pivot
	// objects (slice-selective replay).
	Pivots []uint64
	// OnVerdict, when non-nil, receives every goal verdict. With
	// Workers > 1 invocations are serialized.
	OnVerdict func(monitor.Verdict)
}

// VerdictLines adapts a plain line consumer into a RetroQuery verdict
// handler: each goal verdict renders as "event category instance"
// against the query spec. It keeps the commands off internal/monitor
// (the façade boundary): rvquery consumes formatted lines, not engine
// types.
func VerdictLines(sp *monitor.Spec, fn func(line string)) func(monitor.Verdict) {
	return func(v monitor.Verdict) {
		fn(fmt.Sprintf("%s %s %s", sp.Events[v.Sym].Name, v.Cat, v.Key.Format(sp.Params)))
	}
}

// RetroResult is the outcome of a retroactive query: the settled monitor
// counters plus the replay-side accounting.
type RetroResult struct {
	Stats     monitor.Stats
	Replay    trace.ReplayStats
	Segments  int
	Truncated bool
}

// RunRetroQuery opens the trace at path and replays it through monitors
// of spec: one sequential engine, or with Workers > 1 the sharded runtime
// over Workers shards. The replay reproduces the online run
// bit-identically: same verdicts, same settled counters, under any worker
// count (see the internal/trace and internal/cliutil oracle tests).
func RunRetroQuery(path string, spec *monitor.Spec, q RetroQuery) (*RetroResult, error) {
	r, err := trace.Open(path)
	if err != nil {
		return nil, err
	}
	mopts := monitor.Options{
		GC:            q.GC,
		Creation:      q.Creation,
		Avoid:         q.Avoid,
		ProfileGuards: q.ProfileGuards,
		Profile:       q.Profile,
		OnVerdict:     q.OnVerdict,
	}
	var rt monitor.IDRuntime
	if q.Workers > 1 {
		rt, err = shard.New(spec, shard.Options{Options: mopts, Shards: q.Workers})
	} else {
		rt, err = monitor.New(spec, mopts)
	}
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	rs, err := r.Replay(rt, trace.ReplayOptions{Pivots: q.Pivots})
	if err != nil {
		return nil, err
	}
	rt.Flush()
	return &RetroResult{Stats: rt.Stats(), Replay: rs, Segments: r.Segments(), Truncated: r.Truncated()}, nil
}
