// Command bench is the repository's benchmark: six fixed workloads, each a
// seeded stream pushed through one of the paths users call (rvgo.New +
// Emitter.Emit + Monitor.Free/Flush, cliutil.RunRetroQuery), measured end
// to end and, in a separate traced run, layer by layer. README.md in this
// directory has the tables; BENCHMARK.json at the repository root is the
// driver's contract.
//
//	go run ./internal/bench                      # all six, both runs
//	go run ./internal/bench -workload seq-churn -seed 3 -seconds 16 -trace 0
//	go run ./internal/bench -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	scale    float64
	seconds  float64
	reps     int
	trace    string
	traceOut string
	jsonOnly bool
	dir      string
	out      io.Writer
}

// setupRuns is how often a run repeats set-up to report setup_s as a
// median; a fixed -reps (tests, quick looks) sets up once.
const setupRuns = 3

func main() {
	cfg := &config{out: os.Stdout}
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "stream seed: the same seed gives byte-identical streams")
	flag.Float64Var(&cfg.scale, "scale", 1, "stream size multiplier")
	flag.Float64Var(&cfg.seconds, "seconds", 16, "measuring time per workload and run")
	flag.IntVar(&cfg.reps, "reps", 0, "fixed number of timed reps (0 = as many as -seconds allows)")
	flag.StringVar(&cfg.trace, "trace", "both", "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics), both")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the traced reps' spans to this file as JSON lines")
	flag.BoolVar(&cfg.jsonOnly, "json", false, "print only the result lines")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare the end-to-end medians with their bounds")
	flag.Parse()

	// One producer plus the path's workers; more Ps than that only adds
	// scheduler noise on large hosts.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if cfg.jsonOnly {
		cfg.out = io.Discard
	}
	ok, err := run(cfg, *selfcheck)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes the selected workloads and reports whether every output
// was correct. Trace files go to a private directory under .bench_build
// in the working directory, removed on the way out.
func run(cfg *config, selfcheck bool) (bool, error) {
	if cfg.trace != "0" && cfg.trace != "1" && cfg.trace != "both" {
		return false, fmt.Errorf("-trace %q: want 0, 1 or both", cfg.trace)
	}
	if cfg.traceOut != "" && cfg.trace == "0" {
		return false, fmt.Errorf("-trace-out needs a traced run; drop -trace 0")
	}
	var todo []*workload
	if cfg.workload == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if wl, ok := findWorkload(cfg.workload); ok {
		todo = append(todo, wl)
	} else {
		var names []string
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
		return false, fmt.Errorf("unknown -workload %q (have: %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.dir == "" {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return false, err
		}
		dir, err := os.MkdirTemp(".bench_build", "run-")
		if err != nil {
			return false, err
		}
		defer os.RemoveAll(dir)
		cfg.dir = dir
	}
	var spans io.Writer
	if cfg.traceOut != "" {
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return false, err
		}
		defer f.Close()
		spans = f
	}

	fmt.Fprintf(cfg.out, "bench: %s %s/%s nproc=%d GOMAXPROCS=%d seed=%d scale=%g seconds=%g\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed, cfg.scale, cfg.seconds)
	if selfcheck {
		return runSelfcheck(cfg, todo)
	}
	allOK := true
	for _, wl := range todo {
		if cfg.trace != "1" {
			res, err := measure(wl, cfg)
			if err != nil {
				return false, fmt.Errorf("%s: %w", wl.name, err)
			}
			allOK = emit(res) && allOK
		}
		if cfg.trace != "0" {
			res, err := measureTraced(wl, cfg, spans)
			if err != nil {
				return false, fmt.Errorf("%s (traced): %w", wl.name, err)
			}
			allOK = emit(res) && allOK
		}
	}
	return allOK, nil
}

// emit prints a run's result as one JSON line: the last line of a
// single-workload invocation is what the driver parses.
func emit(res *result) bool {
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // a result holds only numbers and strings
	}
	fmt.Println(string(line))
	return res.Correct
}

// sample is the per-rep values of one metric.
type sample struct {
	def  metricDef
	vals []float64
}

// report prints each metric's median with min, max and rep count, and
// returns the medians as the result's metric map.
func report(cfg *config, title string, samples []sample) map[string]metric {
	fmt.Fprintf(cfg.out, "%s\n", title)
	out := map[string]metric{}
	for _, s := range samples {
		med := median(s.vals)
		lo, hi := minMax(s.vals)
		out[s.def.name] = metric{Value: med, Unit: s.def.unit}
		if len(s.vals) > 1 {
			fmt.Fprintf(cfg.out, "  %-38s %14.4f %-6s (min %.4f, max %.4f, n=%d)\n", s.def.name, med, s.def.unit, lo, hi, len(s.vals))
		} else {
			fmt.Fprintf(cfg.out, "  %-38s %14.4f %-6s\n", s.def.name, med, s.def.unit)
		}
	}
	return out
}

// tally accumulates the oracle's verdict over a run's reps.
type tally struct {
	attempted, failed int
}

func (t *tally) add(cfg *config, what string, ops, failed int, why []string) {
	t.attempted += ops
	t.failed += failed
	for _, w := range why {
		fmt.Fprintf(cfg.out, "  FAILED %s: %s\n", what, w)
	}
}

// describe prints the stream's identity: what the determinism criterion
// compares across runs.
func describe(cfg *config, e *env) {
	st := e.st
	fmt.Fprintf(cfg.out, "  stream %s/%s: %d events, %d frees, %d bytes in %d segments, sha256 %s\n",
		st.def.name, st.def.prop, st.events, st.frees, st.bytes, st.segs, st.sha)
	if e.ref != nil {
		fmt.Fprintf(cfg.out, "  reference: created %d, verdicts %d, peak live %d\n",
			e.ref.stats.Created, e.ref.stats.GoalVerdicts, e.ref.stats.PeakLive)
	}
	fmt.Fprintf(cfg.out, "  set-up: spec %.1f ms, generate %.1f, record %.1f, open %.1f, scan %.1f, reference %.1f, nodes %.1f\n",
		ms(e.specDur), ms(st.genDur), ms(st.encodeDur), ms(st.openDur), ms(st.decodeDur), ms(e.refDur), ms(e.nodesDur))
}

// measure is the untraced run of one workload: set-up (repeated, for the
// setup_s median), a discarded warm-up rep, then saturation reps for
// about -seconds (or exactly -reps).
func measure(wl *workload, cfg *config) (*result, error) {
	fmt.Fprintf(cfg.out, "\n== %s (untraced)\n", wl.name)
	var setups []float64
	var e *env
	n := setupRuns
	if cfg.reps > 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(wl, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	describe(cfg, e)

	rep := func() (repResult, error) { return e.saturationRep(nil) }
	if wl.path == pathRetro {
		rep = func() (repResult, error) { return e.retroRep(nil) }
	}
	var t tally
	var reps []repResult
	began := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		r, err := rep()
		if err != nil {
			return nil, err
		}
		t.add(cfg, fmt.Sprintf("rep %d", i), r.ops, r.failed, r.why)
		if i > 0 { // rep 0 is the warm-up
			reps = append(reps, r)
		}
		if cfg.reps > 0 && len(reps) == cfg.reps {
			break
		}
		// Stop when the next rep would overrun; two timed reps at least.
		if cfg.reps == 0 && len(reps) >= 2 && time.Since(began)+time.Since(t0) > time.Duration(cfg.seconds*float64(time.Second)) {
			break
		}
	}

	vals := map[string][]float64{
		"events_per_s":       column(reps, func(r repResult) float64 { return float64(r.events) / r.wall.Seconds() }),
		"cpu_ns_per_event":   column(reps, func(r repResult) float64 { return perOp(r.cpu, r.events) }),
		"allocs_per_event":   column(reps, func(r repResult) float64 { return share(float64(r.mallocs), float64(r.events)) }),
		"retained_heap_mb":   column(reps, func(r repResult) float64 { return r.retainedMB }),
		"peak_live_monitors": column(reps, func(r repResult) float64 { return float64(r.peakLive) }),
		"setup_s":            setups,
	}
	var samples []sample
	for _, d := range endToEnd {
		samples = append(samples, sample{d, vals[d.name]})
	}
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed}
	res.Metrics = report(cfg, fmt.Sprintf("  end to end, medians over %d reps:", len(reps)), samples)
	fmt.Fprintf(cfg.out, "  failed_share %d/%d\n", t.failed, t.attempted)
	return res, nil
}
