// Package eval is the experiment harness regenerating the paper's Figure
// 9(A) (percent runtime overhead), Figure 9(B) (peak memory) and Figure 10
// (monitoring statistics) over the synthetic DaCapo substrate, for the
// three systems compared: Tracematches (TM), JavaMOP (MOP) and RV.
package eval

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"rvgo/internal/cliutil"
	"rvgo/internal/cluster"
	"rvgo/internal/dacapo"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
	"rvgo/internal/remote"
	"rvgo/internal/tracematches"
)

// System identifies a monitoring system under test.
type System string

// The compared systems, in the paper's column order.
const (
	SysTM  System = "TM"
	SysMOP System = "MOP"
	SysRV  System = "RV"
)

// Config controls an evaluation run.
type Config struct {
	Scale      float64       // workload scale (1.0 ≈ paper/50)
	Timeout    time.Duration // per-cell budget; exceeded = the paper's "∞"
	Benchmarks []string
	Properties []string
	Systems    []System
	// Shards selects the monitoring backend for the RV and MOP cells:
	// 0 or 1 is the sequential engine, >1 the sharded runtime
	// (internal/shard) with that many workers.
	Shards int
	// Remote, when non-empty, is the address of an rvserve monitoring
	// server: the RV and MOP cells run over the network through the
	// remote client, one session per cell, with object deaths forwarded
	// as protocol-level free messages. Shards then selects the backend on
	// the server side, per session.
	Remote string
	// Nodes, when non-empty, lists the rvserve node addresses of a
	// monitoring cluster: the RV and MOP cells run as one logical session
	// each, spread across the nodes by pivot hash (rvgo.WithCluster's
	// backend). Mutually exclusive with Remote; Shards must stay 0 or 1 —
	// the cluster's per-node sessions are sequential.
	Nodes []string `json:",omitempty"`
	// Avoid applies the static creation-avoidance guards to every RV/MOP
	// cell (off by default): audit counts would-be-suppressed creations in
	// Stats.Avoided, enforce suppresses them. Supported on every backend
	// (the guards derive from the spec, so they cross the wire as a mode
	// byte); the profile-guided guards do not — those live in the -avoid
	// tier (RunAvoid), which replays a recorded trace sequentially.
	Avoid monitor.AvoidMode `json:",omitempty"`
}

// DefaultConfig returns the full Figure 9/10 grid at a CI-friendly scale.
func DefaultConfig() Config {
	return Config{
		Scale:      0.1,
		Timeout:    60 * time.Second,
		Benchmarks: dacapo.Benchmarks(),
		Properties: props.DaCapoProperties(),
		Systems:    []System{SysTM, SysMOP, SysRV},
	}
}

// Cell is one measurement. Creation and Avoid record the active creation
// strategy and guard mode of the RV/MOP backend that produced the cell,
// so archived grids are self-describing (a baseline from a guarded run
// cannot be mistaken for an unguarded one).
type Cell struct {
	TimedOut    bool
	RunSec      float64
	OverheadPct float64
	PeakMemMB   float64
	Creation    string        `json:",omitempty"` // creation strategy ("enable"; the grid never runs "full")
	Avoid       string        `json:",omitempty"` // creation-guard mode: off, audit, enforce
	Stats       monitor.Stats // RV/MOP counters (Figure 10)
	TMStats     tracematches.Stats
}

// Baseline is the unmonitored measurement of one benchmark.
type Baseline struct {
	RunSec    float64
	PeakMemMB float64
	Events    uint64 // instrumentation events the workload would emit
}

// Results holds a full grid.
type Results struct {
	Config Config
	Base   map[string]Baseline                   // by benchmark
	Cells  map[string]map[string]map[System]Cell // bench → prop → system
	All    map[string]Cell                       // RV monitoring all properties at once
	// Micro is the hot-path trajectory: per-event ns and allocation
	// counts (see RunMicro). Allocations are deterministic, so Compare
	// gates on them tightly; older archived baselines without the section
	// are simply not gated.
	Micro []MicroResult
	// Retro, when present, is the retroactive-monitoring tier: a
	// monitored workload recorded to the persistent trace store, replayed
	// at several worker counts, verified bit-identical to the online run
	// (see RunRetro; rvbench -retro produces and archives it).
	Retro *RetroResult `json:",omitempty"`
	// Metrics is the telemetry section: the engine's metrics registry
	// observed over a fixed churn workload (see RunMetricsReport). Counter
	// fields are deterministic and Compare gates on them exactly; latency
	// quantiles are reported only. Baselines archived before the section
	// existed are not gated.
	Metrics *MetricsReport `json:",omitempty"`
	// Cluster, when present, is the cluster comparison tier: the same
	// recorded workload monitored through a single remote session and a
	// pivot-hashed multi-node cluster session, verified to settle
	// identically (see RunCluster; rvbench -cluster produces it).
	Cluster *ClusterReport `json:",omitempty"`
	// Avoid, when present, is the creation-avoidance tier: one recorded
	// workload replayed under every guard configuration, with per-site
	// profile statistics and the suppression invariants verified against
	// the unguarded replay (see RunAvoid; rvbench -avoid produces it).
	Avoid *AvoidReport `json:",omitempty"`
}

// memSampler tracks peak heap usage on a fixed cadence.
type memSampler struct {
	peak uint64
}

func (s *memSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > s.peak {
		s.peak = ms.HeapAlloc
	}
}

func (s *memSampler) mb() float64 { return float64(s.peak) / (1 << 20) }

// runWorkload executes one profile with the given sinks attached and
// returns duration, peak memory and timeout status. settle, if non-nil,
// runs inside the timed region after the workload ends — asynchronous
// backends pass their Barrier so queued events count against the clock.
func runWorkload(bench string, scale float64, timeout time.Duration, attach func(rt *dacapo.Runtime) error, settle func()) (sec float64, peakMB float64, timedOut bool, err error) {
	p, ok := dacapo.Get(bench)
	if !ok {
		return 0, 0, false, fmt.Errorf("eval: unknown benchmark %q", bench)
	}
	rt := dacapo.NewRuntime()
	if attach != nil {
		if err := attach(rt); err != nil {
			return 0, 0, false, err
		}
	}
	sampler := &memSampler{}
	rt.AddSink(memSink(sampler))
	if timeout > 0 {
		rt.SetDeadline(time.Now().Add(timeout))
	}
	runtime.GC()
	sampler.sample()
	start := time.Now()
	werr := p.Run(rt, scale)
	if settle != nil {
		settle()
	}
	sec = time.Since(start).Seconds()
	sampler.sample()
	if werr == dacapo.ErrTimeout {
		return sec, sampler.mb(), true, nil
	}
	return sec, sampler.mb(), false, werr
}

// memSink samples memory every 4096 instrumentation events, at identical
// cadence for every system (and the baseline).
func memSink(s *memSampler) dacapo.Sink {
	n := 0
	return func(dacapo.Event) {
		n++
		if n&0xFFF == 0 {
			s.sample()
		}
	}
}

// RunBaseline measures the unmonitored workload. A discarded warmup run
// precedes the measurement so the baseline is not penalized for cold
// caches relative to the monitored runs that follow it.
func RunBaseline(bench string, scale float64) (Baseline, error) {
	if _, _, _, err := runWorkload(bench, scale, 0, nil, nil); err != nil {
		return Baseline{}, err
	}
	events := uint64(0)
	sec, mem, _, err := runWorkload(bench, scale, 0, func(rt *dacapo.Runtime) error {
		rt.AddSink(func(dacapo.Event) { events++ })
		return nil
	}, nil)
	if err != nil {
		return Baseline{}, err
	}
	// The counting sink above costs a closure call per event, the same
	// dispatch cost every monitored system also pays on top of it.
	return Baseline{RunSec: sec, PeakMemMB: mem, Events: events}, nil
}

// newEngine builds the RV/MOP monitoring backend: the sequential engine,
// the sharded runtime when cfg.Shards > 1, a remote session against
// cfg.Remote when set, or a pivot-hashed cluster session across cfg.Nodes
// when set.
func newEngine(spec *monitor.Spec, prop string, gc monitor.GCPolicy, cfg Config) (monitor.Runtime, error) {
	shards := cfg.Shards
	if shards == 0 {
		shards = 1
	}
	if len(cfg.Nodes) > 0 {
		return cluster.Open(cluster.Options{
			Prop:     prop,
			GC:       gc,
			Creation: monitor.CreateEnable,
			Avoid:    cfg.Avoid,
			Nodes:    cfg.Nodes,
		})
	}
	if cfg.Remote != "" {
		return remote.Dial(cfg.Remote, remote.Options{
			Prop:     prop,
			GC:       gc,
			Creation: monitor.CreateEnable,
			Avoid:    cfg.Avoid,
			Shards:   shards,
		})
	}
	opts := monitor.Options{GC: gc, Creation: monitor.CreateEnable, Avoid: cfg.Avoid}
	return cliutil.NewRuntime(spec, opts, shards)
}

// sessionErr surfaces a remote backend's sticky session error. The
// Runtime methods cannot return errors, so a connection lost mid-cell
// degrades them to no-ops; without this check the cell would report
// zeroed counters as a successful measurement.
func sessionErr(eng monitor.Runtime) error {
	if e, ok := eng.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// setFreeHook wires object deaths to the monitoring backends through the
// uniform Runtime.Free path: the hook runs just before the simulated heap
// marks the object dead, and each backend positions the death its own way
// — the sequential engine needs nothing (it observes liveness
// synchronously, so the hook is skipped entirely), the sharded runtime
// queues a free record in every shard's batch, and a remote session sends
// a protocol-level free that the server positions the same way.
func setFreeHook(rt *dacapo.Runtime, engines []monitor.Runtime, cfg Config) {
	if cfg.Remote == "" && len(cfg.Nodes) == 0 && cfg.Shards <= 1 {
		return
	}
	rt.Heap.SetFreeHook(func(o *heap.Object) {
		for _, eng := range engines {
			eng.Free(o)
		}
	})
}

// RunCell measures one benchmark × property × system combination.
func RunCell(bench, prop string, sys System, base Baseline, cfg Config) (Cell, error) {
	var cell Cell
	var eng monitor.Runtime
	var tme *tracematches.Engine

	attach := func(rt *dacapo.Runtime) error {
		spec, err := props.Build(prop)
		if err != nil {
			return err
		}
		switch sys {
		case SysRV, SysMOP:
			gc := monitor.GCCoenable
			if sys == SysMOP {
				gc = monitor.GCAllDead
			}
			eng, err = newEngine(spec, prop, gc, cfg)
			if err != nil {
				return err
			}
			cell.Creation, cell.Avoid = "enable", cfg.Avoid.String()
			sink, err := dacapo.Adapt(prop, eng)
			if err != nil {
				return err
			}
			rt.AddSink(sink)
			setFreeHook(rt, []monitor.Runtime{eng}, cfg)
		case SysTM:
			tme, err = tracematches.New(spec, tracematches.Options{})
			if err != nil {
				return err
			}
			sink, err := dacapo.Adapt(prop, tme)
			if err != nil {
				return err
			}
			rt.AddSink(sink)
		default:
			return fmt.Errorf("eval: unknown system %q", sys)
		}
		return nil
	}

	settle := func() {
		if eng != nil {
			eng.Barrier()
		}
	}
	sec, mem, timedOut, err := runWorkload(bench, cfg.Scale, cfg.Timeout, attach, settle)
	if err != nil {
		return cell, err
	}
	cell.RunSec = sec
	cell.PeakMemMB = mem
	cell.TimedOut = timedOut
	if base.RunSec > 0 {
		cell.OverheadPct = (sec - base.RunSec) / base.RunSec * 100
	}
	if eng != nil {
		eng.Flush()
		cell.Stats = eng.Stats()
		eng.Close()
		if err := sessionErr(eng); err != nil {
			return cell, err
		}
	}
	if tme != nil {
		tme.Sweep()
		cell.TMStats = tme.Stats()
	}
	return cell, nil
}

// RunAllProps measures RV monitoring every property simultaneously (the
// paper's ALL column, "not possible in other monitoring systems").
func RunAllProps(bench string, base Baseline, cfg Config) (Cell, error) {
	var cell Cell
	engines := make([]monitor.Runtime, 0, len(cfg.Properties))
	attach := func(rt *dacapo.Runtime) error {
		for _, prop := range cfg.Properties {
			spec, err := props.Build(prop)
			if err != nil {
				return err
			}
			eng, err := newEngine(spec, prop, monitor.GCCoenable, cfg)
			if err != nil {
				return err
			}
			sink, err := dacapo.Adapt(prop, eng)
			if err != nil {
				return err
			}
			rt.AddSink(sink)
			engines = append(engines, eng)
		}
		setFreeHook(rt, engines, cfg)
		return nil
	}
	settle := func() {
		for _, eng := range engines {
			eng.Barrier()
		}
	}
	sec, mem, timedOut, err := runWorkload(bench, cfg.Scale, cfg.Timeout, attach, settle)
	if err != nil {
		return cell, err
	}
	cell.RunSec = sec
	cell.PeakMemMB = mem
	cell.TimedOut = timedOut
	cell.Creation, cell.Avoid = "enable", cfg.Avoid.String()
	if base.RunSec > 0 {
		cell.OverheadPct = (sec - base.RunSec) / base.RunSec * 100
	}
	for _, eng := range engines {
		eng.Flush()
		st := eng.Stats()
		cell.Stats.Events += st.Events
		cell.Stats.Created += st.Created
		cell.Stats.Flagged += st.Flagged
		cell.Stats.Collected += st.Collected
		cell.Stats.GoalVerdicts += st.GoalVerdicts
		cell.Stats.Avoided += st.Avoided
		cell.Stats.Live += st.Live
		cell.Stats.PeakLive += st.PeakLive
		eng.Close()
		if err := sessionErr(eng); err != nil {
			return cell, err
		}
	}
	return cell, nil
}

// Run executes the full grid.
func Run(cfg Config, progress io.Writer) (*Results, error) {
	res := &Results{
		Config: cfg,
		Base:   map[string]Baseline{},
		Cells:  map[string]map[string]map[System]Cell{},
		All:    map[string]Cell{},
	}
	for _, bench := range cfg.Benchmarks {
		base, err := RunBaseline(bench, cfg.Scale)
		if err != nil {
			return nil, err
		}
		res.Base[bench] = base
		res.Cells[bench] = map[string]map[System]Cell{}
		for _, prop := range cfg.Properties {
			res.Cells[bench][prop] = map[System]Cell{}
			for _, sys := range cfg.Systems {
				cell, err := RunCell(bench, prop, sys, base, cfg)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", bench, prop, sys, err)
				}
				res.Cells[bench][prop][sys] = cell
				if progress != nil {
					fmt.Fprintf(progress, "%-10s %-14s %-3s %7.2fs  ovh %8.1f%%  mem %7.1fMB%s\n",
						bench, prop, sys, cell.RunSec, cell.OverheadPct, cell.PeakMemMB, timeoutMark(cell))
				}
			}
		}
		all, err := RunAllProps(bench, base, cfg)
		if err != nil {
			return nil, err
		}
		res.All[bench] = all
		if progress != nil {
			fmt.Fprintf(progress, "%-10s %-14s %-3s %7.2fs  ovh %8.1f%%  mem %7.1fMB%s\n",
				bench, "ALL", "RV", all.RunSec, all.OverheadPct, all.PeakMemMB, timeoutMark(all))
		}
	}
	micro, err := RunMicro()
	if err != nil {
		return nil, err
	}
	res.Micro = micro
	if progress != nil {
		for _, m := range micro {
			fmt.Fprintf(progress, "%-28s %8.1f ns/ev  %6.3f allocs/ev  %7.1f B/ev\n",
				"micro:"+m.Name, m.NsPerEvent, m.AllocsPerEvent, m.BytesPerEvent)
		}
	}
	met, err := RunMetricsReport()
	if err != nil {
		return nil, err
	}
	res.Metrics = met
	if progress != nil {
		fmt.Fprintf(progress, "%-28s pool hit %5.1f%%  sweeps %d  sweep p50/p99 %.1f/%.1f µs\n",
			"metrics:churn", met.PoolHitRate*100, met.Sweeps, met.SweepP50Us, met.SweepP99Us)
	}
	return res, nil
}

func timeoutMark(c Cell) string {
	if c.TimedOut {
		return "  (∞ timeout)"
	}
	return ""
}
