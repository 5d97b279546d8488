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

	"rvgo/internal/dacapo"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
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

// Cell is one measurement. RV and MOP cells run the sequential engine
// with enable-set creation and no creation guard; only the GC policy
// differs (coenable vs all-dead).
type Cell struct {
	TimedOut    bool
	RunSec      float64
	OverheadPct float64
	PeakMemMB   float64
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
// runs inside the timed region after the workload ends.
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

// RunCell measures one benchmark × property × system combination.
func RunCell(bench, prop string, sys System, base Baseline, cfg Config) (Cell, error) {
	var eng *monitor.Engine
	var tme *tracematches.Engine
	attach := func(rt *dacapo.Runtime) error {
		spec, err := props.Build(prop)
		if err != nil {
			return err
		}
		var em monitor.Dispatcher
		switch sys {
		case SysRV, SysMOP:
			gc := monitor.GCCoenable
			if sys == SysMOP {
				gc = monitor.GCAllDead
			}
			eng, err = monitor.New(spec, monitor.Options{GC: gc, Creation: monitor.CreateEnable})
			em = eng
		case SysTM:
			tme, err = tracematches.New(spec, tracematches.Options{})
			em = tme
		default:
			return fmt.Errorf("eval: unknown system %q", sys)
		}
		if err != nil {
			return err
		}
		sink, err := dacapo.Adapt(prop, em)
		if err != nil {
			return err
		}
		rt.AddSink(sink)
		return nil
	}
	cell, err := measure(bench, base, cfg, attach)
	if err != nil {
		return cell, err
	}
	if eng != nil {
		eng.Flush()
		cell.Stats = eng.Stats()
		eng.Close()
	}
	if tme != nil {
		tme.Sweep()
		cell.TMStats = tme.Stats()
	}
	return cell, nil
}

// RunAllProps measures RV monitoring every property simultaneously (the
// paper's ALL column, "not possible in other monitoring systems"). Its
// counters are the field-for-field sum of the per-property engines'.
func RunAllProps(bench string, base Baseline, cfg Config) (Cell, error) {
	engines := make([]*monitor.Engine, 0, len(cfg.Properties))
	attach := func(rt *dacapo.Runtime) error {
		for _, prop := range cfg.Properties {
			spec, err := props.Build(prop)
			if err != nil {
				return err
			}
			eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable})
			if err != nil {
				return err
			}
			engines = append(engines, eng)
			sink, err := dacapo.Adapt(prop, eng)
			if err != nil {
				return err
			}
			rt.AddSink(sink)
		}
		return nil
	}
	cell, err := measure(bench, base, cfg, attach)
	if err != nil {
		return cell, err
	}
	for _, eng := range engines {
		eng.Flush()
		st := eng.Stats()
		// Each engine sees its own event stream, so Events sums too.
		cell.Stats.Merge(st)
		cell.Stats.Events += st.Events
		eng.Close()
	}
	return cell, nil
}

// measure times one monitored run of bench against its baseline.
func measure(bench string, base Baseline, cfg Config, attach func(rt *dacapo.Runtime) error) (Cell, error) {
	sec, mem, timedOut, err := runWorkload(bench, cfg.Scale, cfg.Timeout, attach, nil)
	if err != nil {
		return Cell{}, err
	}
	cell := Cell{RunSec: sec, PeakMemMB: mem, TimedOut: timedOut}
	if base.RunSec > 0 {
		cell.OverheadPct = (sec - base.RunSec) / base.RunSec * 100
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
	return res, nil
}

func timeoutMark(c Cell) string {
	if c.TimedOut {
		return "  (∞ timeout)"
	}
	return ""
}
