package eval

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
	"rvgo/internal/wire"
)

// MicroResult is one hot-path micro measurement: per-event wall time and
// allocation counts over a fixed, deterministic event loop. Unlike the cell
// runtimes, AllocsPerEvent is deterministic — the loops run after a warmup
// that fills every pool, intern table and scratch buffer to its high-water
// mark — so CI can gate on it tightly where timing gates must stay loose.
type MicroResult struct {
	Name           string
	Events         int
	NsPerEvent     float64
	AllocsPerEvent float64
	BytesPerEvent  float64
}

// RunMicro measures the hot paths: sequential dispatch with and without
// fan-out, GC-churn dispatch (pool + intern sweep in steady state), and
// wire event decoding. The grid runner appends these to Results so every
// archived BENCH_*.json carries an allocation trajectory.
func RunMicro() ([]MicroResult, error) {
	var out []MicroResult
	for _, sc := range []struct {
		name   string
		events int
		build  func() (func(n int), error)
	}{
		{"dispatch/hasnext", 200_000, microHasNext},
		{"dispatch/unsafeiter-fanout", 20_000, microFanout},
		{"dispatch/churn-gc", 100_000, microChurn},
		{"wire/event-decode", 200_000, microWireDecode},
	} {
		run, err := sc.build()
		if err != nil {
			return nil, fmt.Errorf("eval: building micro %s: %w", sc.name, err)
		}
		out = append(out, measureMicro(sc.name, sc.events, run))
	}
	return out, nil
}

// measureMicro runs the loop once to warm every structure, then measures a
// second identical run with the collector paused: Mallocs deltas are exact
// and repeatable, wall time is free of GC pauses.
func measureMicro(name string, events int, run func(n int)) MicroResult {
	run(events) // warmup: pools, intern tables, scratch buffers, map growth
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	run(events)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return MicroResult{
		Name:           name,
		Events:         events,
		NsPerEvent:     float64(elapsed.Nanoseconds()) / float64(events),
		AllocsPerEvent: float64(after.Mallocs-before.Mallocs) / float64(events),
		BytesPerEvent:  float64(after.TotalAlloc-before.TotalAlloc) / float64(events),
	}
}

// microHasNext: single-parameter dispatch over a fixed iterator working
// set — the tightest loop the engine has.
func microHasNext() (func(int), error) {
	spec, err := props.Build("HasNext")
	if err != nil {
		return nil, err
	}
	eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable})
	if err != nil {
		return nil, err
	}
	h := heap.New()
	iters := make([]*heap.Object, 256)
	for i := range iters {
		iters[i] = h.Alloc("")
	}
	hnT, _ := spec.Symbol("hasnexttrue")
	nxt, _ := spec.Symbol("next")
	return func(n int) {
		for i := 0; i < n; i++ {
			it := iters[i&255]
			if i&1 == 0 {
				monitor.Emit(eng, hnT, it)
			} else {
				monitor.Emit(eng, nxt, it)
			}
		}
	}, nil
}

// microFanout: an update event fanning out to 64 monitors on one
// collection — the leaf-walk path.
func microFanout() (func(int), error) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		return nil, err
	}
	eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable})
	if err != nil {
		return nil, err
	}
	h := heap.New()
	c := h.Alloc("c")
	create, _ := spec.Symbol("create")
	update, _ := spec.Symbol("update")
	for i := 0; i < 64; i++ {
		monitor.Emit(eng, create, c, h.Alloc(""))
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			monitor.Emit(eng, update, c)
		}
	}, nil
}

// microChurn: generations of short-lived iterators — creation, dispatch,
// death, coenable collection, monitor-pool reuse and intern-table sweep,
// all in one loop. This is the scenario the free list exists for; its
// steady state must not allocate per generation.
func microChurn() (func(int), error) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		return nil, err
	}
	eng, err := monitor.New(spec, monitor.Options{
		GC: monitor.GCCoenable, Creation: monitor.CreateEnable, SweepInterval: 256,
	})
	if err != nil {
		return nil, err
	}
	h := heap.New()
	c := h.Alloc("c")
	create, _ := spec.Symbol("create")
	update, _ := spec.Symbol("update")
	next, _ := spec.Symbol("next")
	return func(n int) {
		for i := 0; i < n; i += 4 {
			it := h.Alloc("")
			monitor.Emit(eng, create, c, it)
			monitor.Emit(eng, next, it)
			h.Free(it)
			monitor.Emit(eng, update, c)
			monitor.Emit(eng, update, c)
		}
	}, nil
}

// microWireDecode: the server's per-frame decode loop over a pre-encoded
// pipelined event burst (the reader reuses its frame and ID buffers).
func microWireDecode() (func(int), error) {
	const burst = 4096
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	for i := 0; i < burst; i++ {
		if err := w.WriteEvent(i&3, []uint64{uint64(i & 1023), uint64(i & 255)}); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	encoded := buf.Bytes()
	return func(n int) {
		// One looping reader per run: the measured loop itself decodes n
		// frames from an endless pipelined stream with zero per-frame
		// allocation.
		r := wire.NewReader(&loopReader{data: encoded})
		var msg wire.Msg
		for i := 0; i < n; i++ {
			if err := r.Next(&msg); err != nil {
				panic(err)
			}
		}
	}, nil
}

// loopReader replays a byte stream forever (frame boundaries align with
// the buffer, so wrapping between Read calls is safe).
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}
