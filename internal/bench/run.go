package main

import (
	"fmt"
	"runtime"
	"time"

	"rvgo"
	"rvgo/internal/cliutil"
	"rvgo/internal/monitor"
	"rvgo/internal/trace"
)

// driver is the timed loop's state: the open Monitor, one pre-resolved
// Emitter per event symbol and the pre-allocated objects, so a record
// costs the benchmark an index, a branch and the call under test.
type driver struct {
	mon  *rvgo.Monitor
	ems  []rvgo.Emitter
	two  []bool // per symbol: the event binds two objects
	objs []obj
}

func newDriver(mon *rvgo.Monitor, objs []obj) *driver {
	d := &driver{mon: mon, objs: objs}
	for _, name := range mon.Property().Events() {
		em := mon.MustEvent(name)
		d.ems = append(d.ems, em)
		d.two = append(d.two, em.Arity() == 2)
	}
	return d
}

func (d *driver) record(r record) {
	switch {
	case r.free():
		o := &d.objs[r.a]
		d.mon.Free(o)
		o.dead.Store(true)
	case d.two[r.sym]:
		d.ems[r.sym].Emit(&d.objs[r.a], &d.objs[r.b])
	default:
		d.ems[r.sym].Emit(&d.objs[r.a])
	}
}

func (d *driver) run(recs []record) {
	for _, r := range recs {
		d.record(r)
	}
}

// runTraced is run with a block span per blockRecords records and a child
// span around each Monitor.Free.
func (d *driver) runTraced(recs []record, tr *tracer) {
	for len(recs) > 0 {
		blk := recs[:min(blockRecords, len(recs))]
		recs = recs[len(blk):]
		b := tr.open("block", 0)
		frees := 0
		for _, r := range blk {
			if r.free() {
				f := tr.open("free", tr.spans[b].ID)
				d.record(r)
				tr.end(f)
				tr.spans[f].Records, tr.spans[f].Frees = 1, 1
				frees++
			} else {
				d.record(r)
			}
		}
		tr.end(b)
		tr.spans[b].Records, tr.spans[b].Events, tr.spans[b].Frees = len(blk), len(blk)-frees, frees
	}
}

// repResult is one saturation rep (or one retro-select rep of
// retroQueries queries).
type repResult struct {
	wall, cpu  time.Duration
	mallocs    uint64
	events     int     // the per-event denominator
	retainedMB float64 // live heap at the midpoint over the pre-rep baseline
	peakLive   int64
	ops        int
	failed     int
	why        []string
}

const mb = 1 << 20

// saturationRep replays the whole stream through the workload's path as
// fast as the path accepts it: closed loop, one producer. The clock runs
// from the first Emit through Flush and stops around the midpoint heap
// measurement. With a tracer the loop records spans; extra options (the
// traced rep's WithMetrics) are passed to rvgo.New.
func (e *env) saturationRep(tr *tracer, extra ...rvgo.Option) (repResult, error) {
	res := repResult{events: e.st.events, ops: len(e.st.recs)}
	resetObjects(e.objs)
	got := make([]vkey, 0, len(e.ref.verdicts)+16)
	handler := func(v rvgo.Verdict) { got = append(got, keyOf(v)) }
	base := liveHeap()

	span := func(name string) func() {
		if tr == nil {
			return func() {}
		}
		i := tr.open(name, 0)
		return func() { tr.end(i) }
	}
	done := span("new")
	mon, err := e.newMonitor(handler, extra...)
	done()
	if err != nil {
		return res, err
	}
	d := newDriver(mon, e.objs)
	run := d.run
	if tr != nil {
		run = func(recs []record) { d.runTraced(recs, tr) }
	}

	var m meter
	mid := len(e.st.recs) / 2
	m.start()
	run(e.st.recs[:mid])
	m.stop()
	live := liveHeap()
	res.retainedMB = (float64(live) - float64(base)) / mb
	m.start()
	run(e.st.recs[mid:])
	done = span("flush")
	mon.Flush()
	done()
	m.stop()
	res.wall, res.cpu, res.mallocs = m.wall, m.cpu, m.mallocs

	stats, serr := mon.Stats(), mon.Err()
	done = span("close")
	mon.Close()
	done()
	res.peakLive = stats.PeakLive
	res.failed, res.why = e.ref.checkRep(res.ops, e.wl.path == pathSeq, stats, got, serr)
	return res, nil
}

// pacedResult is one paced rep: verdict lags and generator lateness, in
// milliseconds. lateMs has a sample per tick the generator waited for (how
// late its own wake-up was); behind counts the ticks it could not wait
// for because the path was still taking the previous one. That delay is
// the path's, and the lags include it.
type pacedResult struct {
	lagMs  []float64
	lateMs []float64
	ticks  int
	behind int
	ops    int
	failed int
	why    []string
}

// tickRecords is the paced phase's emission unit: the generator wakes per
// tick, not per record, so its own clock reads stay off the measured path.
const tickRecords = 256

// pacedRep replays a stream prefix open loop at the workload's paced
// rate: tick k is due at start + k*tickRecords/rate whether or not the
// path kept up, and each verdict is timed from the due time of the tick
// holding the record that triggers it (known from the reference run) to
// the verdict handler's entry.
func (e *env) pacedRep(dur time.Duration) (pacedResult, error) {
	rate := e.wl.pacedRate
	n := min(len(e.st.recs), int(rate*dur.Seconds()))
	n = max(n-n%tickRecords, min(tickRecords, len(e.st.recs)))
	interval := time.Duration(float64(tickRecords) / rate * float64(time.Second))
	res := pacedResult{ops: n}
	events := 0
	for _, r := range e.st.recs[:n] {
		if !r.free() {
			events++
		}
	}

	resetObjects(e.objs)
	got := make([]vkey, 0, len(e.ref.verdicts)+16)
	res.lagMs = make([]float64, 0, len(e.ref.verdicts)+16)
	seen := make(map[vkey]int, len(e.ref.verdicts))
	var start time.Time
	handler := func(v rvgo.Verdict) {
		now := time.Now()
		k := keyOf(v)
		got = append(got, k)
		if at := e.ref.trigger[k]; seen[k] < len(at) {
			due := start.Add(time.Duration(at[seen[k]]/tickRecords) * interval)
			res.lagMs = append(res.lagMs, ms(now.Sub(due)))
		}
		seen[k]++
	}
	mon, err := e.newMonitor(handler)
	if err != nil {
		return res, err
	}
	d := newDriver(mon, e.objs)
	start = time.Now().Add(2 * time.Millisecond)
	for k := 0; k*tickRecords < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		res.ticks++
		if time.Until(due) > 0 {
			sleepUntil(due)
			res.lateMs = append(res.lateMs, ms(time.Since(due)))
		} else {
			res.behind++
		}
		d.run(e.st.recs[k*tickRecords : min((k+1)*tickRecords, n)])
	}
	mon.Flush()
	stats, serr := mon.Stats(), mon.Err()
	mon.Close()
	res.failed, res.why = e.ref.checkPrefix(n, events, stats, got, serr)
	return res, nil
}

// sleepUntil sleeps to within two milliseconds of t, then yields until t:
// timer wake-ups alone are a millisecond or two late here, the same order
// as the lags being measured.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 3*time.Millisecond {
			time.Sleep(d - 2*time.Millisecond)
		} else {
			runtime.Gosched()
		}
	}
}

// retroRep runs retroQueries pivot-selective retroactive queries, each a
// full cliutil.RunRetroQuery (open, CRC, segment skim, decode-and-skip,
// dispatch of the one slice). Events are the records covered: dispatched
// plus skipped. The oracle is per query: dispatched must equal the slice
// size Scan found. Between the two halves the clock stops and the live
// heap is taken with the trace open, as a running query holds it.
func (e *env) retroRep(tr *tracer) (repResult, error) {
	res := repResult{ops: len(e.pivots)}
	spec := e.pub.Compiled()
	base := liveHeap()
	var m meter
	m.start()
	for q, id := range e.pivots {
		if q == len(e.pivots)/2 {
			m.stop()
			rd, err := trace.Open(e.st.path)
			if err != nil {
				return res, err
			}
			live := liveHeap()
			res.retainedMB = (float64(live) - float64(base)) / mb
			runtime.KeepAlive(rd)
			m.start()
		}
		sp := -1
		if tr != nil {
			sp = tr.open("query", 0)
		}
		qr, err := cliutil.RunRetroQuery(e.st.path, spec, cliutil.RetroQuery{
			GC:     monitor.GCCoenable,
			Pivots: []uint64{id},
		})
		if tr != nil {
			tr.end(sp)
			if err == nil {
				tr.spans[sp].Records = int(qr.Replay.Events + qr.Replay.EventsSkipped)
				tr.spans[sp].Events = int(qr.Replay.Events)
			}
		}
		if err != nil {
			res.failed++
			res.why = append(res.why, fmt.Sprintf("query %d (pivot %d): %v", q, id, err))
			continue
		}
		res.events += int(qr.Replay.Events + qr.Replay.EventsSkipped)
		res.peakLive += qr.Stats.PeakLive
		if want := e.sliceSize[id]; int(qr.Replay.Events) != want || int(qr.Stats.Events) != want || qr.Truncated {
			res.failed++
			res.why = append(res.why, fmt.Sprintf("query %d (pivot %d): dispatched %d, engine saw %d, slice holds %d, truncated=%v",
				q, id, qr.Replay.Events, qr.Stats.Events, want, qr.Truncated))
		}
	}
	m.stop()
	res.wall, res.cpu, res.mallocs = m.wall, m.cpu, m.mallocs
	return res, nil
}
