// Live-object ingestion experiment: the same UNSAFEITER monitoring that
// the Figure 9/10 grid drives from the simulated DaCapo substrate, driven
// instead through the rv frontend over real heap-allocated Go objects,
// with monitor reclamation measured against real garbage-collection
// cycles. Collection points are pinned (runtime.GC via registry.Settle)
// so the reported counters are deterministic: every round's dropped
// iterators are collected, their deaths delivered, before the next round
// begins. The table shows the paper's Figure 10 story against a real
// collector: coenable GC reclaims monitors whose iterators died even
// though their collections live on, which the all-dead condition cannot.

package eval

import (
	"fmt"
	"math"
	rtmetrics "runtime/metrics"
	"time"

	"rvgo"
	"rvgo/internal/monitor"
	"rvgo/rv"
	"rvgo/spec"
)

// LiveConfig controls the live-object run.
type LiveConfig struct {
	Scale float64 // 1.0 ≈ 32k events per policy
}

// LiveResult is one policy's outcome.
type LiveResult struct {
	Policy     monitor.GCPolicy
	Stats      monitor.Stats
	RunSec     float64
	GCPauseSec float64 // host-collector STW pause accumulated over the run
	GCPinned   int     // pinned collection points (one per round)
	Delivered  int     // death signals delivered to the backend
	Settled    bool    // every dropped object's cleanup fired in time
}

// gcPauseTotal approximates the cumulative stop-the-world pause time from
// the runtime's /gc/pauses histogram (bucket-midpoint sum — exact totals
// are not exported, but the approximation is consistent between reads, so
// deltas compare fairly).
func gcPauseTotal() float64 {
	s := []rtmetrics.Sample{{Name: "/gc/pauses:seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64Histogram {
		return 0
	}
	h := s[0].Value.Float64Histogram()
	total := 0.0
	for i, count := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		total += float64(count) * (lo + hi) / 2
	}
	return total
}

// liveColl and liveIter are the real parameter objects. Both carry a
// pointer so they never land in the tiny allocator (see package registry).
type liveColl struct {
	id    int
	iters []*liveIter // the collection's view of its live iterators
}

type liveIter struct {
	c   *liveColl
	pos int
}

// liveRound allocates and fully exercises one round of iterators over the
// collections: create, a few nexts, and on every fourth iterator an
// update-then-next (the UNSAFEITER violation, so the run also produces
// verdicts). The iterators are unreachable when the function returns —
// noinline keeps them out of the caller's frame — which is what makes the
// caller's pinned Collect deterministic.
//
//go:noinline
func liveRound(s *rv.Session, colls []*liveColl, perColl int) (iters, events int, err error) {
	attach := func(ev string, objs ...any) {
		if err == nil {
			if e := s.Attach(ev, objs...); e != nil {
				err = e
			}
			events++
		}
	}
	for _, c := range colls {
		for k := 0; k < perColl; k++ {
			it := &liveIter{c: c}
			c.iters = append(c.iters, it)
			attach("create", c, it)
			attach("next", it)
			if k%4 == 3 {
				attach("update", c)
				attach("next", it)
			}
			if err != nil {
				return 0, events, err
			}
		}
		iters += len(c.iters)
		// Drop the strong references — including the backing array, which
		// would otherwise keep every iterator reachable.
		c.iters = nil
	}
	return iters, events, nil
}

// RunLivePolicy runs the live-object workload under one GC policy.
func RunLivePolicy(gc monitor.GCPolicy, cfg LiveConfig) (LiveResult, error) {
	res := LiveResult{Policy: gc, Settled: true}
	sp, err := spec.Builtin("UnsafeIter")
	if err != nil {
		return res, err
	}
	m, err := rvgo.New(sp, rvgo.WithGC(gc))
	if err != nil {
		return res, err
	}
	s := rv.New(m, rv.Options{ManualPoll: true})

	scale := cfg.Scale
	if scale <= 0 {
		scale = 1.0
	}
	rounds := int(32 * scale)
	if rounds < 1 {
		rounds = 1
	}
	const nColl, perColl = 8, 32

	colls := make([]*liveColl, nColl)
	for i := range colls {
		colls[i] = &liveColl{id: i}
	}
	pauseBefore := gcPauseTotal()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		dropped, _, err := liveRound(s, colls, perColl)
		if err != nil {
			s.Close()
			return res, err
		}
		// Pin the collection point: the round's iterators are garbage
		// now; collect them and deliver their deaths before round r+1.
		delivered, ok := s.Collect(dropped, 30*time.Second)
		res.Delivered += delivered
		res.GCPinned++
		if !ok {
			res.Settled = false
		}
	}
	res.RunSec = time.Since(start).Seconds()
	res.GCPauseSec = gcPauseTotal() - pauseBefore
	s.Flush()
	res.Stats = s.Stats()
	s.Close()
	return res, nil
}

// RunLive runs the workload under all three GC policies, in the paper's
// presentation order (the pre-GC baseline, JavaMOP's all-dead condition,
// RV's coenable sets).
func RunLive(cfg LiveConfig) ([]LiveResult, error) {
	var out []LiveResult
	for _, gc := range []monitor.GCPolicy{monitor.GCNone, monitor.GCAllDead, monitor.GCCoenable} {
		r, err := RunLivePolicy(gc, cfg)
		if err != nil {
			return nil, fmt.Errorf("live workload, gc=%s: %w", gc, err)
		}
		out = append(out, r)
	}
	return out, nil
}
