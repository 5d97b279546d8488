package main

import (
	"fmt"
	"io"
	"time"

	"rvgo"
)

// pacedPhase runs three paced reps in about budget (one rep with a fixed
// -reps), pools their lag samples and returns the pooled p50 and p99 with
// the generator's own lateness p99. p99 lag needs 1000 samples; with
// fewer it reports 0.
func (e *env) pacedPhase(cfg *config, budget time.Duration, t *tally) (p50, p99, late float64, err error) {
	n, dur := 3, budget/3
	if cfg.reps > 0 {
		n, dur = 1, time.Second
	}
	var lags, lates []float64
	for i := 0; i < n; i++ {
		r, err := e.pacedRep(dur)
		if err != nil {
			return 0, 0, 0, err
		}
		t.add(cfg, fmt.Sprintf("paced rep %d", i), r.ops, r.failed, r.why)
		l99 := percentile(r.lateMs, 99)
		valid := ""
		if l99 > 1 {
			valid = "  INVALID: the generator ran more than 1 ms late"
		}
		fmt.Fprintf(cfg.out, "  paced rep %d: %d records at %.0f/s, %d lag samples, lag p50 %.4f ms, %d of %d ticks held up by the path, generator late p99 %.4f ms%s\n",
			i, r.ops, e.wl.pacedRate, len(r.lagMs), percentile(r.lagMs, 50), r.behind, r.ticks, l99, valid)
		lags = append(lags, r.lagMs...)
		lates = append(lates, r.lateMs...)
	}
	if len(lags) >= 1000 {
		p99 = percentile(lags, 99)
	}
	return percentile(lags, 50), p99, percentile(lates, 99), nil
}

// measureTraced is the traced run of one workload: pairs of untraced and
// traced reps (their wall-time difference is the tracing overhead), the
// ledger legs, and for the Emit workloads a paced phase. Spans come from the benchmark's own
// code only; end-to-end numbers never come from here.
func measureTraced(wl *workload, cfg *config, spans io.Writer) (*result, error) {
	fmt.Fprintf(cfg.out, "\n== %s (traced)\n", wl.name)
	e, err := setup(wl, cfg)
	if err != nil {
		return nil, err
	}
	defer e.close()
	describe(cfg, e)

	L := ledger{}
	for _, d := range perLayer {
		L[d.name] = 0
	}
	var t tally
	e.genLeg(L)
	e.traceLeg(L)
	if wl.path == pathRetro {
		err = e.tracedRetro(cfg, L, &t, spans)
	} else {
		err = e.tracedEmit(cfg, L, &t, spans)
	}
	if err != nil {
		return nil, err
	}

	var samples []sample
	for _, d := range perLayer {
		samples = append(samples, sample{d, []float64{L[d.name]}})
	}
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed}
	res.Metrics = report(cfg, "  per layer:", samples)
	fmt.Fprintf(cfg.out, "  failed_share %d/%d\n", t.failed, t.attempted)
	return res, nil
}

// repPairs runs a warm-up, then alternating untraced (nil tracer) and
// traced reps for about half of -seconds (one pair with a fixed -reps).
// It writes the traced reps' spans to spans, reports the wall-time
// difference of the two sides as the tracing overhead, and returns the
// untraced reps and the traced reps' tracers.
func (e *env) repPairs(cfg *config, L ledger, t *tally, spans io.Writer, rep func(*tracer) (repResult, error)) (plain []repResult, trs []*tracer, err error) {
	var withSpans []repResult
	began := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		r, err := rep(nil)
		if err != nil {
			return nil, nil, err
		}
		t.add(cfg, fmt.Sprintf("untraced rep %d", i), r.ops, r.failed, r.why)
		if i == 0 { // warm-up
			continue
		}
		plain = append(plain, r)
		tr := newTracer(e.wl.name, i, len(e.st.recs), e.st.frees)
		if r, err = rep(tr); err != nil {
			return nil, nil, err
		}
		t.add(cfg, fmt.Sprintf("traced rep %d", i), r.ops, r.failed, r.why)
		withSpans = append(withSpans, r)
		trs = append(trs, tr)
		if spans != nil {
			if err := tr.writeSpans(spans); err != nil {
				return nil, nil, err
			}
		}
		if cfg.reps > 0 || time.Since(began)+time.Since(t0) > time.Duration(cfg.seconds/2*float64(time.Second)) {
			break
		}
	}
	wall := func(r repResult) float64 { return r.wall.Seconds() }
	L["bench.trace_overhead_pct"] = 100 * (median(column(withSpans, wall))/median(column(plain, wall)) - 1)
	return plain, trs, nil
}

// column is one value per rep.
func column(reps []repResult, f func(repResult) float64) []float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return v
}

// spanNs is the mean duration of the named spans over the traced reps.
func spanNs(trs []*tracer, name string) float64 {
	var total time.Duration
	count := 0
	for _, tr := range trs {
		d, n := tr.total(name)
		total += d
		count += n
	}
	return perOp(total, count)
}

// tracedEmit is the traced run of an Emit/Free workload.
func (e *env) tracedEmit(cfg *config, L ledger, t *tally, spans io.Writer) error {
	// The traced reps attach a metrics registry (rvgo.WithMetrics) and
	// read the nodes' registries around themselves; both are off in the
	// untraced reps.
	reg := rvgo.NewMetrics()
	nodes := map[string]float64{}
	plain, trs, err := e.repPairs(cfg, L, t, spans, func(tr *tracer) (repResult, error) {
		if tr == nil {
			return e.saturationRep(nil)
		}
		before := e.serverCounters()
		r, err := e.saturationRep(tr, rvgo.WithMetrics(reg))
		for k, v := range e.serverCounters() {
			nodes[k] += v - before[k]
		}
		return r, err
	})
	if err != nil {
		return err
	}
	// Right after the reps it is subtracted from, so both see the same
	// machine.
	monitorNs, err := e.monitorLeg(L)
	if err != nil {
		return err
	}
	cpuNs := median(column(plain, func(r repResult) float64 { return perOp(r.cpu, r.events) }))
	wallNs := median(column(plain, func(r repResult) float64 { return perOp(r.wall, r.events) }))
	perRep := 1 / float64(len(trs))
	newMs, freeNs := spanNs(trs, "new")/1e6, spanNs(trs, "free")
	L["rvgo.new_ms"] = newMs

	L["verdict_lag_p50_ms"], L["verdict_lag_p99_ms"], L["gen.late_p99_ms"], err = e.pacedPhase(cfg, time.Duration(cfg.seconds*0.3*float64(time.Second)), t)
	if err != nil {
		return err
	}
	if err := e.wireLeg(L); err != nil {
		return err
	}

	snap := reg.Snapshot()
	serverLeg := func() {
		L["server.credit_grants"] = nodes["rv_server_credit_grants_total"] * perRep
		L["server.credit_stalls"] = nodes["rv_server_credit_stalls_total"] * perRep
		L["server.credit_stall_ms"] = nodes["rv_server_credit_stall_seconds"] * 1e3 * perRep
		L["server.events"] = nodes["rv_server_events_total"] * perRep
		L["server.frees"] = nodes["rv_server_frees_total"] * perRep
	}
	switch e.wl.path {
	case pathSeq:
		L["rvgo.added_ns_per_event"] = wallNs - monitorNs
	case pathShard:
		for _, k := range []int{1, 2} {
			ns, err := e.shardLeg(L, k)
			if err != nil {
				return err
			}
			L[fmt.Sprintf("shard.added_ns_per_event.%d", k)] = ns - monitorNs
		}
		L["shard.free_ns_per_free"] = freeNs
		L["shard.events_per_batch"] = share(familySum(snap, "rv_shard_batch_events_total"), familySum(snap, "rv_shard_batches_total"))
		L["shard.broadcast_share"] = share(familySum(snap, "rv_shard_broadcasts_total"), float64(e.st.events*len(trs)))
		L["shard.refusals"] = familySum(snap, "rv_shard_refusals_total") * perRep
	case pathRemote:
		serverLeg()
		L["remote.session_ns_per_event"] = cpuNs - monitorNs - L["wire.encode_ns_per_event"] - L["wire.decode_ns_per_event"]
		L["remote.free_ns_per_free"] = freeNs
		L["remote.dial_ms"] = newMs
		var blocks []float64
		for _, tr := range trs {
			for _, s := range tr.named("block") {
				blocks = append(blocks, float64(s.dur())/1e3)
			}
		}
		L["remote.block_p99_us"] = percentile(blocks, 99)
		// One session, sequential backend: the node must have seen exactly
		// the stream.
		if ev, fr := L["server.events"], L["server.frees"]; ev != float64(e.st.events) || fr != float64(e.st.frees) {
			t.add(cfg, "traced reps", 0, 1, []string{fmt.Sprintf("node counted %.0f events and %.0f frees per rep, stream has %d and %d", ev, fr, e.st.events, e.st.frees)})
		}
	case pathCluster:
		serverLeg()
		// The same stream through one WithRemote session to the first node:
		// what the cluster's fan-out adds is the difference.
		single := e.onPath(pathRemote)
		var last repResult
		for i := 0; i < 2; i++ { // the first rep warms up
			if last, err = single.saturationRep(nil); err != nil {
				return err
			}
			t.add(cfg, fmt.Sprintf("single-session rep %d", i), last.ops, last.failed, last.why)
		}
		L["cluster.added_ns_per_event"] = cpuNs - perOp(last.cpu, last.events)
		routed, bcast := familySum(snap, "rv_cluster_events_total"), familySum(snap, "rv_cluster_broadcasts_total")
		L["cluster.broadcast_share"] = share(bcast, routed+bcast)
		L["cluster.credit_stalls"] = familySum(snap, "rv_cluster_credit_stalls_total") * perRep
		L["cluster.free_ns_per_free"] = freeNs
	}
	return nil
}

// tracedRetro is the traced run of retro-select: a span per query.
func (e *env) tracedRetro(cfg *config, L ledger, t *tally, spans io.Writer) error {
	if _, _, err := e.repPairs(cfg, L, t, spans, e.retroRep); err != nil {
		return err
	}
	if _, err := e.monitorLeg(L); err != nil {
		return err
	}
	return e.selectLeg(L)
}
