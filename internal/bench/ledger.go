package main

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"time"

	"rvgo"
	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/shard"
	"rvgo/internal/trace"
	"rvgo/internal/wire"
)

// The ledger legs push the workload's stream through shorter paths than
// the workload's own, one rep after a warm-up, so a layer's cost can be
// attributed by subtraction. Each leg writes its per-layer metrics into L.
type ledger map[string]float64

// driveSink keeps the no-op sink's work observable so the loop survives
// the compiler.
var driveSink uint64

// genLeg times the benchmark's own per-record work: the loop, the branch
// and the object lookups, into a sink that does nothing.
func (e *env) genLeg(L ledger) {
	var passes []float64
	for p := 0; p < 3; p++ {
		t0 := time.Now()
		var acc uint64
		for _, r := range e.st.recs {
			switch {
			case r.free():
				acc += e.objs[r.a].id
			case r.b != 0:
				acc += e.objs[r.a].id ^ e.objs[r.b].id
			default:
				acc += e.objs[r.a].id + uint64(r.sym)
			}
		}
		driveSink += acc
		passes = append(passes, perOp(time.Since(t0), len(e.st.recs)))
	}
	L["gen.drive_ns_per_record"] = median(passes)
}

// traceLeg reports the store's costs as taken while set-up recorded and
// re-read the stream.
func (e *env) traceLeg(L ledger) {
	n := len(e.st.recs)
	L["trace.encode_ns_per_record"] = perOp(e.st.encodeDur, n)
	L["trace.decode_ns_per_record"] = perOp(e.st.decodeDur, n)
	L["trace.bytes_per_record"] = share(float64(e.st.bytes), float64(n))
	L["trace.open_ms"] = ms(e.st.openDur)
}

// monitorLeg drives monitor.New + Engine.Dispatch directly, twice. The
// first pass warms up and carries a metrics series (sweep count and sweep
// latency come from its registry); the second is timed like a rep — after
// a forced GC, no telemetry attached — and samples the engine's stores
// once per block. It returns ns/event (first Dispatch through Flush), the
// baseline the façade, shard and remote legs subtract.
func (e *env) monitorLeg(L ledger) (float64, error) {
	series := metrics.NewEngineSeries(metrics.NewRegistry(), "ledger", monitor.GCCoenable.String())
	opts := monitor.Options{GC: monitor.GCCoenable, Metrics: series}
	var nsPerEvent float64
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			opts.Metrics = nil
			runtime.GC()
		}
		eng, err := monitor.New(e.st.spec, opts)
		if err != nil {
			return 0, err
		}
		resetObjects(e.objs)
		var internedPeak, internSlabs int
		var occupancyMid float64
		blocks := (len(e.st.recs) + blockRecords - 1) / blockRecords
		t0 := time.Now()
		for i, r := range e.st.recs {
			if r.free() {
				e.objs[r.a].dead.Store(true)
			} else {
				dispatchRecord(eng, e.st.spec, e.objs, r)
			}
			if (i+1)%blockRecords == 0 {
				internedPeak = max(internedPeak, eng.InternedInstances())
				internSlabs = max(internSlabs, eng.InstanceArenaStats().Slabs)
				if (i+1)/blockRecords == (blocks+1)/2 {
					occupancyMid = eng.ArenaStats().Occupancy()
				}
			}
		}
		before := eng.Stats()
		tf := time.Now()
		eng.Flush()
		flush := time.Since(tf)
		wall := time.Since(t0)
		st, as := eng.Stats(), eng.ArenaStats()
		_, reused := eng.PoolStats()
		eng.Close()
		if pass == 0 {
			L["monitor.sweeps"] = float64(series.Sweeps.Value())
			L["monitor.sweep_p99_us"] = series.SweepSeconds.Quantile(0.99) * 1e6
			continue
		}
		nsPerEvent = perOp(wall, e.st.events)
		L["monitor.ns_per_event"] = nsPerEvent
		L["monitor.created_per_event"] = share(float64(st.Created), float64(st.Events))
		L["monitor.steps_per_event"] = share(float64(st.Steps), float64(st.Events))
		L["monitor.flush_ms"] = ms(flush)
		L["monitor.collected_before_flush_share"] = share(float64(before.Collected), float64(st.Created))
		L["monitor.pool_reuse_share"] = share(float64(reused), float64(st.Created))
		L["param.interned_peak"] = float64(internedPeak)
		L["param.arena_slabs"] = float64(internSlabs)
		L["arena.slabs"] = float64(as.Slabs)
		L["arena.high_water"] = float64(as.HighWater)
		L["arena.occupancy_mid"] = occupancyMid
	}
	return nsPerEvent, nil
}

// shardLeg drives shard.New directly with the given shard count — the
// mailbox hop and the free barrier without the façade — and returns
// ns/event. With two shards it samples the mailbox depths per block.
func (e *env) shardLeg(L ledger, shards int) (float64, error) {
	var nsPerEvent float64
	for pass := 0; pass < 2; pass++ {
		rt, err := shard.New(e.st.spec, shard.Options{
			Options: monitor.Options{GC: monitor.GCCoenable},
			Shards:  shards,
		})
		if err != nil {
			return 0, err
		}
		resetObjects(e.objs)
		depth := 0
		t0 := time.Now()
		for i, r := range e.st.recs {
			if r.free() {
				rt.Free(&e.objs[r.a])
				e.objs[r.a].dead.Store(true)
			} else {
				dispatchRecord(rt, e.st.spec, e.objs, r)
			}
			if (i+1)%blockRecords == 0 {
				for _, d := range rt.QueueDepths() {
					depth = max(depth, d)
				}
			}
		}
		rt.Flush()
		nsPerEvent = perOp(time.Since(t0), e.st.events)
		events := rt.Stats().Events
		rt.Close()
		if events != uint64(e.st.events) {
			return 0, errors.New("bench: shard ledger leg lost events")
		}
		if shards == 2 {
			L["shard.queue_depth_max"] = float64(depth)
		}
	}
	return nsPerEvent, nil
}

// wireLeg encodes the stream's frames into a buffer and decodes them
// back: the codec alone, no connection. Costs are per stream event, the
// denominator of cpu_ns_per_event, so the legs subtract cleanly.
func (e *env) wireLeg(L ledger) error {
	var buf bytes.Buffer
	var enc, dec time.Duration
	for pass := 0; pass < 2; pass++ {
		buf.Reset()
		w := wire.NewWriter(&buf)
		var ids [2]uint64
		t0 := time.Now()
		for _, r := range e.st.recs {
			ids[0], ids[1] = uint64(r.a), uint64(r.b)
			var err error
			if r.free() {
				err = w.WriteFree(ids[:1])
			} else {
				err = w.WriteEvent(int(r.sym), ids[:e.st.spec.Events[r.sym].Params.Count()])
			}
			if err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		enc = time.Since(t0)

		rd := wire.NewReader(bytes.NewReader(buf.Bytes()))
		var msg wire.Msg
		frames := 0
		t0 = time.Now()
		for {
			err := rd.Next(&msg)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			frames++
		}
		dec = time.Since(t0)
		if frames != len(e.st.recs) {
			return errors.New("bench: wire ledger leg decoded a different frame count than it encoded")
		}
	}
	L["wire.encode_ns_per_event"] = perOp(enc, e.st.events)
	L["wire.decode_ns_per_event"] = perOp(dec, e.st.events)
	L["wire.bytes_per_event"] = share(float64(buf.Len()), float64(e.st.events))
	return nil
}

// selectLeg runs the retro-select queries as Reader.Replay on one open
// reader: the per-query cost without the open and CRC pass, and how much
// of the trace the pivot index let the replay skim.
func (e *env) selectLeg(L ledger) error {
	rd, err := trace.Open(e.st.path)
	if err != nil {
		return err
	}
	var total time.Duration
	var skimmed, visited int
	for _, id := range e.pivots {
		eng, err := monitor.New(e.st.spec, monitor.Options{GC: monitor.GCCoenable})
		if err != nil {
			return err
		}
		t0 := time.Now()
		rs, err := rd.Replay(eng, trace.ReplayOptions{Pivots: []uint64{id}})
		eng.Flush()
		total += time.Since(t0)
		eng.Close()
		if err != nil {
			return err
		}
		skimmed += rs.SegmentsSkimmed
		visited += rd.Segments()
	}
	L["trace.select_ms_per_query"] = ms(total) / float64(len(e.pivots))
	L["trace.segments_skimmed_share"] = share(float64(skimmed), float64(visited))
	return nil
}

// familySum adds up every series of one metric family (a histogram
// contributes its sum).
func familySum(snap []rvgo.MetricFamily, name string) float64 {
	var v float64
	for _, f := range snap {
		if f.Name == name {
			for _, s := range f.Series {
				v += s.Value
			}
		}
	}
	return v
}

// serverCounters sums a family over the workload's nodes.
func (e *env) serverCounters() map[string]float64 {
	out := map[string]float64{}
	for _, srv := range e.servers {
		snap := srv.Metrics().Snapshot()
		for _, name := range []string{
			"rv_server_credit_grants_total", "rv_server_credit_stalls_total",
			"rv_server_credit_stall_seconds", "rv_server_events_total", "rv_server_frees_total",
		} {
			out[name] += familySum(snap, name)
		}
	}
	return out
}
