// Command rvload is the load generator for the monitoring server: it
// records a DaCapo workload trace once, then drives N concurrent client
// sessions replaying it against an rvserve instance, and reports aggregate
// throughput and sync-round-trip latency percentiles.
//
// Usage:
//
//	rvload [-addr localhost:7472] [-conns 8] [-bench avrora]
//	       [-prop UnsafeIter] [-scale 0.05] [-repeat 1] [-gc coenable]
//	       [-shards N | -nodes a:7472,b:7472] [-probe 4096] [-min-rate 0]
//	       [-record run.rvt] [-workload wl.rvt] [-json]
//
// -record taps the first connection's stream into a persistent trace (the
// segment format cmd/rvquery replays): a recorded image of what one
// session sent the server, re-checkable offline against any property.
//
// -workload persists the recorded DaCapo workload itself (also the
// segment format, over the instrumentation alphabet): if the file exists
// it is loaded instead of re-recording — comparable runs drive the
// byte-identical workload — otherwise the fresh recording is saved there.
//
// rvload always monitors remotely, against -addr. -shards sizes each
// session's backend on the server (1 = the sequential engine, >1 = the
// sharded runtime); left unset, the server's -default-shards applies.
// With -nodes every connection is instead one logical session spread
// across the listed rvserve nodes (slices placed by pivot hash); -addr is
// unused — the cluster tier replaces the single server. To drive an
// rvserve router (rvserve -cluster) point -addr at it instead: a router
// accepts ordinary remote sessions and does the pivot-hashed fan-out
// server-side.
//
// Every connection is an independent session (its own spec registry
// entry, backend, and remote-object table on the server); object deaths
// recorded in the trace are forwarded as protocol free messages, so the
// server's monitor GC works at full trace fidelity under load. -probe
// issues a Barrier every that many events and records its round-trip time
// — the pipeline-depth-inclusive latency a monitored application would
// see at a synchronization point. -min-rate, when positive, makes rvload
// exit nonzero if aggregate throughput falls below it (CI smoke checks).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"rvgo"
	"rvgo/internal/cliutil"
	"rvgo/internal/dacapo"
	"rvgo/spec"
)

func main() {
	var (
		addr    = flag.String("addr", "localhost:7472", "rvserve address")
		conns   = flag.Int("conns", 8, "concurrent client sessions")
		bench   = flag.String("bench", "avrora", "DaCapo workload profile to record")
		prop    = flag.String("prop", "UnsafeIter", "property each session monitors")
		scale   = flag.Float64("scale", 0.05, "workload scale for the recorded trace")
		repeat  = flag.Int("repeat", 1, "trace replays per connection")
		gcMode  = flag.String("gc", "coenable", "monitor GC policy: coenable, alldead, none")
		shards  = flag.Int("shards", 0, "per-session server-side shard count (0 = the server's default)")
		nodesFl = flag.String("nodes", "", "comma-separated rvserve node addresses: one session across them instead of -addr")
		probe   = flag.Int("probe", 4096, "events between latency probes (Barrier round trips)")
		minRate = flag.Int("min-rate", 0, "fail unless aggregate events/s reaches this (0 = report only)")
		record  = flag.String("record", "", "record the first connection's stream to this trace file (rvquery replays it)")
		workld  = flag.String("workload", "", "persisted workload trace: loaded if it exists, else the fresh recording is saved there")
		jsonOut = flag.Bool("json", false, "emit the report as JSON")
	)
	flag.Parse()
	gc, err := cliutil.ParseGC(*gcMode)
	if err != nil {
		fatalf("%v", err)
	}
	nodes := cliutil.SplitNodes(*nodesFl)
	remoteAddr := *addr
	if len(nodes) > 0 {
		remoteAddr = "" // the cluster tier replaces the single server
	}
	backendOpts, err := cliutil.BackendOptions(*shards, remoteAddr, nodes)
	if err != nil {
		fatalf("%v", err)
	}
	if *conns < 1 {
		fatalf("-conns must be >= 1, got %d", *conns)
	}
	sp, err := spec.Builtin(*prop)
	if err != nil {
		fatalf("%v", err)
	}
	recordPath := ""
	if *record != "" {
		recordPath, err = cliutil.ValidateRecordPath("-record", *record)
		if err != nil {
			fatalf("%v", err)
		}
	}
	p, ok := dacapo.Get(*bench)
	if !ok {
		fatalf("unknown benchmark %q", *bench)
	}
	var tr *dacapo.Trace
	if *workld != "" {
		if _, statErr := os.Stat(*workld); statErr == nil {
			if tr, err = dacapo.ReadTraceFile(*workld); err != nil {
				fatalf("loading workload %s: %v", *workld, err)
			}
		}
	}
	if tr == nil {
		if tr, err = p.Record(*scale); err != nil {
			fatalf("recording %s: %v", *bench, err)
		}
		if *workld != "" {
			if err := tr.WriteFile(*workld); err != nil {
				fatalf("saving workload %s: %v", *workld, err)
			}
		}
	}

	type connResult struct {
		stats    rvgo.Stats
		probes   []time.Duration
		verdicts uint64
		err      error
	}
	results := make([]connResult, *conns)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < *conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res := &results[g]
			var verdicts uint64
			opts := append([]rvgo.Option{
				rvgo.WithGC(gc),
				rvgo.WithVerdictHandler(func(rvgo.Verdict) { verdicts++ }),
			}, backendOpts...)
			if recordPath != "" && g == 0 {
				opts = append(opts, rvgo.WithRecord(recordPath))
			}
			cl, err := rvgo.New(sp, opts...)
			if err != nil {
				res.err = err
				return
			}
			defer cl.Close()
			sink, err := dacapo.Adapt(*prop, cl)
			if err != nil {
				res.err = err
				return
			}
			sent := 0
			probed := sink
			if *probe > 0 {
				probed = func(ev dacapo.Event) {
					sink(ev)
					if sent++; sent%*probe == 0 {
						t0 := time.Now()
						cl.Barrier()
						res.probes = append(res.probes, time.Since(t0))
					}
				}
			}
			// One heap across all replays: remote object IDs come from
			// heap IDs, and a session must never reuse an ID after its
			// free (each replay allocates fresh objects, so a shared heap
			// keeps IDs unique; a fresh heap would restart them at 1).
			h := rvgo.NewHeap()
			h.SetFreeHook(func(o *rvgo.Object) { cl.Free(o) })
			for it := 0; it < *repeat; it++ {
				tr.Replay(h, probed, nil)
			}
			cl.Flush()
			res.stats = cl.Stats()
			res.verdicts = verdicts
			cl.Close() // seals any -record trace (idempotent with the defer)
			res.err = cl.Err()
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)

	var total rvgo.Stats
	var probes []time.Duration
	var verdicts uint64
	for g, res := range results {
		if res.err != nil {
			fatalf("conn %d: %v", g, res.err)
		}
		// Connections are independent sessions: Events sums like the rest.
		total.Merge(res.stats)
		total.Events += res.stats.Events
		probes = append(probes, res.probes...)
		verdicts += res.verdicts
	}
	rate := float64(total.Events) / wall.Seconds()

	if *jsonOut {
		report := map[string]any{
			"conns": *conns, "bench": *bench, "prop": *prop, "scale": *scale,
			"repeat": *repeat, "gc": *gcMode, "shards": *shards, "nodes": len(nodes),
			"events": total.Events, "wall_sec": wall.Seconds(), "events_per_sec": rate,
			"created": total.Created, "flagged": total.Flagged, "collected": total.Collected,
			"verdicts": verdicts,
			"barrier_rtt_ms": map[string]float64{
				"p50": ms(pct(probes, 50)), "p90": ms(pct(probes, 90)),
				"p99": ms(pct(probes, 99)), "max": ms(pct(probes, 100)),
			},
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatalf("%v", err)
		}
	} else {
		if len(nodes) > 0 {
			fmt.Printf("rvload: %d conns × %s/%s scale %g ×%d (gc=%s cluster of %d nodes)\n",
				*conns, *bench, *prop, *scale, *repeat, *gcMode, len(nodes))
		} else {
			fmt.Printf("rvload: %d conns × %s/%s scale %g ×%d (gc=%s shards=%d)\n",
				*conns, *bench, *prop, *scale, *repeat, *gcMode, *shards)
		}
		fmt.Printf("  %d events in %.2fs = %.0f events/s aggregate\n", total.Events, wall.Seconds(), rate)
		fmt.Printf("  monitors: created=%d flagged=%d collected=%d  verdicts=%d\n",
			total.Created, total.Flagged, total.Collected, verdicts)
		if len(probes) > 0 {
			fmt.Printf("  barrier RTT: p50=%.2fms p90=%.2fms p99=%.2fms max=%.2fms (%d probes)\n",
				ms(pct(probes, 50)), ms(pct(probes, 90)), ms(pct(probes, 99)), ms(pct(probes, 100)), len(probes))
		}
	}
	if *minRate > 0 && rate < float64(*minRate) {
		fatalf("aggregate rate %.0f events/s below -min-rate %d", rate, *minRate)
	}
}

// pct returns the p-th percentile (nearest-rank) of the samples, or 0
// when there are none.
func pct(samples []time.Duration, p int) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	idx := len(sorted)*p/100 - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rvload: "+format+"\n", args...)
	os.Exit(1)
}
