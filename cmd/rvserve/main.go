// Command rvserve runs the multi-tenant monitoring server: it accepts
// wire-protocol sessions over TCP (rvgo.WithRemote is the Go client) and
// monitors each session's event stream with its own engine — the paper's
// runtime, deployed as a service, with protocol-level object deaths
// driving the coenable-set monitor GC in place of weak references.
//
// Usage:
//
//	rvserve [-listen :7472] [-window 4096] [-max-shards 16]
//	        [-default-shards 1] [-flight 0] [-drain 10s] [-stats 0]
//	        [-metrics addr] [-record-dir dir] [-v]
//	rvserve -cluster a:7472,b:7472 [-hash-seed N] [-slots 16]
//	        [-listen :7472] [-window 4096] [-drain 10s] [-stats 0]
//	        [-metrics addr] [-v]
//
// Each session chooses its property (from the built-in library or from
// .rv source shipped in the handshake), GC policy, and backend shape
// (sequential or sharded, up to -max-shards). SIGINT/SIGTERM drain
// gracefully: accepting stops, active sessions get -drain to finish their
// streams, stragglers are cut.
//
// With -cluster the process is a router instead of a monitoring node: it
// accepts the same wire-protocol sessions, but fans each one out across
// the listed rvserve nodes, placing every slice by consistent-hashing its
// pivot parameter (seeded by -hash-seed, over -slots hash slots) and
// broadcasting non-pivot events to all nodes. Node failures re-home the
// lost slots onto survivors by journal replay; revived nodes are
// re-admitted by a background health probe. Clients cannot tell a router
// from a node, except that sharded backends (Shards > 1) are refused —
// the cluster already shards by pivot. The node-only flags (-max-shards,
// -default-shards, -flight, -record-dir) are rejected in router mode.
//
// With -metrics the server exposes its introspection surface on a side
// HTTP listener: Prometheus text at /metrics, the JSON status document at
// /statusz (what cmd/rvtop polls; a router's carries node health and
// handoff counters instead of backend shape), and the Go profiling
// endpoints under /debug/pprof/. With -record-dir every session's stream
// is also recorded as a persistent trace (session-<id>.rvt, readable by
// cmd/rvquery); a recording that fails is logged, and the session goes on.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rvgo"
	"rvgo/internal/cliutil"
)

func main() {
	var (
		listen        = flag.String("listen", ":7472", "TCP listen address")
		window        = flag.Int("window", 4096, "per-session event-credit window")
		maxShards     = flag.Int("max-shards", 16, "largest per-session backend a client may request (at most 64)")
		defaultShards = flag.Int("default-shards", 1, "backend when the client leaves the choice to the server")
		drain         = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for active sessions")
		flight        = flag.Int("flight", 0, "per-session flight recorder: dump the last n records on failure verdicts (0 = off)")
		statsEvery    = flag.Duration("stats", 0, "print aggregate stats on this interval (0 = never)")
		metricsAddr   = flag.String("metrics", "", "serve /metrics, /statusz and /debug/pprof on this address (empty = off)")
		recordDir     = flag.String("record-dir", "", "record every session's stream as a trace in this directory (empty = off)")
		clusterFl     = flag.String("cluster", "", "router mode: comma-separated rvserve node addresses to fan sessions out over")
		hashSeed      = flag.Uint64("hash-seed", 0, "router mode: seed perturbing the pivot and node hashes")
		slots         = flag.Int("slots", 0, "router mode: virtual hash slots per session (0 = default; at most 64)")
		verbose       = flag.Bool("v", false, "log session lifecycle events")
	)
	flag.Parse()
	if *clusterFl != "" {
		runRouter(*clusterFl, *listen, *window, *hashSeed, *slots, *drain, *statsEvery, *metricsAddr, *verbose)
		return
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "hash-seed", "slots":
			fatalf("-%s applies only to router mode (-cluster)", f.Name)
		}
	})
	if err := cliutil.ValidateShards(*defaultShards); err != nil {
		fatalf("-default-shards: %v", err)
	}
	if err := cliutil.ValidateShards(*maxShards); err != nil {
		fatalf("-max-shards: %v", err)
	}

	if *flight < 0 {
		fatalf("-flight: window size must be >= 0, got %d", *flight)
	}
	opts := rvgo.ServerOptions{
		Window:        *window,
		MaxShards:     *maxShards,
		DefaultShards: *defaultShards,
		FlightWindow:  *flight,
		RecordDir:     *recordDir,
	}
	if *verbose || *flight > 0 || *recordDir != "" {
		// Flight-window dumps and a recording's failure ride the session
		// log stream.
		opts.Logf = log.Printf
	}
	srv := rvgo.NewServer(opts)

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatalf("%v", err)
	}
	log.Printf("rvserve: listening on %s (window=%d, max-shards=%d)", l.Addr(), *window, *maxShards)

	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatalf("-metrics: %v", err)
		}
		log.Printf("rvserve: metrics on http://%s/metrics (statusz, pprof alongside)", ml.Addr())
		go func() {
			if err := http.Serve(ml, srv.DebugHandler()); err != nil {
				log.Printf("rvserve: metrics listener: %v", err)
			}
		}()
	}

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				st := srv.Stats()
				log.Printf("rvserve: sessions=%d/%d events=%d verdicts=%d",
					st.ActiveSessions, st.TotalSessions, st.Events, st.Verdicts)
			}
		}()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	select {
	case sig := <-sigs:
		log.Printf("rvserve: %v — draining (budget %s)", sig, *drain)
		srv.Shutdown(*drain)
		<-done
	case err := <-done:
		if err != nil {
			fatalf("%v", err)
		}
	}
	st := srv.Stats()
	log.Printf("rvserve: served %d sessions, %d events, %d verdicts", st.TotalSessions, st.Events, st.Verdicts)
}

// runRouter is rvserve's -cluster mode: a router fanning wire-protocol
// sessions out across the listed nodes instead of monitoring them itself.
// The node-only flags must stay unset — a router has no backend of its
// own to shape, record or flight-record.
func runRouter(nodeList, listen string, window int, seed uint64, slots int, drain, statsEvery time.Duration, metricsAddr string, verbose bool) {
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "max-shards", "default-shards", "flight", "record-dir":
			fatalf("-%s applies only to node mode; a router (-cluster) has no backend of its own", f.Name)
		}
	})
	nodes := cliutil.SplitNodes(nodeList)
	if len(nodes) == 0 {
		fatalf("-cluster: empty node list")
	}
	opts := rvgo.RouterOptions{
		Nodes:  nodes,
		Seed:   seed,
		Slots:  slots,
		Window: window,
	}
	if verbose {
		opts.Logf = log.Printf
	}
	rtr, err := rvgo.NewRouter(opts)
	if err != nil {
		fatalf("%v", err)
	}

	l, err := net.Listen("tcp", listen)
	if err != nil {
		fatalf("%v", err)
	}
	log.Printf("rvserve: routing on %s across %d nodes (window=%d, seed=%d)", l.Addr(), len(nodes), window, seed)

	if metricsAddr != "" {
		ml, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			fatalf("-metrics: %v", err)
		}
		log.Printf("rvserve: metrics on http://%s/metrics (statusz, pprof alongside)", ml.Addr())
		go func() {
			if err := http.Serve(ml, rtr.DebugHandler()); err != nil {
				log.Printf("rvserve: metrics listener: %v", err)
			}
		}()
	}

	if statsEvery > 0 {
		go func() {
			for range time.Tick(statsEvery) {
				st := rtr.Statusz()
				log.Printf("rvserve: sessions=%d/%d events=%d verdicts=%d handoffs=%d",
					st.Active, st.Total, st.Events, st.Verdicts, st.Handoffs)
			}
		}()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- rtr.Serve(l) }()

	select {
	case sig := <-sigs:
		log.Printf("rvserve: %v — draining (budget %s)", sig, drain)
		rtr.Shutdown(drain)
		<-done
	case err := <-done:
		if err != nil {
			fatalf("%v", err)
		}
	}
	st := rtr.Statusz()
	log.Printf("rvserve: routed %d sessions, %d events, %d verdicts (%d slot handoffs)",
		st.Total, st.Events, st.Verdicts, st.Handoffs)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rvserve: "+format+"\n", args...)
	os.Exit(1)
}
