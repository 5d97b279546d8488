package main

import (
	"fmt"
	"net"
	"time"

	"rvgo"
	"rvgo/internal/trace"
	"rvgo/spec"
)

type pathKind int

const (
	pathSeq     pathKind = iota // rvgo.New(spec): the sequential engine
	pathShard                   // WithShards(2)
	pathRemote                  // WithRemote: loopback TCP, in-process server
	pathCluster                 // WithCluster over two in-process nodes
	pathRetro                   // cliutil.RunRetroQuery, pivot-selective
)

// workload is one fixed (stream, path) pairing. Names are cited by later
// issues and declared in BENCHMARK.json; bench_test.go keeps the two equal.
type workload struct {
	name   string
	stream streamDef
	path   pathKind
	// pacedRate is the open-loop rate of the paced phase in records per
	// second: well below the path's saturation throughput, so a backlog
	// that grows is the path's fault, not the rate's.
	pacedRate float64
}

var workloads = []workload{
	{name: "seq-churn", stream: streamChurn, path: pathSeq, pacedRate: 200_000},
	{name: "seq-steady", stream: streamSteady, path: pathSeq, pacedRate: 200_000},
	{name: "shard-churn", stream: streamChurn, path: pathShard, pacedRate: 100_000},
	{name: "wire-steady", stream: streamSteady, path: pathRemote, pacedRate: 200_000},
	{name: "cluster-churn", stream: streamChurnSmall, path: pathCluster, pacedRate: 15_000},
	{name: "retro-select", stream: streamSteadyHasNext, path: pathRetro},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// retroQueries is the number of pivot-selective queries in one
// retro-select rep.
const retroQueries = 64

// env is everything set-up builds for one workload: the recorded stream,
// the façade spec, the oracle, the shared object table and, for the
// networked paths, the in-process nodes.
type env struct {
	wl   *workload
	st   *stream
	pub  *spec.Spec
	ref  *reference
	objs []obj

	addrs   []string
	servers []*rvgo.Server

	// retro-select: the queried pivots and, from Scan, each one's slice
	// size (the per-query oracle).
	pivots    []uint64
	sliceSize map[uint64]int

	specDur, refDur, nodesDur time.Duration
}

// setup does everything that precedes the first timed rep: generate the
// stream, record it, read it back, build the spec, run the reference and
// start the nodes. Its wall time is the setup_s metric.
func setup(wl *workload, cfg *config) (*env, error) {
	e := &env{wl: wl}
	t0 := time.Now()
	pub, err := spec.Builtin(wl.stream.prop)
	if err != nil {
		return nil, err
	}
	e.pub = pub
	e.specDur = time.Since(t0)

	if e.st, err = buildStream(wl.stream, pub.Compiled(), cfg.seed, cfg.scale, cfg.dir); err != nil {
		return nil, err
	}
	e.objs = newObjects(e.st.maxID)

	t0 = time.Now()
	if wl.path == pathRetro {
		err = e.buildRetroOracle()
	} else {
		e.ref, err = buildReference(e.st, e.objs)
	}
	if err != nil {
		return nil, err
	}
	e.refDur = time.Since(t0)

	t0 = time.Now()
	nodes := map[pathKind]int{pathRemote: 1, pathCluster: 2}[wl.path]
	for i := 0; i < nodes; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		srv := rvgo.NewServer(rvgo.ServerOptions{})
		go srv.Serve(l) // returns when close shuts the server down
		e.servers = append(e.servers, srv)
		e.addrs = append(e.addrs, l.Addr().String())
	}
	e.nodesDur = time.Since(t0)
	return e, nil
}

// close stops the nodes and waits for their sessions to end.
func (e *env) close() {
	for _, srv := range e.servers {
		srv.Shutdown(2 * time.Second)
	}
	e.servers = nil
}

// buildRetroOracle picks the queried pivots, spread evenly over the
// trace's pivot index, and counts each one's events in the records Scan
// decoded.
func (e *env) buildRetroOracle() error {
	rd, err := trace.Open(e.st.path)
	if err != nil {
		return err
	}
	all := rd.PivotIDs()
	if len(all) == 0 {
		return fmt.Errorf("bench: trace %s has no pivot index", e.st.path)
	}
	n := min(retroQueries, len(all))
	e.sliceSize = make(map[uint64]int, n)
	for q := 0; q < n; q++ {
		id := all[q*len(all)/n]
		e.pivots = append(e.pivots, id)
		e.sliceSize[id] = 0
	}
	// HasNext binds only the iterator, so a record's first ID is its pivot.
	for _, r := range e.st.recs {
		if !r.free() {
			if _, ok := e.sliceSize[uint64(r.a)]; ok {
				e.sliceSize[uint64(r.a)]++
			}
		}
	}
	return nil
}

// onPath returns a view of the environment that drives the same stream,
// oracle and nodes through another path.
func (e *env) onPath(p pathKind) *env {
	view := *e
	view.wl = &workload{name: e.wl.name, stream: e.wl.stream, path: p}
	return &view
}

// newMonitor opens the workload's path through the public entry point.
func (e *env) newMonitor(handler func(rvgo.Verdict), extra ...rvgo.Option) (*rvgo.Monitor, error) {
	opts := []rvgo.Option{rvgo.WithVerdictHandler(handler)}
	switch e.wl.path {
	case pathShard:
		opts = append(opts, rvgo.WithShards(2))
	case pathRemote:
		opts = append(opts, rvgo.WithRemote(e.addrs[0]))
	case pathCluster:
		opts = append(opts, rvgo.WithCluster(e.addrs...))
	}
	return rvgo.New(e.pub, append(opts, extra...)...)
}
