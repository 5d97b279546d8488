// router.go: the router tier — internal/server's session front over
// fanout backends. A monitored program speaks the ordinary single-server
// protocol to the router (internal/remote.Client works unchanged), and it
// is the ordinary server's code that answers. What is the router's is
// below: which nodes are healthy, how a validated Hello becomes a fanout
// over them, and the fanouts a revived node is re-admitted into. The
// fanout pivot-hashes the stream across the nodes, merges verdicts and
// counters back, and heals around node failures with journal-replay
// handoffs, all invisible to the upstream session.
//
// Credit is end-to-end: the front replenishes an upstream credit only
// after the fanout has placed the event — which means every slot it goes
// to granted a credit. One refusing node therefore stalls the upstream
// producer exactly as a slow single server would.
//
// Releases pass through the same way: the session's HelloAck announces
// one lane per slot, and each slot's releases go upstream as Release
// frames under the slot's lane, as do the ones the fanout issues for the
// slots a free skips.
package cluster

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/server"
)

// RouterOptions configures a Router.
type RouterOptions struct {
	// Nodes are the rvserve addresses the router spreads sessions over.
	Nodes []string
	// Seed perturbs the pivot→slot and slot→node hashes.
	Seed uint64
	// Slots is the per-session virtual-shard ring size (0 = default).
	Slots int
	// Window is the upstream event-credit window granted to each session
	// (default 4096). A client may request a smaller one in its Hello.
	Window int
	// Probe is the health re-probe interval for unhealthy nodes (default
	// 1s). A revived node is re-admitted into every active session.
	Probe time.Duration
	// Dial overrides the node transport (tests use in-process pipes).
	Dial func(addr string) (net.Conn, error)
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// Router accepts and runs cluster-routed monitoring sessions.
type Router struct {
	opts RouterOptions
	srv  *server.Server // the session front; every session's backend is a fanout

	handoffs       atomic.Uint64
	handoffRecords atomic.Uint64

	mu     sync.Mutex
	health map[string]bool
	// live is every open session's fanout, by session ID: what the probe
	// re-admits a revived node into and /statusz reads slot placement off.
	live map[uint64]*fanout

	// The probe loop runs from the first Serve until Shutdown closes stop.
	probeOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	probeDone chan struct{}
}

// NewRouter builds a router over a fixed node set.
func NewRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one node")
	}
	if opts.Probe <= 0 {
		opts.Probe = time.Second
	}
	if opts.Dial == nil {
		opts.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	r := &Router{
		opts:      opts,
		health:    map[string]bool{},
		live:      map[uint64]*fanout{},
		stop:      make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	r.srv = server.NewFront(server.Options{Window: opts.Window, Logf: opts.Logf}, r.open)
	for _, n := range opts.Nodes {
		r.health[n] = true
	}
	return r, nil
}

// Metrics returns the router's metrics registry.
func (r *Router) Metrics() *metrics.Registry { return r.srv.Metrics() }

// healthyNodes snapshots the addresses currently believed up, in the
// configured order (placement must not depend on map iteration).
func (r *Router) healthyNodes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.opts.Nodes))
	for _, n := range r.opts.Nodes {
		if r.health[n] {
			out = append(out, n)
		}
	}
	return out
}

// markDown records a node eviction reported by a session's fanout. Called
// with that fanout's lock held; takes only the router lock (the router
// never holds its lock while calling into a fanout).
func (r *Router) markDown(addr string) {
	r.mu.Lock()
	was := r.health[addr]
	r.health[addr] = false
	r.mu.Unlock()
	if was {
		r.opts.Logf("router: node %s marked down", addr)
	}
}

// probeNode reports whether addr currently accepts connections.
func (r *Router) probeNode(addr string) bool {
	conn, err := r.opts.Dial(addr)
	if err != nil {
		return false
	}
	conn.Close()
	return true
}

// probeLoop re-probes unhealthy nodes and re-admits revived ones into
// every open session's membership.
func (r *Router) probeLoop() {
	defer close(r.probeDone)
	tick := time.NewTicker(r.opts.Probe)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		}
		r.mu.Lock()
		var down []string
		for _, n := range r.opts.Nodes {
			if !r.health[n] {
				down = append(down, n)
			}
		}
		r.mu.Unlock()
		for _, addr := range down {
			if !r.probeNode(addr) {
				continue
			}
			r.mu.Lock()
			r.health[addr] = true
			live := make(map[uint64]*fanout, len(r.live))
			for id, f := range r.live {
				live[id] = f
			}
			r.mu.Unlock()
			r.opts.Logf("router: node %s revived", addr)
			for id, f := range live {
				if err := f.AddNode(addr); err != nil {
					r.opts.Logf("router: session %d: re-admitting %s: %v", id, addr, err)
				}
			}
		}
	}
}

// Serve accepts sessions on l until the listener is closed by Shutdown.
func (r *Router) Serve(l net.Listener) error {
	r.probeOnce.Do(func() { go r.probeLoop() })
	return r.srv.Serve(l)
}

// Shutdown drains the router: stop accepting, wait up to timeout for
// sessions to finish, then force-close stragglers.
func (r *Router) Shutdown(timeout time.Duration) {
	r.stopOnce.Do(func() { close(r.stop) })
	r.srv.Shutdown(timeout)
	r.probeOnce.Do(func() { close(r.probeDone) }) // never served: no loop to wait for
	<-r.probeDone
}

// Close force-closes the listener and every active session.
func (r *Router) Close() { r.Shutdown(0) }

// open is the front's backend constructor: it builds the session's fanout
// over the currently healthy nodes (after a synchronous re-probe when the
// first attempt fails — a router must not refuse sessions because one node
// is down) and enters it into the live set.
func (r *Router) open(s *server.Session) (server.Backend, error) {
	if s.Node != nil {
		return nil, fmt.Errorf("NodeHello sent to a cluster router: slot sessions terminate on nodes")
	}
	if s.Hello.Shards > 1 {
		return nil, fmt.Errorf("cluster router shards by pivot across nodes; request Shards<=1 (got %d)", s.Hello.Shards)
	}
	hello := s.Hello // validated by the front; handed down whole
	hello.Window = 0 // each node grants its own default window
	cfg := fanoutConfig{
		hello: hello,
		seed:  r.opts.Seed,
		slots: r.opts.Slots,
		dial:  r.opts.Dial,
		logf:  r.opts.Logf,
		met:   metrics.NewClusterSeries(r.srv.Metrics(), s.Spec.Name),
		// IDs pass through untouched: the nodes echo the very IDs the
		// upstream client chose, so no translation table is needed.
		onVerdict: s.Verdict,
		onRelease: func(lanes uint64, ids []uint64) { s.Release(lanes, ids...) },
		onHandoff: func(records int) {
			r.handoffs.Add(1)
			r.handoffRecords.Add(uint64(records))
		},
		onNodeDown: r.markDown,
		nodes:      r.healthyNodes(),
	}
	f, err := newFanout(s.Spec, cfg)
	if err != nil {
		// Refresh the health map the hard way and retry once: the failed
		// open is itself the probe.
		for _, n := range r.opts.Nodes {
			up := r.probeNode(n)
			r.mu.Lock()
			r.health[n] = up
			r.mu.Unlock()
		}
		cfg.nodes = r.healthyNodes()
		if len(cfg.nodes) == 0 {
			return nil, fmt.Errorf("cluster: no healthy nodes")
		}
		if f, err = newFanout(s.Spec, cfg); err != nil {
			return nil, err
		}
	}
	r.mu.Lock()
	r.live[s.ID] = f
	r.mu.Unlock()
	return routed{f, r, s.ID}, nil
}

// routed is a fanout as a session backend: the fanout's own methods, and
// leaving the router's live set on Close.
type routed struct {
	*fanout
	r  *Router
	id uint64
}

func (b routed) Close() (monitor.Stats, error) {
	st, err := b.fanout.Close()
	b.r.mu.Lock()
	delete(b.r.live, b.id)
	b.r.mu.Unlock()
	return st, err
}
