package rvgo

import (
	"errors"
	"fmt"
	"sync"

	"rvgo/internal/cluster"
	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/remote"
	"rvgo/internal/shard"
	"rvgo/internal/trace"
	"rvgo/spec"
)

// Monitor is a running parametric monitor: one property (built with
// rvgo/spec), one backend. The backend — the paper's sequential engine,
// the sharded concurrent runtime, or a remote session against a
// monitoring server — is chosen by the options passed to New and is
// invisible afterwards: every Monitor supports the same event, death,
// synchronization and counter surface, and the conformance suite holds
// all backends to the same observable behavior.
//
// Concurrency: with the sequential backend (the default) a Monitor is
// single-threaded. With WithShards(n > 1), WithRemote or WithCluster,
// Emit, EmitNamed, Dispatch, Emitter.Emit, Free, FreeAsync, Barrier,
// Flush and Stats are safe for concurrent use.
type Monitor struct {
	rt     monitor.Runtime
	sp     *spec.Spec
	rem    *remote.Client
	clu    *cluster.Client
	tp     *tap            // non-nil with WithRecord/WithFlightRecorder/remote WithMetrics
	flight *flightRecorder // non-nil with WithFlightRecorder
	met    *Metrics        // non-nil with WithMetrics

	verdicts  chan Verdict
	closeOnce sync.Once
}

type config struct {
	gc         GCPolicy
	avoid      AvoidMode
	profGuards []bool
	profile    *CreationProfile
	shards     int
	remoteAddr string
	nodes      []string
	handler    func(Verdict)
	streamBuf  int
	hasStream  bool
	recordPath string
	flightN    int
	met        *Metrics
}

// Option configures a Monitor under construction.
type Option func(*config) error

// WithGC selects the monitor garbage-collection policy (default
// GCCoenable, the paper's contribution). New refuses an undefined policy,
// as it does an undefined avoidance mode.
func WithGC(p GCPolicy) Option {
	return func(c *config) error {
		c.gc = p
		return nil
	}
}

// WithAvoidance selects the creation-avoidance mode (default AvoidOff):
// the static doomed-monitor analysis (and any profile guards, see
// WithProfileGuards) consulted before a monitor is materialized. AvoidAudit
// counts guard hits in Stats.Avoided without changing behavior; AvoidEnforce
// suppresses guarded creations while keeping per-slice verdicts
// bit-identical to the unguarded engine. Works on every backend; the mode
// travels in the session handshake for remote and cluster Monitors.
func WithAvoidance(mode AvoidMode) Option {
	return func(c *config) error {
		c.avoid = mode
		return nil
	}
}

// WithProfileGuards installs a per-symbol profile-guard vector — usually
// CreationProfile.Guards from a recorded-trace replay — consulted by the
// avoidance guard alongside the static analysis. Effective only with
// WithAvoidance(AvoidAudit or AvoidEnforce); enforcement is restricted to
// maximal-domain creations, so suppression can never starve a monitor the
// property still needs. Local backends only: the vector does not cross the
// wire.
func WithProfileGuards(guards []bool) Option {
	return func(c *config) error {
		if len(guards) == 0 {
			return errors.New("rvgo: WithProfileGuards: empty guard vector")
		}
		c.profGuards = guards
		return nil
	}
}

// WithCreationProfile attaches a per-creation-site statistics accumulator
// (see NewCreationProfile): for each event symbol, how many monitors were
// born at it, re-stepped after birth, and ever reached a goal. Read the
// profile after Flush or Close; feed its Guards() back through
// WithProfileGuards on a later run. Sequential backend only — the counters
// are engine-local and unsynchronized.
func WithCreationProfile(p *CreationProfile) Option {
	return func(c *config) error {
		if p == nil {
			return errors.New("rvgo: WithCreationProfile: nil profile")
		}
		c.profile = p
		return nil
	}
}

// WithShards selects the backend shape: 1 is the sequential engine
// (also the local default when the option is omitted), n > 1 the sharded
// concurrent runtime with n worker engines. Combined with WithRemote it
// sizes the server-side backend of the session instead; there, omitting
// the option leaves the choice to the server's configured default.
func WithShards(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("rvgo: WithShards(%d): shard count must be >= 1 (1 = sequential engine, >1 = sharded runtime)", n)
		}
		c.shards = n
		return nil
	}
}

// WithRemote monitors over the network: the Monitor becomes a session
// against the monitoring server at addr (cmd/rvserve, or a Server from
// NewServer). The spec must carry transferable provenance — built by
// spec.Builtin or compiled from .rv source — because both ends compile it
// independently and verify the result in the handshake. Object deaths
// become protocol-level free messages: call Free/FreeAsync explicitly
// (or attach through package rv, which does).
func WithRemote(addr string) Option {
	return func(c *config) error {
		if addr == "" {
			return errors.New("rvgo: WithRemote: empty address")
		}
		c.remoteAddr = addr
		return nil
	}
}

// WithCluster monitors across a cluster of monitoring servers: the
// Monitor becomes one logical session whose slices are spread over the
// given rvserve nodes by consistent-hashing the property's pivot
// parameter. Everything WithRemote requires applies (transferable spec
// provenance, explicit Free/FreeAsync deaths). The placement is sound
// because enable-set creation, the only strategy the façade runs,
// guarantees that every monitor binds the pivot. Events that do not
// bind the pivot broadcast to every node under an all-or-nothing credit
// discipline, nodes may join and leave mid-run (see Monitor.Nodes), and a
// node crash re-homes its slices onto the survivors by deterministic
// journal replay, preserving exact verdict and counter semantics.
// WithCluster(addr) with a single node is equivalent in observable
// behavior to WithRemote(addr).
func WithCluster(addrs ...string) Option {
	return func(c *config) error {
		if len(addrs) == 0 {
			return errors.New("rvgo: WithCluster: no node addresses")
		}
		for _, a := range addrs {
			if a == "" {
				return errors.New("rvgo: WithCluster: empty node address")
			}
		}
		c.nodes = append([]string(nil), addrs...)
		return nil
	}
}

// WithVerdictHandler installs f as the verdict handler.
//
// The invocation context is backend-specific, and that difference is part
// of the contract:
//
//   - sequential engine: f runs synchronously on the goroutine calling
//     Emit/Dispatch, before the call returns.
//   - sharded runtime: f runs on worker goroutines. Invocations are
//     serialized (no two run concurrently), so f itself needs no lock,
//     but state f mutates must only be read by other goroutines after a
//     Barrier, Flush or Close — those operations order every handler
//     invocation for already-dispatched events before their return.
//   - remote session: f runs on the session's reader goroutine, in
//     per-slice order. It must not call back into the Monitor.
//
// Under all backends f must be fast: it runs inside the dispatch path.
func WithVerdictHandler(f func(Verdict)) Option {
	return func(c *config) error {
		c.handler = f
		return nil
	}
}

// WithRecord taps every dispatched event and object death into a
// persistent trace at path — the append-only segment format read by
// cmd/rvquery — while the Monitor runs normally. Recording works on every
// backend; the trace captures the stream at the façade, so a later replay
// reproduces the online run's verdicts and settled counters exactly,
// under any backend and GC policy. Recording errors (a full disk, a
// vanished directory) are sticky and surfaced by Err; the trace is sealed
// by Close, and Flush also seals the open segment so the on-disk trace
// catches up to the flush point.
func WithRecord(path string) Option {
	return func(c *config) error {
		if path == "" {
			return errors.New("rvgo: WithRecord: empty path")
		}
		c.recordPath = path
		return nil
	}
}

// WithFlightRecorder keeps a fixed-size in-memory ring of the last n
// records (events and deaths) crossing the façade, on every backend.
// When a goal verdict is delivered the ring is snapshotted, and
// LastWindow(ref) retrieves the window behind the most recent verdict
// that bound ref — the recent-event context of a failure, without
// recording the whole run. Recording into the ring does not allocate.
func WithFlightRecorder(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("rvgo: WithFlightRecorder(%d): window size must be >= 1", n)
		}
		c.flightN = n
		return nil
	}
}

// WithVerdictStream makes the Monitor deliver verdicts to a channel of
// the given buffer size, returned by Verdicts. Delivery blocks when the
// buffer is full — natural backpressure, but it means the consumer must
// drain the channel concurrently with event emission (or size the buffer
// for the expected verdict volume). The channel is closed by Close, so
// `for v := range m.Verdicts()` terminates. Composes with
// WithVerdictHandler: the handler runs first.
func WithVerdictStream(buffer int) Option {
	return func(c *config) error {
		if buffer < 0 {
			return fmt.Errorf("rvgo: WithVerdictStream(%d): buffer must be >= 0", buffer)
		}
		c.streamBuf = buffer
		c.hasStream = true
		return nil
	}
}

// New builds a Monitor for a property. With no options it monitors on the
// in-process sequential engine with coenable-set GC and enable-set
// creation — the paper's configuration; enable-set creation is the only
// strategy the façade runs. The spec's validation and static analyses have
// already run at build time, so New only checks the configuration
// (monitor.Options.Check, before any backend is built or dialed) and wires
// the backend; a non-nil Monitor is ready for events.
func New(s *spec.Spec, opts ...Option) (*Monitor, error) {
	if s == nil {
		return nil, errors.New("rvgo: nil spec")
	}
	// cfg.shards stays 0 when WithShards is omitted: locally that means
	// the sequential engine; remotely it lets the server's configured
	// default backend apply (the wire Hello carries 0).
	cfg := config{gc: GCCoenable}
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	clustered := len(cfg.nodes) > 0
	networked := clustered || cfg.remoteAddr != ""
	switch {
	case clustered && cfg.remoteAddr != "":
		return nil, errors.New("rvgo: WithCluster and WithRemote are mutually exclusive")
	case clustered && cfg.shards != 0:
		return nil, errors.New("rvgo: WithShards does not apply to cluster sessions: the cluster already shards by pivot across nodes, and its per-node sessions must stay sequential")
	case networked && (cfg.profGuards != nil || cfg.profile != nil):
		return nil, errors.New("rvgo: WithProfileGuards and WithCreationProfile require a local backend (profiles do not cross the wire)")
	}
	mo := monitor.Options{GC: cfg.gc, Avoid: cfg.avoid, ProfileGuards: cfg.profGuards, Profile: cfg.profile}
	if err := mo.Check(s.Compiled(), max(cfg.shards, 1)); err != nil {
		return nil, err
	}

	m := &Monitor{sp: s, met: cfg.met}
	handler := cfg.handler
	if cfg.flightN > 0 {
		// Snapshot before the user handler runs, so a handler (or a
		// goroutine it signals) calling LastWindow sees this verdict's
		// window already captured.
		m.flight = newFlightRecorder(cfg.flightN)
		user := handler
		handler = func(v Verdict) {
			m.flight.onVerdict(v)
			if user != nil {
				user(v)
			}
		}
	}
	if cfg.hasStream {
		ch := make(chan Verdict, cfg.streamBuf)
		m.verdicts = ch
		user := handler
		handler = func(v Verdict) {
			if user != nil {
				user(v)
			}
			ch <- v
		}
	}

	// cli counts the remote session's client-side stream: with WithRemote
	// the engine (and its rv_engine_* series) lives in the server, so the
	// local registry carries rv_client_* totals instead, counted at the tap.
	var cli *metrics.ClientSeries
	if networked {
		if cfg.met != nil {
			cli = metrics.NewClientSeries(cfg.met.reg, s.Name())
			cs, user := cli, handler
			handler = func(v Verdict) {
				cs.Verdicts.Inc()
				if user != nil {
					user(v)
				}
			}
		}
		if err := m.dial(cfg, handler); err != nil {
			return nil, err
		}
	} else {
		mo.OnVerdict = handler
		if cfg.met != nil {
			// Shard workers share one engine series: delta publication makes
			// their counters sum, and the runtime adds per-shard series.
			mo.Metrics = metrics.NewEngineSeries(cfg.met.reg, s.Name(), cfg.gc.String())
		}
		var err error
		if cfg.shards > 1 {
			so := shard.Options{Options: mo, Shards: cfg.shards}
			if cfg.met != nil {
				so.MetricsRegistry, so.MetricsLabel = cfg.met.reg, s.Name()
			}
			m.rt, err = shard.New(s.Compiled(), so)
		} else {
			m.rt, err = monitor.New(s.Compiled(), mo)
		}
		if err != nil {
			return nil, err
		}
	}
	if cfg.recordPath != "" || m.flight != nil || cli != nil {
		// The tap becomes the Monitor's runtime before anything resolves
		// an Emitter, so every ingestion path is recorded.
		t := &tap{rt: m.rt, cli: cli}
		if m.flight != nil {
			t.ring = m.flight.ring
		}
		if cfg.recordPath != "" {
			wo := trace.WriterOptions{}
			if cfg.met != nil {
				wo.Metrics = metrics.NewTraceSeries(cfg.met.reg, s.Name())
			}
			w, err := trace.CreateForSpec(cfg.recordPath, s.Compiled(), wo)
			if err != nil {
				m.rt.Close()
				return nil, err
			}
			t.rec = w
		}
		m.tp, m.rt = t, t
	}
	return m, nil
}

// NewCreationProfile returns an empty creation profile sized for the
// property, ready for WithCreationProfile.
func NewCreationProfile(s *spec.Spec) *CreationProfile {
	return monitor.NewCreationProfile(s.Compiled())
}

// dial opens the Monitor's network session: a cluster session across
// cfg.nodes, or a remote one against cfg.remoteAddr. The peers compile the
// spec themselves, from the reference the handshake carries.
func (m *Monitor) dial(cfg config, handler func(Verdict)) error {
	kind, ref, ok := m.sp.Source()
	if !ok {
		return fmt.Errorf("rvgo: property %q cannot back a remote or cluster session: the peers need transferable provenance (build the spec with spec.Builtin or from .rv source)", m.sp.Name())
	}
	var prop, source string
	switch kind {
	case spec.SourceBuiltin:
		prop = ref
	case spec.SourceFile:
		source = ref
	default:
		return fmt.Errorf("rvgo: unknown spec provenance %q", kind)
	}
	if len(cfg.nodes) > 0 {
		copts := cluster.Options{Prop: prop, SpecSource: source, GC: cfg.gc, Avoid: cfg.avoid, Nodes: cfg.nodes, OnVerdict: handler}
		if cfg.met != nil {
			copts.Metrics = metrics.NewClusterSeries(cfg.met.reg, m.sp.Name())
		}
		cl, err := cluster.Open(copts)
		if err != nil {
			return err
		}
		m.rt, m.clu = cl, cl
		return nil
	}
	cl, err := remote.Dial(cfg.remoteAddr, remote.Options{Prop: prop, SpecSource: source, GC: cfg.gc, Avoid: cfg.avoid, Shards: cfg.shards, OnVerdict: handler})
	if err != nil {
		return err
	}
	m.rt, m.rem = cl, cl
	return nil
}

var _ monitor.Runtime = (*Monitor)(nil)

// Property returns the specification being monitored.
func (m *Monitor) Property() *spec.Spec { return m.sp }

// Spec returns the compiled internal form of the property; it exists to
// satisfy the runtime contract shared with the internal backends (its
// result type lives under internal/ and cannot be named outside this
// module — use Property for introspection).
func (m *Monitor) Spec() *monitor.Spec { return m.rt.Spec() }

// Emit dispatches the parametric event sym⟨vals⟩; vals bind the event's
// parameters in binding order (see spec.Spec.EventParams) and must all be
// alive. Symbols index the spec's event list; prefer Event, whose Emitter
// carries the resolved symbol with a readable name attached.
func (m *Monitor) Emit(sym int, vals ...Ref) { monitor.Emit(m.rt, sym, vals...) }

// EmitNamed dispatches an event by name. Unknown names and arity
// mismatches are errors; the event is not dispatched and the Monitor
// remains usable. For hot paths resolve an Emitter once instead.
func (m *Monitor) EmitNamed(name string, vals ...Ref) error {
	return monitor.EmitNamed(m.rt, name, vals...)
}

// Dispatch processes one pre-bound parametric event (see BindingOf).
func (m *Monitor) Dispatch(sym int, theta Instance) { m.rt.Dispatch(sym, theta) }

// Free positions an object death in the event stream: every event
// dispatched before the call observes the objects alive, whatever the
// caller does to them afterwards — it may mark them dead the instant Free
// returns — and the caller dispatches no later event mentioning them. Free
// never waits on any backend: the death is one more record of the ordered
// stream (nothing at all on the sequential engine, a batch record on the
// sharded runtime, a free frame on the wire). This is the death signal
// that drives monitor GC when no real garbage collector is involved
// (trace replay, simulated heaps, remote sessions).
func (m *Monitor) Free(refs ...Ref) { m.rt.Free(refs...) }

// FreeAsync is Free followed by die, which marks the objects dead: since
// Free never waits and tolerates an immediate kill, the positioned point
// is the call itself on every backend. Package rv uses it to turn Go
// garbage-collection cleanups into stream-positioned deaths.
func (m *Monitor) FreeAsync(die func(), refs ...Ref) {
	m.rt.Free(refs...)
	if die != nil {
		die()
	}
}

// Barrier returns once every event dispatched before the call has been
// fully processed (and its verdicts delivered). Synchronous backends
// return immediately.
func (m *Monitor) Barrier() { m.rt.Barrier() }

// Flush performs a full expunge/compaction pass so the Stats counters
// settle; it implies Barrier.
func (m *Monitor) Flush() { m.rt.Flush() }

// Stats returns the monitoring counters. For concurrent backends the
// snapshot covers at least every event processed before the last Barrier
// or Flush.
func (m *Monitor) Stats() Stats { return m.rt.Stats() }

// Verdicts returns the verdict stream configured with WithVerdictStream,
// or nil. The channel is closed by Close.
func (m *Monitor) Verdicts() <-chan Verdict { return m.verdicts }

// NodeInfo describes one member of a cluster Monitor's node set.
type NodeInfo struct {
	// Addr is the node address as given to WithCluster or AddNode.
	Addr string
	// Slots is the number of slots (virtual shards) whose live session the
	// node currently hosts.
	Slots int
}

// Nodes reports a cluster Monitor's membership and per-node slot
// placement. For non-cluster backends it returns nil.
func (m *Monitor) Nodes() []NodeInfo {
	if m.clu == nil {
		return nil
	}
	ns := m.clu.Nodes()
	out := make([]NodeInfo, len(ns))
	for i, n := range ns {
		out[i] = NodeInfo{Addr: n.Addr, Slots: n.Slots}
	}
	return out
}

// AddNode admits a node to a cluster Monitor's membership; the slots the
// consistent-hash assignment places on it migrate over gracefully while
// monitoring continues. Cluster sessions only.
func (m *Monitor) AddNode(addr string) error {
	if m.clu == nil {
		return errors.New("rvgo: AddNode applies only to cluster sessions (WithCluster)")
	}
	return m.clu.AddNode(addr)
}

// RemoveNode gracefully drains a node out of a cluster Monitor's
// membership, migrating its slots to the remaining nodes. Cluster
// sessions only; the last node cannot be removed.
func (m *Monitor) RemoveNode(addr string) error {
	if m.clu == nil {
		return errors.New("rvgo: RemoveNode applies only to cluster sessions (WithCluster)")
	}
	return m.clu.RemoveNode(addr)
}

// Err returns the Monitor's sticky error: for a remote or cluster Monitor
// the session error — connection loss, a server error, a protocol
// violation, total node loss —
// after which the event methods degrade to no-ops; for a recording
// Monitor (WithRecord) the first trace-write failure, after which
// monitoring continues but the trace is incomplete. Otherwise nil.
func (m *Monitor) Err() error {
	if m.rem != nil {
		if err := m.rem.Err(); err != nil {
			return err
		}
	}
	if m.clu != nil {
		if err := m.clu.Err(); err != nil {
			return err
		}
	}
	if m.tp != nil {
		return m.tp.recErr()
	}
	return nil
}

// Close releases the backend (worker goroutines, network sessions) and
// closes the verdict stream. Close is idempotent; dispatching after Close
// is a programming error.
func (m *Monitor) Close() {
	m.closeOnce.Do(func() {
		m.rt.Close()
		if m.verdicts != nil {
			close(m.verdicts)
		}
	})
}
