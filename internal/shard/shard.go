// Package shard is the concurrent monitoring runtime: it partitions the
// parametric monitor store across N single-threaded monitor.Engine workers
// and routes events to shards by a stable hash of their parameter bindings.
//
// The paper's engine is inherently sequential — one event at a time through
// one store, with expunging amortized over operations. But its slicing
// semantics make the store shardable: trace slices for incompatible
// parameter instances never interact, so monitors can be partitioned by a
// pivot parameter's object (see Router) and each partition monitored by an
// unmodified sequential engine, preserving the paper's lazy collection
// discipline — per-shard indexing trees, per-shard sweeps, no cross-shard
// locking. Events whose bindings do not determine a shard are broadcast;
// they reach the one shard holding their monitors and are no-ops elsewhere.
//
// Ingestion is batched: producers append to a per-shard open batch and ship
// full batches through a bounded mailbox, amortizing channel traffic the
// same way the paper amortizes expunging. Dispatch blocks when a mailbox is
// full (backpressure); TryDispatch refuses instead. Because each slice's
// events flow through one producer into one FIFO mailbox and one worker,
// per-slice verdict ordering stays deterministic; cross-slice verdict
// interleaving is not (it never was observable — slices are independent).
//
// The Runtime implements monitor.Runtime, so cmd/rvmon, cmd/rvbench and the
// evaluation harness run either backend behind one interface. Merged
// counters match the sequential engine exactly on the same per-slice event
// and death sequence (see the equivalence tests); PeakLive is the one
// exception — it sums per-shard peaks, an upper bound on the global peak.
//
// "Same death sequence" is the caller's obligation: liveness is read when
// an event is processed, not when it is dispatched, so a death racing the
// mailboxes can be observed before queued events that preceded it. That
// only ever collects monitors earlier — but verdicts still in flight inside
// the mailbox window at death time can be suppressed with them. Callers
// that need exact trace fidelity Barrier before each death (cmd/rvmon's
// "free", internal/eval's heap free hook, the oracle tests); callers whose
// event sources keep objects alive until their events are processed (the
// natural contract with real weak references) get fidelity for free.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rvgo/internal/arena"
	"rvgo/internal/heap"
	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
)

// Options configures a sharded runtime. The embedded monitor.Options are
// applied to every shard engine; OnVerdict is serialized across shards, so
// handlers need not be safe for concurrent use.
type Options struct {
	monitor.Options
	// Shards is the number of worker engines (default: GOMAXPROCS). The
	// effective count may be lower: 1 when the spec is unshardable.
	Shards int
	// BatchSize is the number of events shipped to a shard per mailbox
	// send (default 64).
	BatchSize int
	// MailboxDepth is the number of batches a shard mailbox buffers before
	// Dispatch blocks (default 16).
	MailboxDepth int
	// MetricsRegistry, when non-nil, receives the shard-layer telemetry
	// (mailbox depth, batch shapes, broadcasts, refusals) under
	// MetricsLabel as the tenant (default: the spec name). Engine-layer
	// telemetry is separate: set the embedded Options.Metrics and every
	// shard engine delta-publishes into that one shared series.
	MetricsRegistry *metrics.Registry
	// MetricsLabel is the tenant label for MetricsRegistry series.
	MetricsLabel string
}

// Runtime is the sharded monitoring runtime for one specification.
type Runtime struct {
	spec    *monitor.Spec
	router  *Router
	workers []*worker
	events  atomic.Uint64 // Dispatch calls, the merged Stats.Events
	// metric series (nil-safe when telemetry is off).
	broadcasts *metrics.Counter
	refusals   *metrics.Counter
	vmu        sync.Mutex // serializes OnVerdict across shards
	fmu        sync.Mutex // serializes FreeAsync broadcasts (see Free)
	wg         sync.WaitGroup
	closed     bool
	final      []monitor.Stats // per-shard counters captured at Close
}

var _ monitor.Runtime = (*Runtime)(nil)

// New builds a sharded runtime. The creation strategy must be CreateEnable
// when more than one shard is requested: the enable-set analysis is what
// guarantees every monitor instance binds the routing pivot (CreateFull
// materializes instances for arbitrary event subsets, which cannot be
// partitioned without cross-shard joins).
func New(spec *monitor.Spec, opts Options) (*Runtime, error) {
	if opts.Shards <= 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 64
	}
	if opts.MailboxDepth <= 0 {
		opts.MailboxDepth = 16
	}
	if opts.Creation != monitor.CreateEnable && opts.Shards > 1 {
		return nil, fmt.Errorf("shard: creation strategy %d requires a single shard", opts.Creation)
	}
	if opts.Profile != nil && opts.Shards > 1 {
		return nil, fmt.Errorf("shard: creation profiling requires a single shard (the profile is engine-local and unsynchronized)")
	}
	router, err := NewRouter(spec, opts.Shards)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{spec: spec, router: router}
	var shardMet *metrics.ShardSeries
	if opts.MetricsRegistry != nil {
		label := opts.MetricsLabel
		if label == "" {
			label = spec.Name
		}
		shardMet = metrics.NewShardSeries(opts.MetricsRegistry, label, router.Shards())
		rt.broadcasts = shardMet.Broadcasts
		rt.refusals = shardMet.Refusals
	}
	engOpts := opts.Options
	if user := opts.OnVerdict; user != nil {
		engOpts.OnVerdict = func(v monitor.Verdict) {
			rt.vmu.Lock()
			defer rt.vmu.Unlock()
			user(v)
		}
	}
	for i := 0; i < router.Shards(); i++ {
		eng, err := monitor.New(spec, engOpts)
		if err != nil {
			return nil, err
		}
		w := &worker{
			idx:     i,
			eng:     eng,
			pending: getBatch(opts.BatchSize),
			mailbox: make(chan message, opts.MailboxDepth),
			batchSz: opts.BatchSize,
		}
		if shardMet != nil {
			w.metDepth = shardMet.MailboxDepth[i]
			w.metBatches = shardMet.Batches[i]
			w.metBatchEvents = shardMet.BatchEvents[i]
		}
		rt.workers = append(rt.workers, w)
		rt.wg.Add(1)
		go w.run(&rt.wg)
	}
	return rt, nil
}

// Spec implements monitor.Runtime.
func (rt *Runtime) Spec() *monitor.Spec { return rt.spec }

// Shards returns the effective shard count.
func (rt *Runtime) Shards() int { return len(rt.workers) }

// Pivot returns the routing pivot parameter index, or -1 when the spec is
// unshardable.
func (rt *Runtime) Pivot() int { return rt.router.Pivot() }

// Emit implements monitor.Runtime.
func (rt *Runtime) Emit(sym int, vals ...heap.Ref) {
	rt.Dispatch(sym, param.Of(rt.spec.Events[sym].Params, vals...))
}

// EmitNamed implements monitor.Runtime. Unknown names and arity
// mismatches are reported as errors (Emit, the index-based hot path,
// panics instead).
func (rt *Runtime) EmitNamed(name string, vals ...heap.Ref) error {
	sym, err := rt.spec.Resolve(name, len(vals))
	if err != nil {
		return err
	}
	rt.Emit(sym, vals...)
	return nil
}

// Dispatch routes one parametric event, blocking when the target mailbox
// (every mailbox, for broadcast events) is full. Safe for concurrent use;
// events from one goroutine reach each shard in dispatch order.
// Dispatching after Close is a programming error and panics with a
// diagnosable message rather than corrupting the shut-down mailboxes.
func (rt *Runtime) Dispatch(sym int, theta param.Instance) {
	rt.checkOpen()
	rt.events.Add(1)
	ev := event{sym: sym, inst: theta}
	if target, broadcast := rt.router.Route(sym, theta); !broadcast {
		rt.workers[target].enqueue(ev)
	} else {
		rt.broadcasts.Inc()
		for _, w := range rt.workers {
			w.enqueue(ev)
		}
	}
}

// QueueDepths returns each shard mailbox's current length in batches. The
// reads are unsynchronized channel lengths — safe from any goroutine, and
// exactly the backlog picture a stall diagnostic wants.
func (rt *Runtime) QueueDepths() []int {
	out := make([]int, len(rt.workers))
	for i, w := range rt.workers {
		out[i] = len(w.mailbox)
	}
	return out
}

// TryDispatch is the non-blocking Dispatch: it enqueues the event and
// returns true only when every target shard can accept it without blocking.
// A refused event is not enqueued anywhere (all-or-nothing, so broadcast
// events cannot be half-delivered). Callers retrying TryDispatch must
// preserve their own per-slice ordering.
func (rt *Runtime) TryDispatch(sym int, theta param.Instance) bool {
	rt.checkOpen()
	ev := event{sym: sym, inst: theta}
	target, broadcast := rt.router.Route(sym, theta)
	if !broadcast {
		w := rt.workers[target]
		w.mu.Lock()
		ok := w.canAccept()
		if ok {
			w.enqueueLocked(ev)
		}
		w.mu.Unlock()
		if ok {
			rt.events.Add(1)
		} else {
			rt.refusals.Inc()
		}
		return ok
	}
	// Broadcast: take every shard lock in index order, check, then commit.
	// Mailbox sends only ever happen under the shard's lock, so a positive
	// canAccept cannot be invalidated before the enqueue.
	for _, w := range rt.workers {
		w.mu.Lock()
	}
	ok := true
	for _, w := range rt.workers {
		if !w.canAccept() {
			ok = false
			break
		}
	}
	if ok {
		for _, w := range rt.workers {
			w.enqueueLocked(ev)
		}
	}
	for i := len(rt.workers) - 1; i >= 0; i-- {
		rt.workers[i].mu.Unlock()
	}
	if ok {
		rt.events.Add(1)
		rt.broadcasts.Inc()
	} else {
		rt.refusals.Inc()
	}
	return ok
}

// Free implements monitor.Runtime's synchronous death positioning: a
// barrier, so every event dispatched before the call is processed against
// the old liveness before the caller marks the objects dead. This is what
// the explicit-free drivers (trace replay, the simulated-heap free hook)
// use; it stalls the producer for a full queue drain per death.
func (rt *Runtime) Free(refs ...heap.Ref) {
	rt.Barrier()
}

// FreeAsync implements monitor.Runtime's pipelined death positioning: a
// free record is broadcast into every shard's event stream, the workers
// rendezvous at it, and the last arrival runs die. Each shard processes
// its pre-record events before the death becomes visible and its
// post-record events after — the same positioning Free gives, but the
// producer returns as soon as the record is enqueued instead of waiting
// for the queues to drain. Broadcasts are serialized so concurrent frees
// enter every mailbox in the same order; two workers waiting at
// oppositely-ordered records would deadlock the rendezvous.
func (rt *Runtime) FreeAsync(die func(), refs ...heap.Ref) {
	rt.checkOpen()
	if die == nil {
		rt.Barrier()
		return
	}
	rec := &freeRec{die: die, done: make(chan struct{})}
	rec.n.Store(int32(len(rt.workers)))
	rt.fmu.Lock()
	for _, w := range rt.workers {
		w.sendFree(rec)
	}
	rt.fmu.Unlock()
}

// checkOpen panics when the runtime has been closed. The check is
// advisory (closed is read without synchronization, as Close must not race
// Dispatch anyway), but it turns the silent misuse into a deterministic,
// clearly attributed failure on the sequential misuse pattern.
func (rt *Runtime) checkOpen() {
	if rt.closed {
		panic("shard: Dispatch after Close on spec " + rt.spec.Name)
	}
}

// ctlAll flushes open batches and runs a control request on every shard,
// returning once all have executed. Shards drain concurrently. After Close
// it is a no-op: the mailboxes are gone, and the workers drained everything
// on the way out.
func (rt *Runtime) ctlAll(ctl func(int, *monitor.Engine)) {
	if rt.closed {
		return
	}
	dones := make([]<-chan struct{}, len(rt.workers))
	for i, w := range rt.workers {
		i := i
		dones[i] = w.control(func(e *monitor.Engine) { ctl(i, e) })
	}
	for _, d := range dones {
		<-d
	}
}

// Barrier implements monitor.Runtime: it returns once every event
// dispatched before the call has been fully processed by its shard.
func (rt *Runtime) Barrier() {
	rt.ctlAll(func(int, *monitor.Engine) {})
}

// Flush implements monitor.Runtime: a barrier followed by a full
// expunge/compaction pass on every shard, so the merged counters settle.
// After Close it is a no-op (Close flushes).
func (rt *Runtime) Flush() {
	rt.ctlAll(func(_ int, e *monitor.Engine) { e.Flush() })
}

// Stats implements monitor.Runtime: per-shard counters are snapshotted by
// the workers (behind any events already mailed) and merged. Events is the
// number of Dispatch calls — a broadcast event counts once, as in the
// sequential engine — and PeakLive sums per-shard peaks, an upper bound on
// the true concurrent peak. All other counters are exact sums.
func (rt *Runtime) Stats() monitor.Stats {
	var s monitor.Stats
	for _, st := range rt.ShardStats() {
		s.Merge(st)
	}
	s.Events = rt.events.Load()
	return s
}

// ShardStats returns each shard engine's counters (diagnostics, tests).
// After Close it returns the counters captured when the runtime shut down.
func (rt *Runtime) ShardStats() []monitor.Stats {
	if rt.closed {
		return append([]monitor.Stats(nil), rt.final...)
	}
	out := make([]monitor.Stats, len(rt.workers))
	rt.ctlAll(func(i int, e *monitor.Engine) { out[i] = e.Stats() })
	return out
}

// ArenaStats returns each shard engine's monitor-arena occupancy. Every
// worker owns its slab arena exclusively — records never migrate between
// shards — so the snapshot, taken at the same control rendezvous as
// ShardStats, must account each shard's live monitors exactly. After
// Close the slabs have been released and the slice is all zeros.
func (rt *Runtime) ArenaStats() []arena.Stats {
	out := make([]arena.Stats, len(rt.workers))
	rt.ctlAll(func(i int, e *monitor.Engine) { out[i] = e.ArenaStats() })
	return out
}

// Close drains the mailboxes, flushes every shard and stops the workers.
// Stats/ShardStats keep working afterwards (returning the final counters)
// and Barrier/Flush become no-ops, so `defer rt.Close()` composes with
// reading results in any order; only Dispatch after Close is a programming
// error. Close is idempotent but must not race Dispatch or itself.
func (rt *Runtime) Close() {
	if rt.closed {
		return
	}
	rt.final = make([]monitor.Stats, len(rt.workers))
	rt.ctlAll(func(i int, e *monitor.Engine) {
		e.Flush()
		rt.final[i] = e.Stats()
	})
	rt.closed = true
	for _, w := range rt.workers {
		w.flush()
		close(w.mailbox)
	}
	rt.wg.Wait()
}
