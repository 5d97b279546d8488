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
// discipline — per-shard index, per-shard sweeps, no cross-shard
// locking. Events whose bindings do not determine a shard are broadcast;
// they reach the one shard holding their monitors and are no-ops elsewhere.
//
// Ingestion is batched, and the batch is the unit of work: producers append
// records — events and object deaths alike — to a per-shard open batch, and
// a batch leaves for the shard's bounded mailbox on exactly three triggers:
// it is full (BatchSize), it has been dirty for the linger period (1 ms, so
// a producer that goes quiet still gets its records monitored), or a sync
// operation needs the workers to have seen everything (Barrier, Flush,
// Stats, Close). Dispatch blocks when a mailbox is full (backpressure);
// TryDispatch refuses instead. Because each slice's events flow through one
// producer into one FIFO mailbox and one worker, per-slice verdict ordering
// stays deterministic; cross-slice verdict interleaving is not (it never
// was observable — slices are independent).
//
// The Runtime implements monitor.Runtime, so cmd/rvmon, cmd/rvbench and the
// evaluation harness run either backend behind one interface. Merged
// counters match the sequential engine exactly on the same per-slice event
// and death sequence (see the equivalence tests); PeakLive is the one
// exception — it sums per-shard peaks, an upper bound on the global peak.
//
// Death positioning. Liveness is read when an event is processed, not when
// it is dispatched, and callers kill an object the instant Free returns —
// so the engines are never handed the caller's refs. The producer keeps a
// table from object ID to one liveness view per shard (see view), entered
// at the object's first mention, and every record carries the target
// shard's views. Free(refs...) holds the object's views alive, drops the
// table entry and appends one free record to every shard's open batch: an
// ordinary record — no barrier, no flush, no mailbox send of its own. A
// worker reaching the record kills its own view only, so each shard
// observes the death between exactly the records the producer put it
// between, and no worker ever waits for another. An object no event
// mentioned has no entry and costs no record. Verdict handlers receive
// instances over the caller's own refs.
//
// An object killed without a Free is seen dead when its ref says so (the
// views follow it): a death racing the mailboxes can then be observed by
// queued events that preceded it. That only ever collects monitors earlier —
// but verdicts still in flight at death time can be suppressed with them.
// Barrier before such a kill, or keep the object alive until its events are
// processed (the natural contract with real weak references). The table
// entries of such objects are dropped at Flush.
package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
	// BatchSize is the number of records (events and frees) a shard's open
	// batch holds (default 64). A full batch is shipped at once; a partial
	// one waits for a sync operation (Barrier, Flush, Stats, Close) or the
	// fixed 1 ms linger, whichever comes first.
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
	// views maps an object ID to its per-shard liveness views, from the
	// object's first mention to its Free (see view); tmu guards it.
	tmu   sync.Mutex
	views map[uint64][]view
	// The linger deadline: one timer for all shards, re-armed by the first
	// record enqueued after it last fired.
	timer  *time.Timer
	armed  atomic.Bool
	wg     sync.WaitGroup
	closed bool
	final  []monitor.Stats // per-shard counters captured at Close
}

var _ monitor.Runtime = (*Runtime)(nil)

// New builds a sharded runtime. The options must pass monitor.Options.Check
// for the requested shard count: more than one shard needs CreateEnable,
// the enable-set analysis being what guarantees every monitor instance
// binds the routing pivot (CreateFull materializes instances for arbitrary
// event subsets, which cannot be partitioned without cross-shard joins).
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
	if err := opts.Options.Check(spec, opts.Shards); err != nil {
		return nil, err
	}
	router, err := NewRouter(spec, opts.Shards)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{spec: spec, router: router, views: map[uint64][]view{}}
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
			v.Inst = unview(v.Inst)
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
	// Born armed: the first deadline finds nothing to flush and disarms.
	rt.armed.Store(true)
	rt.timer = time.AfterFunc(linger, rt.lingerFlush)
	return rt, nil
}

// linger is how long a record may sit in a partially filled batch before
// the batch is shipped anyway: the bound on the verdict lag a producer that
// goes quiet adds.
const linger = time.Millisecond

// arm starts the linger deadline unless it is already pending. Producers
// call it after enqueueing.
func (rt *Runtime) arm() {
	if !rt.armed.Load() && rt.armed.CompareAndSwap(false, true) {
		rt.timer.Reset(linger)
	}
}

// lingerFlush is the linger deadline: every open batch leaves. Disarming
// comes first, so a record enqueued while the flush is under way either
// precedes its shard's flush or re-arms the timer.
func (rt *Runtime) lingerFlush() {
	rt.armed.Store(false)
	for _, w := range rt.workers {
		w.flush()
	}
}

// Spec implements monitor.Runtime.
func (rt *Runtime) Spec() *monitor.Spec { return rt.spec }

// Shards returns the effective shard count.
func (rt *Runtime) Shards() int { return len(rt.workers) }

// Pivot returns the routing pivot parameter index, or -1 when the spec is
// unshardable.
func (rt *Runtime) Pivot() int { return rt.router.Pivot() }

// Dispatch routes one parametric event, blocking when the target mailbox
// (every mailbox, for broadcast events) is full. Safe for concurrent use;
// events from one goroutine reach each shard in dispatch order.
// Dispatching after Close is a programming error and panics with a
// diagnosable message rather than corrupting the shut-down mailboxes.
func (rt *Runtime) Dispatch(sym int, theta param.Instance) {
	rt.checkOpen()
	rt.events.Add(1)
	vs := rt.lookup(theta)
	if target, broadcast := rt.router.Route(sym, theta); !broadcast {
		rt.workers[target].enqueue(event{sym: sym, inst: vs.seenBy(target, theta)})
	} else {
		rt.broadcasts.Inc()
		for i, w := range rt.workers {
			w.enqueue(event{sym: sym, inst: vs.seenBy(i, theta)})
		}
	}
	rt.arm()
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
	vs := rt.lookup(theta)
	target, broadcast := rt.router.Route(sym, theta)
	if !broadcast {
		w := rt.workers[target]
		w.mu.Lock()
		ok := w.canAccept()
		if ok {
			w.enqueueLocked(event{sym: sym, inst: vs.seenBy(target, theta)})
		}
		w.mu.Unlock()
		if ok {
			rt.events.Add(1)
			rt.arm()
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
		for i, w := range rt.workers {
			w.enqueueLocked(event{sym: sym, inst: vs.seenBy(i, theta)})
		}
	}
	for i := len(rt.workers) - 1; i >= 0; i-- {
		rt.workers[i].mu.Unlock()
	}
	if ok {
		rt.events.Add(1)
		rt.broadcasts.Inc()
		rt.arm()
	} else {
		rt.refusals.Inc()
	}
	return ok
}

// Free implements monitor.Runtime: each object's death becomes one record
// in every shard's open batch, positioned behind every event dispatched
// before the call, and the call returns — the producer never waits for a
// worker. The object's views are held alive first, so the caller may kill
// it at once: the events ahead of the record still observe it alive, and
// each shard sees the death when its worker reaches the record. An object
// no event mentioned concerns no monitor and costs nothing. After Close it
// is a silent no-op.
func (rt *Runtime) Free(refs ...heap.Ref) {
	if rt.closed {
		return
	}
	for _, ref := range refs {
		ov := rt.hold(ref)
		for k := range ov {
			rt.workers[k].enqueue(event{free: &ov[k]})
		}
		if ov != nil {
			rt.arm()
		}
	}
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
// expunge/compaction pass on every shard, so the merged counters settle,
// and on the view table. After Close it is a no-op (Close flushes).
func (rt *Runtime) Flush() {
	rt.ctlAll(func(_ int, e *monitor.Engine) { e.Flush() })
	rt.sweep()
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
	// A linger flush already under way finds every worker stopped.
	rt.timer.Stop()
	for _, w := range rt.workers {
		w.stop()
	}
	rt.wg.Wait()
}
