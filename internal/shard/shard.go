// Package shard is the concurrent monitoring runtime: it partitions the
// parametric monitor store across N single-threaded monitor.Engine workers
// and routes events to shards by a stable hash of their parameter bindings.
//
// The paper's engine is inherently sequential — one event at a time through
// one store, with expunging amortized over operations. But its slicing
// semantics make the store shardable: trace slices for incompatible
// parameter instances never interact, so monitors can be partitioned by a
// pivot parameter's object (see Router) and each partition monitored by an
// unmodified sequential engine — per-shard index, per-shard collection,
// no cross-shard locking. Events whose bindings do not determine a shard
// go to every shard their objects' records went to, or to every shard;
// they reach the one shard holding their monitors and are no-ops
// elsewhere.
//
// Lanes. Which shards a record goes to is the fan-out core's answer
// (Router, which a cluster fanout's slots share), as a set of lanes each
// entry delivers over: an event binding the pivot goes to its pivot
// object's shard; the router keeps, per live object, the shards its
// records went to (its placement), and a free, or an event of one object
// that joins with nothing (Router.Maskable), goes only there; every other
// event goes to every shard. A shard an object moves to is first sent a
// primer per domain the object was stamped with, and the shards a free
// skips hold no record of the object, so the router releases it there at
// once (Options.OnRelease). Every shard engine applies its deaths where
// its free records sit (monitor.Engine.FreeIDs) and never sweeps between
// Flushes, so what it holds follows its own objects' records alone, and
// the merged counters do not depend on which shards saw which records.
// The router's placements make it the producers' one shared state: a
// mutex serializes Dispatch, DispatchIDs, TryDispatchIDs and FreeIDs
// through it, so each shard's records arrive in the order the router
// placed them.
//
// Ingestion is batched, and the batch is the unit of work: producers append
// records — events and object deaths alike — to a per-shard open batch, and
// a batch leaves for the shard's bounded mailbox on exactly three triggers:
// it is full (64 records), it has been dirty for the linger period (1 ms, so
// a producer that goes quiet still gets its records monitored), or a sync
// operation needs the workers to have seen everything (Barrier, Flush,
// Stats, Close). Dispatch blocks when a mailbox is full (backpressure);
// TryDispatchIDs refuses instead. Because each slice's events flow through one
// producer into one FIFO mailbox and one worker, per-slice verdict ordering
// stays deterministic; cross-slice verdict interleaving is not (it never
// was observable — slices are independent).
//
// The Runtime implements monitor.Runtime, so cmd/rvmon, cmd/rvbench and the
// evaluation harness run either backend behind one interface. On the same
// per-slice event and death sequence, per-slice verdicts and the merged
// Events, Created, Collected, GoalVerdicts and Avoided match the sequential
// engine exactly (see the equivalence tests), and so do Flagged, Steps and
// Live: every engine collects at its frees and events, not on a sweep
// schedule. PeakLive sums per-shard peaks, an upper bound on the global
// peak.
//
// Death positioning. Each shard engine holds the caller's own refs as held
// records (monitor.Engine.DispatchHeld): it never asks a ref whether its
// object lives. Free(ref) appends one free record carrying the object's ID
// to the open batch of every shard the object's records went to: an
// ordinary record — no barrier, no flush, no mailbox send of its own — and
// returns, so the caller may kill the object at once. A worker reaching
// the record applies the death in its own engine only
// (monitor.Engine.FreeIDs), so each shard observes the death between
// exactly the records the producer put it between, and no worker ever
// waits for another: one liveness bit shared by all shards would let
// shard B see the death as soon as shard A passed its record, ahead of
// events B has yet to process. Apart from the router's placements the
// producer keeps no per-object state; verdict handlers receive instances
// over the caller's own refs, which the engines' object tables hold for as
// long as any θ binds them. A caller that names objects by ID
// (DispatchIDs, FreeIDs: a server session, a trace replay) is handled
// alike; its verdicts carry refs that report the IDs.
//
// The free record is an object's only death: a shard never sees an object
// die that was killed without a Free, and keeps its monitors as though it
// lived. Free before the kill (the call never waits), as every death source
// with refs in this module does.
package shard

import (
	"math/bits"
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
	// OnRelease, when non-nil, receives each shard engine's releases (see
	// monitor.Engine.SetOnRelease) with the mask of the shard's lane, as a
	// cluster fanout reports its slots': one call per mailbox batch or
	// control request that released any, before the request completes,
	// serialized with OnVerdict, so a shard's release follows every verdict
	// the shard delivered before it. A free also releases its object at
	// once, on the goroutine calling Free or FreeIDs, on the lanes of the
	// shards it skips, which hold no record of the object. ids is valid
	// only during the call.
	OnRelease func(lanes uint64, ids []uint64)
	// Shards is the number of worker engines (default: GOMAXPROCS, at most
	// MaxLanes; more than MaxLanes is refused). The effective count may be
	// lower: 1 when the spec is unshardable.
	Shards int
	// MetricsRegistry, when non-nil, receives the shard-layer telemetry
	// (mailbox depth, batch shapes, broadcasts, refusals) with the spec
	// name as the tenant. Engine-layer telemetry is separate: set the
	// embedded Options.Metrics and every shard engine delta-publishes into
	// that one shared series.
	MetricsRegistry *metrics.Registry
}

// Runtime is the sharded monitoring runtime for one specification.
type Runtime struct {
	spec    *monitor.Spec
	workers []*worker
	events  atomic.Uint64 // Dispatch calls, the merged Stats.Events
	// mu serializes the producers through router, which names the shards
	// each record goes to and keeps the placements (see Lanes in the
	// package doc); release hands the releases of Router.Free to
	// Options.OnRelease (nil without one).
	mu      sync.Mutex
	router  *Router
	release func(lanes uint64, ids []uint64)
	// metric series (nil-safe when telemetry is off).
	broadcasts *metrics.Counter
	refusals   *metrics.Counter
	vmu        sync.Mutex // serializes OnVerdict and OnRelease across shards
	// The linger deadline: one timer for all shards, re-armed by the first
	// record enqueued after it last fired.
	timer  *time.Timer
	armed  atomic.Bool
	wg     sync.WaitGroup
	closed bool
	final  []monitor.Stats // per-shard counters captured at Close
}

var _ monitor.IDRuntime = (*Runtime)(nil)

// A shard's open batch holds batchSize records (events and frees): a full
// batch is shipped at once, a partial one waits for a sync operation
// (Barrier, Flush, Stats, Close) or the linger, whichever comes first. A
// shard mailbox buffers mailboxDepth batches before Dispatch blocks.
const (
	batchSize    = 64
	mailboxDepth = 16
)

// New builds a sharded runtime. The options must pass monitor.Options.Check
// for the requested shard count: more than one shard needs CreateEnable,
// the enable-set analysis being what guarantees every monitor instance
// binds the routing pivot (CreateFull materializes instances for arbitrary
// event subsets, which cannot be partitioned without cross-shard joins).
func New(spec *monitor.Spec, opts Options) (*Runtime, error) {
	return newSized(spec, opts, batchSize, mailboxDepth)
}

// newSized is New with the batch size and mailbox depth given; the tests
// shrink them to force every interleaving of batches and backpressure.
func newSized(spec *monitor.Spec, opts Options, batch, depth int) (*Runtime, error) {
	if opts.Shards <= 0 {
		opts.Shards = min(runtime.GOMAXPROCS(0), MaxLanes)
	}
	if err := opts.Options.Check(spec, opts.Shards); err != nil {
		return nil, err
	}
	router, err := NewRouter(spec, opts.Shards, 0)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{spec: spec, router: router}
	var shardMet *metrics.ShardSeries
	if opts.MetricsRegistry != nil {
		shardMet = metrics.NewShardSeries(opts.MetricsRegistry, spec.Name, router.Lanes())
		rt.broadcasts = shardMet.Broadcasts
		rt.refusals = shardMet.Refusals
	}
	if user := opts.OnRelease; user != nil {
		rt.release = func(lanes uint64, ids []uint64) {
			rt.vmu.Lock()
			user(lanes, ids)
			rt.vmu.Unlock()
		}
	}
	engOpts := opts.Options
	if user := opts.OnVerdict; user != nil {
		engOpts.OnVerdict = func(v monitor.Verdict) {
			rt.vmu.Lock()
			defer rt.vmu.Unlock()
			user(v)
		}
	}
	for i := range router.Lanes() {
		w := &worker{
			idx:     i,
			pending: getBatch(batch),
			mailbox: make(chan message, depth),
			batchSz: batch,
		}
		eng, err := monitor.New(spec, engOpts)
		if err != nil {
			return nil, err
		}
		w.eng = eng
		if user := opts.OnRelease; user != nil {
			eng.SetOnRelease(func(id uint64) { w.rel = append(w.rel, id) })
			w.onRelease = func(ids []uint64) {
				rt.vmu.Lock()
				user(1<<uint(i), ids)
				rt.vmu.Unlock()
			}
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

// Dispatch routes one parametric event, blocking when a mailbox it goes
// to is full. Safe for concurrent use; events from one goroutine reach
// each shard in dispatch order. Dispatching after Close is a programming
// error and panics with a diagnosable message rather than corrupting the
// shut-down mailboxes.
func (rt *Runtime) Dispatch(sym int, theta param.Instance) {
	rt.checkOpen()
	var buf [param.MaxParams]uint64
	ids := buf[:0]
	for m := theta.Mask(); m != 0; m = m.Rest() {
		ids = append(ids, theta.Value(m.First()).ID())
	}
	rt.mu.Lock()
	lanes := rt.router.Route(sym, ids)
	rt.send(lanes, event{sym: int32(sym), at: refs, inst: theta}, nil)
	rt.mu.Unlock()
	rt.sent(lanes)
}

// DispatchIDs is Dispatch for a caller that names objects by ID (a server
// session, a trace replay): ids bind D(sym) in ascending parameter-index
// order, and a wrong arity panics. Each shard engine that gets the event
// keeps the IDs as held records, which die only at the free records FreeIDs
// positions. One runtime takes its objects through one of the two entries.
func (rt *Runtime) DispatchIDs(sym int, ids []uint64) {
	rt.checkIDs(sym, ids)
	rt.mu.Lock()
	lanes := rt.router.Route(sym, ids)
	rt.send(lanes, event{sym: int32(sym)}, ids)
	rt.mu.Unlock()
	rt.sent(lanes)
}

// send enqueues the event on every shard of lanes, each behind the primers
// the router gathered for it, blocking while a mailbox is full. Callers
// hold mu.
func (rt *Runtime) send(lanes uint64, ev event, ids []uint64) {
	for m := lanes; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		w := rt.workers[i]
		w.mu.Lock()
		rt.prime(w, i, ev)
		w.enqueueLocked(ev, ids)
		w.mu.Unlock()
	}
}

// prime adds to the open batch of shard i, which w runs, the primers of
// the event ev the router gathered for it: each names one of the event's
// objects, by ref when the event does. Callers hold mu and w.mu.
func (rt *Runtime) prime(w *worker, i int, ev event) {
	for _, p := range rt.router.Primers() {
		if p.Lanes&(1<<uint(i)) == 0 {
			continue
		}
		if ev.at != refs {
			one := [1]uint64{p.ID}
			w.addLocked(event{sym: int32(p.Sym)}, one[:])
			continue
		}
		x := rt.spec.Events[p.Sym].Params.First()
		for m := ev.inst.Mask(); m != 0; m = m.Rest() {
			if v := ev.inst.Value(m.First()); v.ID() == p.ID {
				w.addLocked(event{sym: int32(p.Sym), at: refs, inst: param.Empty().Bind(x, v)}, nil)
				break
			}
		}
	}
}

// sent counts an event the shards of lanes accepted.
func (rt *Runtime) sent(lanes uint64) {
	rt.events.Add(1)
	if lanes == rt.router.All() && len(rt.workers) > 1 {
		rt.broadcasts.Inc()
	}
	rt.arm()
}

// checkIDs is checkOpen plus the arity check a worker could only make by
// panicking.
func (rt *Runtime) checkIDs(sym int, ids []uint64) {
	rt.checkOpen()
	if rt.spec.Events[sym].Params.Count() != len(ids) {
		panic("shard: DispatchIDs arity mismatch")
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

// TryDispatchIDs is the non-blocking DispatchIDs: it enqueues the event,
// behind its primers, and returns true only when every shard it goes to
// can accept them without blocking. A refused event is enqueued nowhere
// and placed nowhere (all-or-nothing, so an event for several shards
// cannot be half-delivered, and the router's placements stay as they
// were). Callers retrying TryDispatchIDs must preserve their own per-slice
// ordering.
func (rt *Runtime) TryDispatchIDs(sym int, ids []uint64) bool {
	rt.checkIDs(sym, ids)
	rt.mu.Lock()
	lanes := rt.router.Peek(sym, ids)
	// Take every target shard's lock in index order, check, then commit.
	// Mailbox sends only ever happen under the shard's lock, so a positive
	// canAccept cannot be invalidated before the enqueue. The primers ride
	// in the event's batch.
	ok := true
	for m := lanes; m != 0; m &= m - 1 {
		w := rt.workers[bits.TrailingZeros64(m)]
		w.mu.Lock()
		ok = ok && w.canAccept()
	}
	if ok {
		rt.router.Place(sym, ids, lanes)
	}
	ev := event{sym: int32(sym)}
	for m := lanes; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		w := rt.workers[i]
		if ok {
			rt.prime(w, i, ev)
			w.enqueueLocked(ev, ids)
		}
		w.mu.Unlock()
	}
	rt.mu.Unlock()
	if !ok {
		rt.refusals.Inc()
		return false
	}
	rt.sent(lanes)
	return true
}

// Free implements monitor.Runtime: the object's death becomes one record
// in the open batch of every shard its records went to, positioned behind
// every event dispatched before the call, and the call returns — the
// producer never waits for a worker. The engines never ask the ref, so the
// caller may kill the object at once: the events ahead of the record still
// find it alive, and each shard sees the death when its worker reaches the
// record. A second Free of the object changes nothing. After Close it is a
// silent no-op.
func (rt *Runtime) Free(ref heap.Ref) {
	id := [1]uint64{ref.ID()}
	rt.FreeIDs(id[:])
}

// FreeIDs is Free for objects named by ID: each death becomes one record in
// the open batch of every shard its object's records went to, at this
// point of the stream (Router.Free), and the object is released at once on
// the other shards, which hold no record of it (Options.OnRelease).
func (rt *Runtime) FreeIDs(ids []uint64) {
	if rt.closed || len(ids) == 0 {
		return
	}
	rt.mu.Lock()
	for m := rt.router.Free(ids, rt.release); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		share := rt.router.Share(ids, i)
		w := rt.workers[i]
		w.mu.Lock()
		for k := range share {
			w.enqueueLocked(event{sym: freeSym}, share[k:k+1])
		}
		w.mu.Unlock()
	}
	rt.mu.Unlock()
	rt.arm()
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
// number of Dispatch calls — an event sent to every shard counts once, as
// in the sequential engine — and PeakLive sums per-shard peaks, an upper
// bound on the true concurrent peak. All other counters are exact sums.
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

// ObjectRecords sums the shard engines' object tables (tests, diagnostics;
// see monitor.Engine.ObjectRecords), behind every record enqueued before
// the call.
func (rt *Runtime) ObjectRecords() (records, dead int) {
	var mu sync.Mutex
	rt.ctlAll(func(_ int, e *monitor.Engine) {
		n, d := e.ObjectRecords()
		mu.Lock()
		records, dead = records+n, dead+d
		mu.Unlock()
	})
	return records, dead
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
