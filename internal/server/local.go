// local.go: the backend of a monitoring server's sessions — the session is
// monitored here, by an engine (or sharded runtime) of its own.
//
// The remote-ID→object table is the network replacement for weak
// references: a client names parameter objects with integer IDs, the
// backend materializes one session-heap object per ID on first mention,
// and a protocol Free kills the object — which is exactly the death signal
// the coenable-set GC consumes. Monitor lifetime here is governed entirely
// by these protocol-level deaths; no amount of server-side garbage
// collection can reclaim a monitor whose client never declares its objects
// dead, and nothing but the table keeps them alive.
//
// A Free's place in the session's ordered stream is the death's position
// in the trace — it does not matter when the producer's write block
// carrying it left the client. Before killing the objects the backend
// positions the death in its runtime with Free (nothing to do on the
// sequential engine, one batch record per shard on the sharded runtime, no
// waiting on either), so every event sent before the Free observes the
// objects alive: per-session counters and verdicts are trace-faithful and
// equal to a local replay of the same stream (see internal/remote's oracle
// tests).
//
// Ingestion into a sharded runtime first tries the non-blocking
// TryDispatch; when the target mailbox refuses, Event falls back to the
// blocking Dispatch — which is the stall the front turns into withheld
// credit.
package server

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"rvgo/internal/heap"
	"rvgo/internal/logic"
	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/shard"
	"rvgo/internal/trace"
	"rvgo/internal/wire"
)

// local is one session's own monitor: a backend, a heap, and the
// remote-ID table.
type local struct {
	s *Session

	rt     monitor.Runtime
	srt    *shard.Runtime // non-nil when the backend is sharded
	heap   *heap.Heap
	flight *trace.Ring   // non-nil with Options.FlightWindow > 0
	rec    *trace.Writer // non-nil with Options.RecordDir

	// objects maps a remote ID to its session heap object; a nil entry is
	// the tombstone of an ID freed before any event mentioned it. Only the
	// session goroutine touches the table: verdicts read the remote ID back
	// off the object itself.
	objects map[uint64]*heap.Object

	// vskip is the number of verdict forwards still to suppress inside a
	// handoff bracket (node mode: the session carries a router's NodeHello,
	// which is what authorizes the handoff frames) — the replayed journal
	// regenerates verdicts the upstream client already received, and the
	// engine must count them (its settled counters are checked against the
	// donor's) without the router delivering them twice.
	vskip atomic.Int64

	// Read by the /statusz scraper.
	stalls  atomic.Uint64
	stallNs atomic.Uint64

	vals []heap.Ref // dispatch scratch
	vids []uint64   // verdict-ID scratch (onVerdict is serialized)
}

// openLocal builds the backend a session's Hello asks for.
func openLocal(s *Session) (Backend, error) {
	srv, compiled, h := s.srv, s.Spec, s.Hello
	shards := int(h.Shards)
	if shards == 0 {
		shards = srv.opts.DefaultShards
	}
	if shards < 1 || shards > srv.opts.MaxShards {
		return nil, fmt.Errorf("shards %d out of range 1..%d", shards, srv.opts.MaxShards)
	}
	b := &local{s: s, heap: heap.New(), objects: map[uint64]*heap.Object{}}
	opts := h.Options()
	opts.OnVerdict = b.onVerdict
	opts.Metrics = metrics.NewEngineSeries(srv.reg, compiled.Name, opts.GC.String())
	if shards > 1 {
		srt, err := shard.New(compiled, shard.Options{
			Options: opts, Shards: shards,
			MetricsRegistry: srv.reg, MetricsLabel: compiled.Name,
		})
		if err != nil {
			return nil, err
		}
		b.rt, b.srt = srt, srt
	} else {
		eng, err := monitor.New(compiled, opts)
		if err != nil {
			return nil, err
		}
		b.rt = eng
	}
	if srv.opts.FlightWindow > 0 {
		b.flight = trace.NewRing(srv.opts.FlightWindow)
	}
	if dir := srv.opts.RecordDir; dir != "" {
		path := filepath.Join(dir, fmt.Sprintf("session-%d.rvt", s.ID))
		wtr, err := func() (*trace.Writer, error) {
			if err := trace.EnsureDir(path); err != nil {
				return nil, err
			}
			return trace.CreateForSpec(path, compiled, trace.WriterOptions{
				Metrics: metrics.NewTraceSeries(srv.reg, compiled.Name),
			})
		}()
		if err != nil {
			srv.logf("session %d: recording disabled: %v", s.ID, err)
		} else {
			b.rec = wtr
		}
	}
	return b, nil
}

func (b *local) shardCount() int {
	if b.srt != nil {
		return b.srt.Shards()
	}
	return 1
}

// stopRecording drops the recorder after a write error: a recording
// failure never interrupts monitoring.
func (b *local) stopRecording(err error) {
	b.s.srv.logf("session %d: recording stopped: %v", b.s.ID, err)
	b.rec.Close()
	b.rec = nil
}

// Event dispatches one remote event into the runtime.
func (b *local) Event(sym int, ids []uint64) error {
	ev := &b.s.Spec.Events[sym]
	b.vals = b.vals[:0]
	for _, id := range ids {
		o, ok := b.objects[id]
		if !ok {
			o = b.heap.AllocRemote(id)
			b.objects[id] = o
		}
		if o == nil || !o.Alive() {
			return fmt.Errorf("event %q uses remote object %d after its free", ev.Name, id)
		}
		b.vals = append(b.vals, o)
	}
	theta := param.Of(ev.Params, b.vals...)
	// Record before dispatch: on the sequential backend the verdict
	// handler runs inside Dispatch, and the window it dumps must include
	// the event that triggered it.
	if b.flight != nil {
		b.flight.RecordDispatchIDs(sym, ev.Params, ids)
	}
	if b.rec != nil {
		if err := b.rec.EventIDs(sym, ids); err != nil {
			b.stopRecording(err)
		}
	}
	if b.srt != nil {
		// Non-blocking first: a refusal means the target mailbox is full,
		// and the blocking fallback is precisely the backpressure — the
		// session reads no further frames (and grants no further credit)
		// until the shard drains.
		if !b.srt.TryDispatch(sym, theta) {
			b.stallDispatch(sym, theta)
		}
	} else {
		b.rt.Dispatch(sym, theta)
	}
	return nil
}

// stallDispatch is the blocking fallback behind a TryDispatch refusal:
// the session reader stalls here, withholding credit, until the shard
// mailbox drains. The stall is counted and timed, and a stall still
// blocked after one second logs a structured warning with the withheld
// credit and the backlog — the "why is my session stuck" diagnostic. The
// timer allocation is fine: this path is already blocking on a full
// mailbox.
func (b *local) stallDispatch(sym int, theta param.Instance) {
	s := b.s
	s.series.CreditStalls.Inc()
	credits := s.ungrant
	start := time.Now()
	warn := time.AfterFunc(time.Second, func() {
		depths := b.srt.QueueDepths()
		deepest := 0
		for _, d := range depths {
			if d > deepest {
				deepest = d
			}
		}
		s.srv.logf("session %d: credit-starved >1s tenant=%s credits_withheld=%d mailbox_depth=%d shards=%d",
			s.ID, s.Spec.Name, credits, deepest, len(depths))
	})
	b.srt.Dispatch(sym, theta)
	warn.Stop()
	d := time.Since(start)
	s.series.StallSeconds.Observe(d.Seconds())
	b.stallNs.Add(uint64(d))
	b.stalls.Add(1)
}

// Free applies protocol-level object deaths: position them in the runtime
// so every event sent before the Free is processed against the old
// liveness, then kill the objects — from the death's place in the stream
// on, the coenable-set GC may flag and collect every monitor whose
// ALIVENESS formula depended on them, exactly as if a weak reference had
// been cleared. Objects that never appeared in an event (dacapo workloads
// free far more objects than any one property mentions) have no heap
// object and cost the runtime nothing. Table entries are retained,
// now holding dead objects: an event naming the ID again is
// use-after-free and must be refused (never silently re-allocated), and a
// late verdict (the alldead/none GC policies keep such monitors) may
// still mention the object.
func (b *local) Free(ids []uint64) error {
	if b.flight != nil {
		b.flight.RecordFreeIDs(ids)
	}
	if b.rec != nil {
		if err := b.rec.FreeIDs(ids); err != nil {
			b.stopRecording(err)
		}
	}
	b.vals = b.vals[:0]
	for _, id := range ids {
		if o := b.objects[id]; o != nil {
			b.vals = append(b.vals, o)
		}
	}
	b.rt.Free(b.vals...)
	for _, id := range ids {
		if o := b.objects[id]; o != nil {
			b.heap.Free(o)
		} else {
			// Never appeared in an event: record a tombstone anyway, so
			// the death is final for this ID too — a later event naming
			// it must be refused, not silently allocated live. No monitor
			// can mention it, so it needs no heap object.
			b.objects[id] = nil
		}
	}
	return nil
}

func (b *local) Barrier() error                { b.rt.Barrier(); return nil }
func (b *local) Flush() error                  { b.rt.Flush(); return nil }
func (b *local) Stats() (monitor.Stats, error) { return b.rt.Stats(), nil }

// Close settles and releases the runtime, then seals the trace recorder,
// if any — in that order, so the engine's final delta publication and the
// recording both land before the front lets the session go.
func (b *local) Close() (monitor.Stats, error) {
	b.rt.Flush()
	st := b.rt.Stats()
	b.rt.Close()
	if b.rec != nil {
		if err := b.rec.Close(); err != nil {
			b.s.srv.logf("session %d: closing recording: %v", b.s.ID, err)
		}
		b.rec = nil
	}
	return st, nil
}

// handoffBegin opens a handoff bracket: the next skip verdicts are replays.
func (b *local) handoffBegin(skip uint64) error {
	node := b.s.Node
	if node == nil {
		return fmt.Errorf("HandoffBegin on a session without a NodeHello")
	}
	b.vskip.Store(int64(skip))
	b.s.srv.logf("session %d: handoff begin (router %d slot %d, skipping %d verdicts)", b.s.ID, node.Router, node.Slot, skip)
	return nil
}

// handoffEnd closes the bracket: settle the replayed state, stop
// suppressing (a correct replay consumed the skip budget exactly; a
// leftover budget would silently swallow live verdicts), and return the
// counters the router verifies against the donor's ByeAck.
func (b *local) handoffEnd() (monitor.Stats, error) {
	if b.s.Node == nil {
		return monitor.Stats{}, fmt.Errorf("HandoffEnd on a session without a NodeHello")
	}
	b.rt.Flush()
	b.vskip.Store(0)
	b.s.srv.logf("session %d: handoff settled after %d events", b.s.ID, b.s.events.Load())
	return b.rt.Stats(), nil
}

// onVerdict forwards a goal verdict to the client. It is called from the
// session goroutine (sequential backend) or from shard workers (serialized
// by the shard runtime's verdict mutex) — never concurrently with itself,
// which is what lets it reuse the verdict-ID scratch.
func (b *local) onVerdict(v monitor.Verdict) {
	// Inside a handoff bracket the first vskip verdicts are replays the
	// upstream client already has; the engine counted them, the wire must
	// not carry them again. onVerdict invocations are serialized, so the
	// check-then-decrement pair never races itself.
	if b.vskip.Load() > 0 {
		b.vskip.Add(-1)
		return
	}
	wv := wire.Verdict{Sym: v.Sym, Cat: string(v.Cat), Mask: uint64(v.Inst.Mask())}
	b.vids = b.vids[:0]
	for pm := v.Inst.Mask(); pm != 0; pm = pm.Rest() {
		// Every ref in a session's engine is one of its AllocRemote objects.
		b.vids = append(b.vids, v.Inst.Value(pm.First()).(*heap.Object).RemoteID())
	}
	wv.IDs = b.vids
	b.s.Verdict(wv)
	if b.flight != nil && v.Cat != logic.Match {
		b.dumpWindow(wv)
	}
}

// dumpWindow logs the flight-recorder window behind a failure verdict:
// the recent events and protocol frees, oldest first, with the client's
// object IDs. onVerdict invocations are serialized, so the dump is one
// coherent block per verdict.
func (b *local) dumpWindow(v wire.Verdict) {
	events := b.s.Spec.Events
	var out []byte
	for _, e := range b.flight.Snapshot() {
		if e.Kind == trace.RingFree {
			out = fmt.Appendf(out, " #%d free%v", e.Seq, e.IDs[:e.N])
		} else if int(e.Sym) < len(events) {
			out = fmt.Appendf(out, " #%d %s%v", e.Seq, events[e.Sym].Name, e.IDs[:e.N])
		}
	}
	b.s.srv.logf("session %d: verdict %s on %v, flight window:%s", b.s.ID, v.Cat, v.IDs, string(out))
}
